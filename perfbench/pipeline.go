package main

import (
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// pipelineSpec is one shortcut-pipeline workload: a graph family at a size,
// built either analytically (fixed points computed sequentially, rounds
// charged) or message by message on the CONGEST engine.
type pipelineSpec struct {
	family   string // "grid" or "chain"
	n        int
	simulate bool
}

// familyCSR generates the family's graph CSR-direct with seeded distinct
// uniform weights — the scale pipeline's generator with the weight seed
// made a parameter.
func familyCSR(family string, n int, seed int64) (*graph.CSR, error) {
	var c *graph.CSR
	switch family {
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		c = gen.GridCSR(side, side)
	case "chain":
		const rim = 31
		c = gen.WheelChainCSR(max(n/(rim+1), 2), rim)
	default:
		return nil, fmt.Errorf("unknown pipeline family %q", family)
	}
	return gen.DistinctWeightsCSR(gen.UniformWeightsCSR(c, xrand.New(seed))), nil
}

// pipelineInput is a set-up instance: the graph in both layouts, the
// diameter bound every protocol derives from, and the probed number of
// decomposition phases.
type pipelineInput struct {
	csr       *graph.CSR
	g         *graph.Graph
	diamBound int
	phases    int
}

func setupPipeline(tr *tracer, spec pipelineSpec, seed int64) (*pipelineInput, error) {
	in := &pipelineInput{}
	err := tr.do("gen.csr", func() (err error) {
		in.csr, err = familyCSR(spec.family, spec.n, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	_ = tr.do("graph.materialize", func() error { in.g = in.csr.Graph(); return nil })
	diam := 0
	_ = tr.do("graph.diameter", func() error { diam = in.csr.DiameterApprox(); return nil })
	if diam < 0 {
		return nil, fmt.Errorf("%s instance is disconnected", spec.family)
	}
	in.diamBound = 2*diam + 2
	// The decomposition keeps the largest phase count whose fragment count
	// stays at or above √n, probed on the sequential Borůvka trace.
	err = tr.do("partition.probe", func() error {
		target := 1
		for target*target < in.g.N() {
			target++
		}
		in.phases = 1
		for in.phases < 64 {
			_, probe, err := partition.BoruvkaTrace(in.g, in.phases+1)
			if err != nil {
				return err
			}
			if probe.NumParts() < target {
				break
			}
			in.phases++
		}
		return nil
	})
	return in, err
}

// stageLedger is one stage's two-ledger round cost and simulated traffic.
type stageLedger struct {
	Name      string
	Simulated int
	Charged   int
	Messages  int
}

// pipelineOutput is everything a build reports: the shortcut found, the
// MST, and each stage's ledger in elect → bfs → decompose → search →
// construct → mst order.
type pipelineOutput struct {
	Cap, Quality, Parts, Guesses int
	MSTEdges                     []int
	MSTWeight                    float64
	MSTPhases                    int
	ProviderCalls                int
	Stages                       []stageLedger
}

func (o *pipelineOutput) rounds() (simulated, charged, messages int) {
	for _, s := range o.Stages {
		simulated += s.Simulated
		charged += s.Charged
		messages += s.Messages
	}
	return simulated, charged, messages
}

// buildPipeline runs the zero-witness pipeline from leader election
// through the shortcut MST, one span per layer call.
func buildPipeline(tr *tracer, spec pipelineSpec, in *pipelineInput) (*pipelineOutput, error) {
	g, sim := in.g, spec.simulate
	out := &pipelineOutput{}
	stage := func(name string, simulated, charged, messages int) {
		out.Stages = append(out.Stages, stageLedger{name, simulated, charged, messages})
	}

	leader := 0 // the election's fixed point: the minimum vertex ID
	if err := tr.do("congest.elect", func() error {
		if !sim {
			stage("elect", 0, in.diamBound+2, 0)
			return nil
		}
		l, st, err := congest.LeaderElectSync(g, in.diamBound, congest.Options{})
		leader = l
		stage("elect", st.Rounds, 0, st.Messages)
		return err
	}); err != nil {
		return nil, err
	}

	var parent, parentEdge []int
	if err := tr.do("congest.bfs", func() (err error) {
		if !sim {
			parent, parentEdge, err = congest.CanonicalBFSParents(g, leader)
			stage("bfs", 0, in.diamBound+2, 0)
			return err
		}
		var st congest.Stats
		parent, parentEdge, st, err = congest.DistributedBFSSync(g, leader, in.diamBound, congest.Options{})
		stage("bfs", st.Rounds, 0, st.Messages)
		return err
	}); err != nil {
		return nil, err
	}
	var tree *graph.Tree
	if err := tr.do("graph.tree", func() (err error) {
		tree, err = graph.TreeFromParents(g, leader, parent, parentEdge)
		return err
	}); err != nil {
		return nil, err
	}

	var parts *partition.Parts
	if err := tr.do("congest.decompose", func() error {
		dec, err := congest.BoruvkaDecompose(g, tree, in.phases, sim)
		if err != nil {
			return err
		}
		parts = dec.Parts
		out.Parts = parts.NumParts()
		stage("decompose", dec.EffectiveRounds, dec.ChargedRounds, dec.Stats.Messages)
		return nil
	}); err != nil {
		return nil, err
	}

	if err := tr.do("congest.search", func() error {
		sr, err := congest.SearchCap(g, tree, parts, congest.SearchOptions{Simulate: sim})
		if err != nil {
			return err
		}
		out.Cap, out.Guesses = sr.Cap, sr.Guesses
		stage("search", sr.EffectiveRounds, sr.ChargedRounds, sr.Stats.Messages)
		return nil
	}); err != nil {
		return nil, err
	}

	var built *shortcut.Shortcut
	if err := tr.do("congest.construct", func() error {
		cr, err := congest.ConstructShortcut(g, tree, parts, congest.ConstructOptions{Cap: out.Cap, Simulate: sim})
		if err != nil {
			return err
		}
		built = cr.S
		stage("construct", cr.EffectiveRounds, cr.ChargedRounds, cr.Stats.Messages)
		return nil
	}); err != nil {
		return nil, err
	}
	_ = tr.do("shortcut.measure", func() error { out.Quality = built.Measure().Quality; return nil })

	flood := pipeline.Flood(g, tree, out.Cap, sim)
	provider := func(p *partition.Parts) (*shortcut.Shortcut, pipeline.Rounds, error) {
		id := tr.begin("mst.provider")
		defer tr.end(id)
		out.ProviderCalls++
		return flood(p)
	}
	return out, tr.do("mst.total", func() error {
		run, err := mst.ShortcutBoruvkaOpts(g, provider, mst.Options{Simulate: sim})
		if err != nil {
			return err
		}
		out.MSTEdges, out.MSTWeight, out.MSTPhases = run.EdgeIDs, run.Weight, run.Phases
		stage("mst", run.CommRounds, run.ChargedRounds, run.Messages)
		return nil
	})
}

// checkMST compares the build's MST edge for edge against the sequential
// Kruskal oracle on the same CSR.
func checkMST(c *graph.CSR, out *pipelineOutput) error {
	want, weight := c.MST()
	if len(want) != len(out.MSTEdges) || math.Abs(weight-out.MSTWeight) > 1e-6 {
		return fmt.Errorf("MST has %d edges of weight %g, Kruskal %d of weight %g",
			len(out.MSTEdges), out.MSTWeight, len(want), weight)
	}
	for i, id := range want {
		if out.MSTEdges[i] != int(id) {
			return fmt.Errorf("MST edge %d is %d, Kruskal has %d", i, out.MSTEdges[i], id)
		}
	}
	return nil
}
