package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
	"repro/internal/structure"
)

// E6MST compares MST round counts across algorithms on the apex scenario
// (where the framework's advantage is real): shortcut framework vs naive
// flooding vs the O(D+√n) pipeline, as the rim grows. Weights are
// adversarial (cheap rim, expensive spokes) so fragments become wide.
func E6MST(rimSizes []int, seed int64) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "distributed MST rounds (Corollary 1): wheel networks, adversarial weights",
		Header: []string{"n", "diam", "r_shortcut", "r_naive", "r_pipelined", "charged_sc", "agree"},
	}
	rows := forEachPoint(len(rimSizes), func(i int) row {
		rim := rimSizes[i]
		rng := pointRNG(seed, i)
		g := gen.Wheel(rim + 1).G
		hub := g.N() - 1
		for id := 0; id < g.M(); id++ {
			e := g.Edge(id)
			if e.U == hub || e.V == hub {
				g.SetWeight(id, 100+rng.Float64())
			} else {
				g.SetWeight(id, 1+rng.Float64())
			}
		}
		gen.DistinctWeights(g)
		tr, err := graph.BFSTree(g, hub)
		if err != nil {
			panic(err)
		}
		sc, err := mst.ShortcutBoruvka(g, pipeline.Oblivious(g, tr))
		if err != nil {
			panic(err)
		}
		naive, err := mst.ShortcutBoruvka(g, pipeline.Empty(g, tr))
		if err != nil {
			panic(err)
		}
		piped, err := mst.PipelinedMST(g)
		if err != nil {
			panic(err)
		}
		kIDs, _ := graph.Kruskal(g)
		agree := len(sc.EdgeIDs) == len(kIDs) && len(naive.EdgeIDs) == len(kIDs) && len(piped.EdgeIDs) == len(kIDs)
		for j := range kIDs {
			if !agree {
				break
			}
			agree = sc.EdgeIDs[j] == kIDs[j] && naive.EdgeIDs[j] == kIDs[j] && piped.EdgeIDs[j] == kIDs[j]
		}
		return row{g.N(), graph.DiameterApprox(g), sc.CommRounds, naive.CommRounds,
			piped.CommRounds, sc.ChargedRounds, agree}
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes,
		"r_shortcut stays near O(D·polylog) while r_naive grows with fragment width ~ n")
	return t
}

// E6bMSTExcludedMinor runs the three engines on K5-minor-free networks of
// growing size (the paper's headline family).
func E6bMSTExcludedMinor(bagCounts []int, seed int64) *Table {
	t := &Table{
		ID:     "E6b",
		Title:  "distributed MST rounds on K5-minor-free clique-sums",
		Header: []string{"bags", "n", "diam", "r_witness", "r_naive", "r_pipelined"},
	}
	rows := forEachPoint(len(bagCounts), func(i int) row {
		nb := bagCounts[i]
		rng := pointRNG(seed, i)
		pieces := make([]*gen.Piece, nb)
		for j := range pieces {
			pieces[j] = gen.ApollonianPiece(20, rng)
		}
		cs := gen.CliqueSum(pieces, 3, rng)
		gen.DistinctWeights(gen.UniformWeights(cs.G, rng))
		tr, err := graph.BFSTree(cs.G, 0)
		if err != nil {
			panic(err)
		}
		w := witness(cs)
		provider := func(p *partition.Parts) (*shortcut.Shortcut, pipeline.Rounds, error) {
			res, err := core.ExcludedMinorShortcut(cs.G, tr, p, w)
			if err != nil {
				return nil, pipeline.Rounds{}, err
			}
			return res.S, pipeline.Rounds{Charged: res.M.Quality}, nil
		}
		scRes, err := mst.ShortcutBoruvka(cs.G, provider)
		if err != nil {
			panic(err)
		}
		naive, err := mst.ShortcutBoruvka(cs.G, pipeline.Empty(cs.G, tr))
		if err != nil {
			panic(err)
		}
		piped, err := mst.PipelinedMST(cs.G)
		if err != nil {
			panic(err)
		}
		return row{nb, cs.G.N(), graph.DiameterApprox(cs.G),
			scRes.CommRounds, naive.CommRounds, piped.CommRounds}
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}

// E7MinCut measures the (1+ε)-approximate min cut: achieved ratio against
// exact Stoer-Wagner, plus round counts.
func E7MinCut(sizes []int, seed int64) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "(1+ε)-approximate min cut (Corollary 1): achieved ratio vs exact",
		Header: []string{"n", "m", "exact", "approx", "ratio", "trees", "rounds(charged)"},
	}
	rows := forEachPoint(len(sizes), func(i int) row {
		n := sizes[i]
		rng := pointRNG(seed, i)
		a := gen.NewApollonian(n, rng)
		gen.UniformWeights(a.G, rng)
		exact, _, err := graph.GlobalMinCut(a.G)
		if err != nil {
			panic(err)
		}
		r, err := mincut.Approx(a.G, mincut.Options{Trees: 24, TwoRespecting: n <= 250})
		if err != nil {
			panic(err)
		}
		return row{a.G.N(), a.G.M(), exact, r.Value, r.Value / exact, r.Trees, r.ChargedRounds + r.CommRounds}
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}

// E8bLowerBoundMST shows MST rounds growing ~√n on the hard family even at
// logarithmic diameter (the contrast motivating the paper).
func E8bLowerBoundMST(sizes []int, seed int64) *Table {
	t := &Table{
		ID:     "E8b",
		Title:  "MST rounds on the lower-bound family: ~√n despite D=O(log n)",
		Header: []string{"p=ell", "n", "diam", "r_oblivious", "r_naive", "sqrt(n)"},
	}
	rows := forEachPoint(len(sizes), func(i int) row {
		s := sizes[i]
		rng := pointRNG(seed, i)
		lb := gen.LowerBound(s, s)
		gen.DistinctWeights(gen.UniformWeights(lb.G, rng))
		tr, err := graph.BFSTree(lb.G, lb.Root)
		if err != nil {
			panic(err)
		}
		sc, err := mst.ShortcutBoruvka(lb.G, pipeline.Oblivious(lb.G, tr))
		if err != nil {
			panic(err)
		}
		naive, err := mst.ShortcutBoruvka(lb.G, pipeline.Empty(lb.G, tr))
		if err != nil {
			panic(err)
		}
		n := lb.G.N()
		sq := 1
		for sq*sq < n {
			sq++
		}
		return row{s, n, graph.DiameterApprox(lb.G), sc.CommRounds, naive.CommRounds, sq}
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}

// E12Planarize quantifies the Planarization Lemma (Lemma 11) on tori and
// higher-genus surfaces: cut-graph growth and verified planarity.
func E12Planarize(genera []int, seed int64) *Table {
	t := &Table{
		ID:     "E12",
		Title:  "planarization (Lemma 11): cutting genus-g graphs along 2g generating cycles",
		Header: []string{"genus", "n", "m", "cut_n", "cut_m", "outer", "resultGenus", "outerOnOneFace"},
	}
	rows := forEachPoint(len(genera), func(i int) row {
		g := genera[i]
		var e *gen.Embedded
		if g == 0 {
			e = gen.Grid(6, 6)
		} else {
			e = gen.GenusChain(g, 4, 5)
		}
		tr, err := graph.BFSTree(e.G, 0)
		if err != nil {
			panic(err)
		}
		cut, err := embed.Planarize(e.Emb, tr)
		if err != nil {
			panic(err)
		}
		outer := 0
		for _, o := range cut.Outer {
			if o {
				outer++
			}
		}
		onFace := outerOnCommonFace(cut)
		return row{g, e.G.N(), e.G.M(), cut.PG.N(), cut.PG.M(), outer, cut.Emb.Genus(), onFace}
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}

func outerOnCommonFace(cut *embed.CutGraph) bool {
	var outer []int
	for v, ok := range cut.Outer {
		if ok {
			outer = append(outer, v)
		}
	}
	if len(outer) == 0 {
		return true
	}
	faces, _ := cut.Emb.Faces()
	for _, f := range faces {
		on := make(map[int]bool)
		for _, v := range cut.Emb.FaceVertices(f) {
			on[v] = true
		}
		all := true
		for _, v := range outer {
			if !on[v] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// AggregationShowcase is the sensor scenario as a table: rounds for
// part-wise aggregation, naive vs shortcut, as corridors lengthen.
func AggregationShowcase(widths []int, seed int64) *Table {
	return AggregationShowcaseOn(nil, widths, seed)
}

// AggregationShowcaseOn runs the aggregation showcase over a custom
// corridor generator (rows × cols grid rows as parts, any apex/vortex
// dressing); nil selects the default single-apex sensor field. The diam
// column is computed from the generated network — it is 2 for the default
// generator only because its apex neighbors every sensor.
func AggregationShowcaseOn(generate func(rows, cols int, rng *rand.Rand) *structure.AlmostEmbeddable, widths []int, seed int64) *Table {
	t := &Table{
		ID:     "E6c",
		Title:  "part-wise aggregation rounds (Theorem 1 primitive): grid+apex corridors",
		Header: []string{"cols", "n", "diam", "rounds_naive", "rounds_shortcut", "quality"},
	}
	if generate == nil {
		generate = func(rows, cols int, rng *rand.Rand) *structure.AlmostEmbeddable {
			return gen.PlanarWithApex(rows, cols, rng)
		}
	}
	const rows = 8
	outRows := forEachPoint(len(widths), func(i int) row {
		cols := widths[i]
		rng := pointRNG(seed, i)
		a := generate(rows, cols, rng)
		tr, err := graph.BFSTree(a.G, a.Apices[0])
		if err != nil {
			panic(err)
		}
		sets := make([][]int, rows)
		for r := 0; r < rows; r++ {
			sets[r] = make([]int, cols)
			for c := 0; c < cols; c++ {
				sets[r][c] = r*cols + c
			}
		}
		p, err := partition.New(a.G, sets)
		if err != nil {
			panic(err)
		}
		keys := make([]uint64, a.G.N())
		for v := range keys {
			keys[v] = uint64((v*7919)%100000 + 1)
		}
		empty := shortcut.Empty(a.G, tr, p)
		rn, err := aggregate(a.G, p, empty, keys)
		if err != nil {
			panic(err)
		}
		res, err := core.AlmostEmbeddableShortcut(a.G, tr, p, a)
		if err != nil {
			panic(err)
		}
		rs, err := aggregate(a.G, p, res.S, keys)
		if err != nil {
			panic(err)
		}
		return row{cols, a.G.N(), graph.DiameterApprox(a.G), rn, rs, res.M.Quality}
	})
	for _, r := range outRows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("rows fixed at %d; naive grows with corridor length, shortcut with quality", rows))
	return t
}
