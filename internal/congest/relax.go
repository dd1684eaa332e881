package congest

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// RelaxResult reports a distance-relaxation run.
type RelaxResult struct {
	// Dist is the per-vertex best-known distance when the round budget ran
	// out: the pointwise minimum over channel-graph paths of
	// init[u] + Σ weights along the path.
	Dist  []float64
	Stats Stats
	// EffectiveRounds is the number of rounds until the relaxation flood
	// went quiet. The run executes a fixed budget (nodes cannot detect
	// global quiescence), so Stats.Rounds exceeds this.
	EffectiveRounds int
	Budget          int
}

// RelaxBudget is the framework's per-primitive round budget for a shortcut
// of the given measurement: the estimate simulated relaxation starts from,
// and the per-phase charge the analytic SSSP fast path books.
func RelaxBudget(m shortcut.Measurement) int {
	return m.Quality + 2*m.TreeDiameter + 8
}

// Relaxer runs part-wise distance relaxation phases over a fixed (graph,
// parts, shortcut) triple, building the channel view and measuring the
// round budget once for all phases.
type Relaxer struct {
	g      *graph.Graph
	ch     *channels
	budget int
}

// NewRelaxer builds the channel view and round budget.
func NewRelaxer(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut) *Relaxer {
	return &Relaxer{g: g, ch: newChannels(g, p, s), budget: RelaxBudget(s.Measure())}
}

// Relax runs one phase of part-wise distance relaxation: starting from the
// tentative distances init (+Inf for "unknown"), it floods improved
// distances along each part's induced edges plus its shortcut edges until
// every vertex holds the channel-graph fixed point
//
//	dist(v) = min over channel-graph paths u⇝v of init(u) + Σ weights(e).
//
// This is the SSSP analogue of the part-wise aggregation subproblem: one
// (part, distance) message per channel per round, so congested shortcut
// edges serialize exactly as the congestion parameter predicts, and the
// effective round count is the quantity the framework bounds by
// Õ(quality). Weights are indexed by edge ID (typically the (1+ε)-rounded
// weights of the SSSP pipeline) and must be non-negative; both endpoints
// of an edge know its weight, so messages carry the sender's distance and
// the receiver adds the traversal cost.
//
// The round budget starts at RelaxBudget of the shortcut's measurement
// and doubles (Adversary.retry, fault-free) until the flood converges,
// checked against the sequential fixed point (graph.RelaxFixedPoint, the
// environment's ground truth); the converged run's quiet-point is
// reported.
func (r *Relaxer) Relax(weights, init []float64) (*RelaxResult, error) {
	g := r.g
	if err := relaxArgs(g, weights, init); err != nil {
		return nil, err
	}
	want := fixedPoint(g, r.ch.carries, weights, init)
	var res *RelaxResult
	var faultFree *Adversary // retry's fault-free policy: nothing booked
	err := faultFree.retry("Relax", r.budget, func(budget int) error {
		var converged bool
		var err error
		res, converged, err = runRelax(g, r.ch, weights, init, want, budget)
		if err != nil {
			return err
		}
		if !converged {
			return &IncompleteError{Protocol: "Relax", Budget: budget,
				Detail: "flood left a vertex short of its channel-graph distance"}
		}
		res.Budget = budget
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// relaxArgs validates a relaxation's inputs: one non-negative weight per
// edge and, per source, one initial distance per vertex.
func relaxArgs(g *graph.Graph, weights []float64, init ...[]float64) error {
	if len(weights) != g.M() {
		return fmt.Errorf("congest: %d weights for %d edges", len(weights), g.M())
	}
	for s, iv := range init {
		if len(iv) != g.N() {
			return fmt.Errorf("congest: source %d has %d initial distances for %d vertices", s, len(iv), g.N())
		}
	}
	for id, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("congest: edge %d has weight %v", id, w)
		}
	}
	return nil
}

// fixedPoint is a relaxation's expected answer: init relaxed to its fixed
// point over the edges mask admits (nil: every edge).
func fixedPoint(g *graph.Graph, mask []bool, weights, init []float64) []float64 {
	dist := append([]float64(nil), init...)
	var h graph.MinDistHeap
	graph.RelaxFixedPoint(g, mask, weights, dist, &h, make([]bool, g.N()))
	return dist
}

func runRelax(g *graph.Graph, ch *channels, weights, init, want []float64, budget int) (*RelaxResult, bool, error) {
	n := g.N()
	finalDist := make([]float64, n)
	for v := range finalDist {
		finalDist[v] = math.Inf(1)
	}
	// Per-node protocol state lives in shared slabs over the channel view:
	// one dirty flag per channel, one distance and round counter per node.
	portOff, chOff, chPart := ch.portOff, ch.chOff, ch.part
	dist := append([]float64(nil), init...)
	round := make([]int32, n)
	dirty := make([]bool, len(chPart))
	for v := 0; v < n; v++ {
		if !math.IsInf(dist[v], 1) {
			for ci := chOff[portOff[v]]; ci < chOff[portOff[v+1]]; ci++ {
				dirty[ci] = true
			}
		}
	}
	step := func(nd *Node, msgs []Message) bool {
		v := nd.ID
		pOff, pEnd := portOff[v], portOff[v+1]
		// Fold in the previous round's deliveries: the sender's distance
		// plus the traversal cost of the edge it arrived on. An improvement
		// dirties every channel but the arrival port's.
		for _, msg := range msgs {
			cand := WordFloat64(msg.Payload[1]) + weights[msg.Edge]
			if cand >= dist[v] {
				continue
			}
			dist[v] = cand
			arrival := pOff + int32(msg.Port)
			for ci := chOff[pOff]; ci < chOff[arrival]; ci++ {
				dirty[ci] = true
			}
			for ci := chOff[arrival+1]; ci < chOff[pEnd]; ci++ {
				dirty[ci] = true
			}
		}
		if int(round[v]) == budget {
			finalDist[v] = dist[v]
			return false
		}
		// One pending update per port per round, its first dirty channel;
		// the rest wait for later rounds (the congestion serialization).
		for q := pOff; q < pEnd; q++ {
			for ci := chOff[q]; ci < chOff[q+1]; ci++ {
				if dirty[ci] {
					nd.Send(int(q-pOff), Words{uint64(chPart[ci]), Float64Word(dist[v])})
					dirty[ci] = false
					break
				}
			}
		}
		round[v]++
		return true
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, Options{MaxRounds: budget + 64})
	if err != nil {
		return nil, false, err
	}
	converged := true
	for v := 0; v < n; v++ {
		if finalDist[v] != want[v] {
			converged = false
		}
	}
	res := &RelaxResult{
		Dist:            finalDist,
		Stats:           stats,
		EffectiveRounds: stats.LastActiveRound,
	}
	return res, converged, nil
}

// RelaxBellmanFord runs plain synchronous distributed Bellman–Ford over
// every edge of g: the naive SSSP baseline. Each round, every node whose
// tentative distance improved broadcasts it; the flood settles in exactly
// as many rounds as the largest hop count over minimum-weight paths (the
// quantity graph.Dijkstra reports as Hops). Convergence is checked against
// the sequential fixed point, as in Relaxer.Relax, but the baseline's
// budget doubles from 16 for up to 16 attempts (or until it exceeds 4n):
// hop-heavy paths need far more rounds than the shortcut quality predicts.
func RelaxBellmanFord(g *graph.Graph, weights, init []float64) (*RelaxResult, error) {
	if err := relaxArgs(g, weights, init); err != nil {
		return nil, err
	}
	want := fixedPoint(g, nil, weights, init)
	n := g.N()
	budget := 16
	for attempt := 0; attempt < 16; attempt++ {
		res, converged, err := runBFRelax(g, weights, init, want, budget)
		if err != nil {
			return nil, err
		}
		if converged {
			res.Budget = budget
			return res, nil
		}
		if budget > 4*n {
			break
		}
		budget *= 2
	}
	return nil, fmt.Errorf("congest: Bellman-Ford failed to converge within budget %d", budget)
}

func runBFRelax(g *graph.Graph, weights, init, want []float64, budget int) (*RelaxResult, bool, error) {
	n := g.N()
	finalDist := make([]float64, n)
	dist := make([]float64, n)
	copy(dist, init)
	pending := make([]bool, n) // improved since last broadcast
	for v := range pending {
		pending[v] = !math.IsInf(dist[v], 1)
	}
	round := make([]int32, n)
	step := func(nd *Node, msgs []Message) bool {
		v := nd.ID
		for _, msg := range msgs {
			if cand := WordFloat64(msg.Payload[0]) + weights[msg.Edge]; cand < dist[v] {
				dist[v] = cand
				pending[v] = true
			}
		}
		if int(round[v]) == budget {
			finalDist[v] = dist[v]
			return false
		}
		if pending[v] {
			nd.Broadcast(Words{Float64Word(dist[v])})
			pending[v] = false
		}
		round[v]++
		return true
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, Options{MaxRounds: budget + 64})
	if err != nil {
		return nil, false, err
	}
	converged := true
	for v := 0; v < n; v++ {
		if finalDist[v] != want[v] {
			converged = false
		}
	}
	res := &RelaxResult{Dist: finalDist, Stats: stats, EffectiveRounds: stats.LastActiveRound}
	return res, converged, nil
}
