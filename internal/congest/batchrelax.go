package congest

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// BatchRelaxResult reports a batched k-source distance-relaxation run.
type BatchRelaxResult struct {
	// Dist[s] is source s's per-vertex fixed point: the pointwise minimum
	// over channel-graph paths of init[s][u] + Σ weights along the path —
	// bit-identical to k independent Relaxer.Relax runs, since every
	// source's tokens traverse the same channels with the same weights.
	Dist  [][]float64
	Stats Stats
	// EffectiveRounds is the quiet-point of the whole batch: the round
	// after which no token of any source moved. The pipelining win is that
	// this grows like h+k, not k·h: a port queues at most one pending
	// token per source, so once the first tag drains the remaining sources
	// stream behind it one round apart, exactly the Pipecast multi-token
	// schedule.
	EffectiveRounds int
	Budget          int
}

// BatchRelaxBudget is the framework's per-phase round budget for relaxing
// k sources at once over a shortcut of the given measurement: the
// single-source budget plus one pipelining round per extra source tag
// queued on a port — O(h+k) where the sequential schedule pays k·O(h). It
// is both the estimate the simulated batch starts from and the per-phase
// charge the analytic batched SSSP books.
func BatchRelaxBudget(m shortcut.Measurement, k int) int {
	return RelaxBudget(m) + k
}

// BatchRelaxer runs batched multi-source relaxation phases over a fixed
// (graph, parts, shortcut) triple, reusing the channel view and the
// measured budget across phases. It is the k-source generalization of
// Relaxer: one phase floods all k sources' tentative distances as
// tag-multiplexed tokens (tag = source index) over the same channel graph,
// one token per port per round.
//
// The multiplexing is per (port, source), not per (channel, source):
// relaxation tokens are value-only — the receiver folds the delivered
// distance by min and never consults the part tag — so the single-source
// protocol's per-channel copies on a shared port all carry the same value
// and exist only to meter per-part congestion. With source tags the
// distinct streams through a port are the k sources, and that is what the
// batch serializes: congestion k per port, dilation h, hence the O(h+k)
// quiet point the budget tracks.
type BatchRelaxer struct {
	g  *graph.Graph
	ch *channels
	m  shortcut.Measurement
}

// NewBatchRelaxer builds the channel view and measures the shortcut once.
func NewBatchRelaxer(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut) *BatchRelaxer {
	return &BatchRelaxer{g: g, ch: newChannels(g, p, s), m: s.Measure()}
}

// Budget returns BatchRelaxBudget for k sources over this relaxer's
// shortcut measurement.
func (r *BatchRelaxer) Budget(k int) int { return BatchRelaxBudget(r.m, k) }

// Relax runs one batched relaxation phase: init[s] is source s's tentative
// distance vector (+Inf for "unknown"), and the result's Dist[s] is its
// channel-graph fixed point. The round budget starts at BatchRelaxBudget
// and doubles (Adversary.retry, fault-free) until every source's flood
// converges against the sequential fixed point (the environment's ground
// truth), mirroring Relaxer.Relax.
func (r *BatchRelaxer) Relax(weights []float64, init [][]float64) (*BatchRelaxResult, error) {
	g := r.g
	k := len(init)
	if k == 0 {
		return nil, fmt.Errorf("congest: batched relaxation needs at least one source")
	}
	if err := relaxArgs(g, weights, init...); err != nil {
		return nil, err
	}
	want := make([][]float64, k)
	for s := 0; s < k; s++ {
		want[s] = fixedPoint(g, r.ch.carries, weights, init[s])
	}
	var res *BatchRelaxResult
	var faultFree *Adversary // retry's fault-free policy: nothing booked
	err := faultFree.retry("BatchRelax", r.Budget(k), func(budget int) error {
		var converged bool
		var err error
		res, converged, err = runBatchRelax(g, r.ch, weights, init, want, budget)
		if err != nil {
			return err
		}
		if !converged {
			return &IncompleteError{Protocol: "BatchRelax", Budget: budget,
				Detail: "flood left a vertex short of a source's channel-graph distance"}
		}
		res.Budget = budget
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// firstDirtySource scans a port's k per-source dirty slots (the window
// dirty[off:off+k]) for the lowest-indexed source with a pending update.
// It is a top-level function (not a closure in the round kernel) so the
// hot path allocates nothing.
//
//congest:hotpath
//congest:pure
func firstDirtySource(dirty []bool, off, k int) int {
	for s := 0; s < k; s++ {
		if dirty[off+s] {
			return s
		}
	}
	return -1
}

// batchFold folds one delivered token into the receiving node's k-slot
// distance row and, on improvement, marks the source dirty on every
// channel-carrying port of the node except the arrival port. row is the
// node's dist[v*k : (v+1)*k] window; the pOff/pEnd window of chOff (the
// channel view's per-port channel offsets) is the node's ports; the return
// reports whether the token improved anything.
//
//congest:hotpath
//congest:pure
func batchFold(row []float64, dirty []bool, chOff []int32, pOff, pEnd int32, k, arrival, src int, cand float64) bool {
	if cand >= row[src] {
		return false
	}
	row[src] = cand
	for q := pOff; q < pEnd; q++ {
		if chOff[q+1] > chOff[q] && int(q-pOff) != arrival {
			dirty[int(q)*k+src] = true
		}
	}
	return true
}

func runBatchRelax(g *graph.Graph, ch *channels, weights []float64, init, want [][]float64, budget int) (*BatchRelaxResult, bool, error) {
	n := g.N()
	k := len(init)
	// finalDist is laid out [s*n+v] so the result carves into per-source
	// slices; the working dist is [v*k+s] so a node's k tags share a cache
	// line in the kernel.
	finalDist := make([]float64, k*n)
	dist := make([]float64, n*k)
	for s := 0; s < k; s++ {
		for v := 0; v < n; v++ {
			dist[v*k+s] = init[s][v]
		}
	}
	// One dirty slot per (port, source) over the channel view's global
	// ports; a port participates iff it carries at least one channel.
	portOff, chOff := ch.portOff, ch.chOff
	dirty := make([]bool, int(portOff[n])*k)
	round := make([]int32, n)
	for v := 0; v < n; v++ {
		for s := 0; s < k; s++ {
			if !math.IsInf(dist[v*k+s], 1) {
				for q := portOff[v]; q < portOff[v+1]; q++ {
					if chOff[q+1] > chOff[q] {
						dirty[int(q)*k+s] = true
					}
				}
			}
		}
	}
	step := func(nd *Node, msgs []Message) bool {
		v := nd.ID
		pOff, pEnd := portOff[v], portOff[v+1]
		row := dist[v*k : (v+1)*k]
		// Fold in the previous round's deliveries: token tag = source
		// index, value = sender's distance, plus the traversal cost of the
		// edge it arrived on.
		for _, msg := range msgs {
			src := int(msg.Payload[0])
			cand := WordFloat64(msg.Payload[1]) + weights[msg.Edge]
			batchFold(row, dirty, chOff, pOff, pEnd, k, msg.Port, src, cand)
		}
		if int(round[v]) == budget {
			for s := 0; s < k; s++ {
				finalDist[s*n+v] = row[s]
			}
			return false
		}
		// One pending token per port per round, lowest source tag first;
		// the remaining tags wait for later rounds — the per-source
		// congestion serialization that pipelines the batch in h+k rounds.
		for q := pOff; q < pEnd; q++ {
			if chOff[q+1] == chOff[q] {
				continue
			}
			src := firstDirtySource(dirty, int(q)*k, k)
			if src < 0 {
				continue
			}
			nd.Send(int(q-pOff), Words{uint64(src), Float64Word(row[src])})
			dirty[int(q)*k+src] = false
		}
		round[v]++
		return true
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, Options{MaxRounds: budget + 64})
	if err != nil {
		return nil, false, err
	}
	converged := true
	out := make([][]float64, k)
	for s := 0; s < k; s++ {
		out[s] = finalDist[s*n : (s+1)*n : (s+1)*n]
		for v := 0; v < n; v++ {
			if out[s][v] != want[s][v] {
				converged = false
			}
		}
	}
	res := &BatchRelaxResult{
		Dist:            out,
		Stats:           stats,
		EffectiveRounds: stats.LastActiveRound,
	}
	return res, converged, nil
}
