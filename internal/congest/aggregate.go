package congest

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// AggregateResult reports a part-wise aggregation run.
type AggregateResult struct {
	Mins  []uint64 // per part: the minimum key over its members
	Stats Stats
	// EffectiveRounds is the number of rounds until the flood went quiet —
	// the quantity Theorem 1 bounds by Õ(quality). The run itself executes
	// a fixed budget of rounds (nodes cannot detect global quiescence), so
	// Stats.Rounds exceeds this.
	EffectiveRounds int
	Budget          int
}

// AggregateMin computes, for every part, the minimum of the members' keys
// (64-bit, min-combinable; callers encode (value, id) pairs order-
// preservingly), with every member learning its part's minimum. This is the
// framework subproblem from paper §1.3.3: communication flows along the
// part's induced edges plus its shortcut edges, one (part, key) message per
// edge direction per round, so congested edges serialize exactly as the
// congestion parameter predicts.
//
// The round budget starts at an estimate from the shortcut's measured
// quality and doubles until the flood converges (checked against the
// sequential answer); the converged run's quiet-point is reported.
func AggregateMin(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut, keys []uint64) (*AggregateResult, error) {
	return AggregateMinUnder(g, p, s, keys, nil)
}

// AggregateMinUnder is AggregateMin under an adversary: each attempt of the
// doubling loop (Adversary.retry) runs with the adversary's fault plan
// (advanced along its timeline per attempt), aborted runs count as
// non-converged attempts, and the attempt cap comes from the adversary's
// retry policy. The flooding protocol re-offers its best-known
// key whenever it changes, but a dropped update can still leave a member
// stale at the budget boundary — which the sequential convergence check
// catches, exactly as it catches an undersized budget. A nil adversary is
// the fault-free AggregateMin.
func AggregateMinUnder(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut, keys []uint64, adv *Adversary) (*AggregateResult, error) {
	if len(keys) != g.N() {
		return nil, fmt.Errorf("congest: %d keys for %d vertices", len(keys), g.N())
	}
	// Channels: per edge, the parts communicating over it (see
	// buildEdgeChannels, shared with the relaxation primitive).
	partsOnEdge := buildEdgeChannels(g, p, s)
	// Expected answers for convergence checking (the environment's
	// ground-truth; a real deployment would rely on the proven bound).
	want := make([]uint64, p.NumParts())
	for i := range want {
		want[i] = math.MaxUint64
		for _, v := range p.Sets[i] {
			if keys[v] < want[i] {
				want[i] = keys[v]
			}
		}
	}
	m := s.Measure()
	var res *AggregateResult
	err := adv.retry("AggregateMin", m.Quality+2*m.TreeDiameter+8, func(budget int) error {
		r, converged, err := runAggregate(g, p, partsOnEdge, keys, want, budget, adv.runOptions(budget))
		if err != nil {
			return err
		}
		if !converged {
			return &IncompleteError{Protocol: "AggregateMin", Budget: budget,
				Detail: "flood left a member short of its part's minimum"}
		}
		r.Budget = budget
		res = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// localPartIdx finds the slab index of part within parts[off:end), the
// per-node window of the shared part slab. It is a top-level function (not
// a closure in the round kernel) so the hot path allocates nothing.
//
//congest:hotpath
func localPartIdx(parts []int32, off, end, part int32) int32 {
	for li := off; li < end; li++ {
		if parts[li] == part {
			return li
		}
	}
	return -1
}

func runAggregate(g *graph.Graph, p *partition.Parts, partsOnEdge func(int) []int32, keys, want []uint64, budget int, ropts Options) (*AggregateResult, bool, error) {
	n := g.N()
	// finalBest[v] = best-known key of v's own part when the budget ran out.
	finalBest := make([]uint64, n)
	for v := range finalBest {
		finalBest[v] = math.MaxUint64
	}
	// Per-node protocol state lives in shared slab arrays (CSR per node),
	// and every node shares one RoundFunc that indexes the slabs by node
	// ID, so a whole run performs a constant number of allocations.
	type channel struct{ port, part int32 }
	type nodeState struct {
		chOff, chEnd int32 // into channels/dirty
		ptOff, ptEnd int32 // into parts/best
		own          int32 // index into parts/best, or -1
		round        int32
	}
	totCh := 0
	for id := 0; id < g.M(); id++ {
		totCh += 2 * len(partsOnEdge(id))
	}
	channels := make([]channel, 0, totCh)
	dirty := make([]bool, totCh)
	parts := make([]int32, 0, totCh+n)
	best := make([]uint64, 0, totCh+n)
	sentRound := make([]int32, 0, totCh)
	state := make([]nodeState, n)
	for v := 0; v < n; v++ {
		st := &state[v]
		st.chOff = int32(len(channels))
		st.ptOff = int32(len(parts))
		st.own = -1
		for port, a := range g.Adj(v) {
			sentRound = append(sentRound, -1)
			for _, pi := range partsOnEdge(a.ID) {
				channels = append(channels, channel{int32(port), pi})
				if localPartIdx(parts, st.ptOff, int32(len(parts)), pi) == -1 {
					parts = append(parts, pi)
					best = append(best, math.MaxUint64)
				}
			}
		}
		if pi := p.Of[v]; pi != -1 {
			if li := localPartIdx(parts, st.ptOff, int32(len(parts)), int32(pi)); li != -1 {
				st.own = li
				if keys[v] < best[li] {
					best[li] = keys[v]
				}
			} else {
				// Isolated member: no channels carry its part, but it still
				// reports its own key.
				parts = append(parts, int32(pi))
				best = append(best, keys[v])
				st.own = int32(len(parts) - 1)
			}
		}
		st.chEnd = int32(len(channels))
		st.ptEnd = int32(len(parts))
		for ci := st.chOff; ci < st.chEnd; ci++ {
			if li := localPartIdx(parts, st.ptOff, st.ptEnd, channels[ci].part); li != -1 && best[li] != math.MaxUint64 {
				dirty[ci] = true
			}
		}
	}
	portOff := make([]int32, n+1) // node -> offset into sentRound
	for v := 0; v < n; v++ {
		portOff[v+1] = portOff[v] + int32(g.Degree(v))
	}
	step := func(nd *Node, msgs []Message) bool {
		st := &state[nd.ID]
		// Fold in the previous round's deliveries.
		for _, msg := range msgs {
			pi := int32(msg.Payload[0])
			key := msg.Payload[1]
			li := localPartIdx(parts, st.ptOff, st.ptEnd, pi)
			if li == -1 || key >= best[li] {
				continue
			}
			best[li] = key
			for ci := st.chOff; ci < st.chEnd; ci++ {
				if channels[ci].part == pi && int(channels[ci].port) != msg.Port {
					dirty[ci] = true
				}
			}
		}
		if int(st.round) == budget {
			if st.own != -1 {
				finalBest[nd.ID] = best[st.own]
			}
			return false
		}
		// One pending update per port, lowest part ID first (channels are
		// built in (port, part) order).
		sent := sentRound[portOff[nd.ID]:portOff[nd.ID+1]]
		for ci := st.chOff; ci < st.chEnd; ci++ {
			ch := channels[ci]
			if !dirty[ci] || sent[ch.port] == st.round {
				continue
			}
			nd.Send(int(ch.port), Words{uint64(ch.part), best[localPartIdx(parts, st.ptOff, st.ptEnd, ch.part)]})
			dirty[ci] = false
			sent[ch.port] = st.round
		}
		st.round++
		return true
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, ropts)
	if err != nil {
		return nil, false, err
	}
	// Convergence: every part member must hold the true minimum.
	converged := true
	for i, w := range want {
		for _, v := range p.Sets[i] {
			if finalBest[v] != w {
				converged = false
			}
		}
	}
	res := &AggregateResult{
		Mins:            append([]uint64(nil), want...),
		Stats:           stats,
		EffectiveRounds: stats.LastActiveRound,
	}
	return res, converged, nil
}
