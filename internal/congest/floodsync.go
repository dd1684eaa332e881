package congest

import (
	"fmt"

	"repro/internal/graph"
)

// The bootstrap floods: leader election and BFS-tree construction. Each is
// one RoundFunc over caller-owned O(n) slabs, shared by the fault-free entry
// points (LeaderElectSync, DistributedBFSSync) and the adversary-aware ones
// (Adversary.LeaderElect, Adversary.BFS). The two differ only in the send
// policy:
//
//   - gated (fault-free): a node broadcasts only when its state improved,
//     so total messages are O(m · improvements) rather than O(m · budget);
//   - re-broadcast (under an adversary): every node that knows something
//     offers it again every round, so a lost message costs a round, not
//     correctness.
//
// Both policies converge to the same fixed points — the minimum vertex ID,
// and the canonical lowest-port BFS parents — and every run checks its
// result against them, so a flood that did not converge surfaces as an
// IncompleteError, never as a wrong leader or tree.

// noDist marks a node the BFS flood has not reached.
const noDist = ^uint64(0)

// electArgs rejects election requests no flood can serve.
func electArgs(g *graph.Graph, diamBound int) error {
	if g.N() == 0 {
		return fmt.Errorf("congest: leader election over an empty network")
	}
	if diamBound <= 0 {
		// A zero-round flood's unanimous self-votes would masquerade as an
		// election on a single vertex.
		return fmt.Errorf("congest: leader election diameter bound %d must be positive", diamBound)
	}
	return nil
}

// electFlood runs one minimum-ID flood: every node starts with its own ID,
// adopts the smallest ID it hears, and stops once its local round exceeds
// budget. IDs are dense, so the flood has converged iff every node votes 0.
func electFlood(g *graph.Graph, budget int, rebroadcast bool, opts Options) (Stats, error) {
	best := make([]uint64, g.N())
	for v := range best {
		best[v] = uint64(v)
	}
	step := RoundFunc(func(nd *Node, msgs []Message) bool {
		v := nd.ID
		improved := nd.Round() == 1 // every node announces itself once
		for _, m := range msgs {
			if m.Payload[0] < best[v] {
				best[v] = m.Payload[0]
				improved = true
			}
		}
		if nd.Round() > budget {
			return false
		}
		if improved || rebroadcast {
			nd.Broadcast(Words{best[v]})
		}
		return true
	})
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, opts)
	if err != nil {
		return stats, err
	}
	for v, b := range best {
		if b != 0 {
			return stats, &IncompleteError{Protocol: "LeaderElect", Rounds: stats.Rounds, Budget: budget,
				Detail: fmt.Sprintf("node %d votes %d, not the minimum ID 0", v, b)}
		}
	}
	return stats, nil
}

// LeaderElectSync elects the minimum vertex ID with the gated flood. The
// round count is diamBound+2 — nodes cannot detect global convergence and
// must run out the bound — and a bound below the true eccentricity of the
// minimum surfaces as IncompleteError, never as a wrong leader.
func LeaderElectSync(g *graph.Graph, diamBound int, opts Options) (leader int, stats Stats, err error) {
	if err := electArgs(g, diamBound); err != nil {
		return -1, stats, err
	}
	if stats, err = electFlood(g, diamBound+1, false, opts); err != nil {
		return -1, stats, err
	}
	return 0, stats, nil
}

// bfsArgs rejects BFS requests no flood can serve and returns the canonical
// tree the flood must reproduce.
func bfsArgs(g *graph.Graph, root, diamBound int) (wantParent, wantEdge []int, err error) {
	if root < 0 || root >= g.N() {
		return nil, nil, fmt.Errorf("congest: BFS root %d out of range for %d nodes", root, g.N())
	}
	if diamBound <= 0 {
		// A non-positive bound cannot cover even a single hop.
		return nil, nil, fmt.Errorf("congest: BFS diameter bound %d must be positive", diamBound)
	}
	wantParent, wantEdge, err = CanonicalBFSParents(g, root)
	if err != nil {
		return nil, nil, fmt.Errorf("congest: BFS from %d: %w", root, err)
	}
	return wantParent, wantEdge, nil
}

// bfsFlood runs one distance flood from root. Each node keeps its best
// distance and the lowest port on which a neighbor announced that distance
// minus one; a node stops once its local round exceeds budget, and under
// the gated policy also the round after its announcement when nothing
// improved. In a fault-free synchronous run the first delivery already
// carries the BFS distance, so this is the classic "first announcement,
// lowest port" rule and the run ends at ecc(root)+2. The adopted tree is
// checked against the canonical one on every run.
func bfsFlood(g *graph.Graph, root, budget int, rebroadcast bool, wantParent, wantEdge []int, opts Options) (parent, parentEdge []int, stats Stats, err error) {
	n := g.N()
	dist := make([]uint64, n)
	port := make([]int32, n)
	for v := range dist {
		dist[v], port[v] = noDist, -1
	}
	dist[root] = 0
	step := RoundFunc(func(nd *Node, msgs []Message) bool {
		v := nd.ID
		improved := v == root && nd.Round() == 1 // the root announces itself
		for _, m := range msgs {
			// Inboxes are port-ordered, so within a round the first message
			// at a distance carries the lowest port; across rounds a lower
			// port at the same distance still wins.
			switch d := m.Payload[0] + 1; {
			case d < dist[v]:
				dist[v], port[v], improved = d, int32(m.Port), true
			case d == dist[v] && int32(m.Port) < port[v]:
				port[v] = int32(m.Port)
			}
		}
		if nd.Round() > budget || (!rebroadcast && !improved && dist[v] != noDist) {
			return false
		}
		if improved || (rebroadcast && dist[v] != noDist) {
			nd.Broadcast(Words{dist[v]})
		}
		return true
	})
	stats, err = RunSync(g, func(*Node) RoundFunc { return step }, opts)
	if err != nil {
		return nil, nil, stats, err
	}
	parent = make([]int, n)
	parentEdge = make([]int, n)
	for v := 0; v < n; v++ {
		parent[v], parentEdge[v] = -1, -1
		if port[v] >= 0 {
			a := g.Adj(v)[port[v]]
			parent[v], parentEdge[v] = a.To, a.ID
		}
		if parent[v] != wantParent[v] || parentEdge[v] != wantEdge[v] {
			detail := fmt.Sprintf("node %d adopted parent %d, canonical parent %d", v, parent[v], wantParent[v])
			if dist[v] == noDist {
				detail = fmt.Sprintf("flood from %d missed node %d", root, v)
			}
			return nil, nil, stats, &IncompleteError{Protocol: "BFS", Rounds: stats.Rounds, Budget: budget, Detail: detail}
		}
	}
	return parent, parentEdge, stats, nil
}

// DistributedBFSSync builds the canonical BFS tree from root with the gated
// flood: the root announces itself in round 1, a node adopts the
// lowest-port announcement of its first delivery, re-announces once, and
// halts one round later, so the run ends at ecc(root)+2 rounds. A node the
// flood has not reached gives up after diamBound+2 rounds. A tree that
// differs from CanonicalBFSParents — a missed node, or a wrong parent
// because opts.Faults lost messages — surfaces as IncompleteError.
func DistributedBFSSync(g *graph.Graph, root, diamBound int, opts Options) (parent, parentEdge []int, stats Stats, err error) {
	wantParent, wantEdge, err := bfsArgs(g, root, diamBound)
	if err != nil {
		return nil, nil, stats, err
	}
	return bfsFlood(g, root, diamBound+2, false, wantParent, wantEdge, opts)
}

// CanonicalBFSParents computes, sequentially, the parent/parent-edge arrays
// of the canonical elected BFS tree from root: every vertex adopts its
// first adjacency-order (lowest-port) neighbor one BFS level closer. This
// is the fixed point both BFS flood policies converge to and the tree
// pipeline.SelfSetup builds analytically — exported so all of them share
// one definition.
func CanonicalBFSParents(g *graph.Graph, root int) (parent, parentEdge []int, err error) {
	r := graph.BFS(g, root)
	if len(r.Order) != g.N() {
		return nil, nil, graph.ErrDisconnected
	}
	parent = make([]int, g.N())
	parentEdge = make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		parent[v], parentEdge[v] = -1, -1
		if v == root {
			continue
		}
		for _, a := range g.Adj(v) {
			if r.Dist[a.To] == r.Dist[v]-1 {
				parent[v], parentEdge[v] = a.To, a.ID
				break
			}
		}
	}
	return parent, parentEdge, nil
}
