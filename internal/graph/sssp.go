package graph

import (
	"fmt"
	"math"
)

// SPResult holds single-source shortest-path distances over edge weights.
type SPResult struct {
	Source     int
	Dist       []float64 // weighted distance from source; +Inf if unreachable
	Hops       []int     // fewest edges among minimum-weight paths; -1 if unreachable
	Parent     []int     // shortest-path-tree parent; -1 for source/unreachable
	ParentEdge []int     // edge ID to parent; -1 for source/unreachable
}

// Dijkstra computes exact single-source shortest paths with a binary heap:
// the sequential oracle the distributed (1+ε)-approximate SSSP is validated
// against. All edge weights must be non-negative. Hops records, per vertex,
// the fewest edges over all minimum-weight paths — exactly the number of
// synchronous rounds distributed Bellman–Ford needs to settle that vertex,
// which is what the naive-baseline round accounting in internal/sssp
// charges.
func Dijkstra(g *Graph, src int) (*SPResult, error) {
	if src < 0 || src >= g.N() {
		return nil, fmt.Errorf("graph.Dijkstra: source %d out of range for n=%d", src, g.N())
	}
	for id := 0; id < g.M(); id++ {
		if w := g.Edge(id).W; w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("graph.Dijkstra: edge %d has weight %v", id, w)
		}
	}
	n := g.N()
	r := &SPResult{
		Source:     src,
		Dist:       make([]float64, n),
		Hops:       make([]int, n),
		Parent:     make([]int, n),
		ParentEdge: make([]int, n),
	}
	for v := 0; v < n; v++ {
		r.Dist[v] = math.Inf(1)
		r.Hops[v] = -1
		r.Parent[v] = -1
		r.ParentEdge[v] = -1
	}
	r.Dist[src] = 0
	r.Hops[src] = 0
	h := &spHeap{dist: r.Dist, hops: r.Hops}
	h.push(src)
	done := make([]bool, n)
	for h.len() > 0 {
		v := h.pop()
		if done[v] {
			continue
		}
		done[v] = true
		for _, a := range g.Adj(v) {
			cand := r.Dist[v] + g.Edge(a.ID).W
			candHops := r.Hops[v] + 1
			if cand < r.Dist[a.To] || (cand == r.Dist[a.To] && candHops < r.Hops[a.To]) {
				r.Dist[a.To] = cand
				r.Hops[a.To] = candHops
				r.Parent[a.To] = v
				r.ParentEdge[a.To] = a.ID
				h.push(a.To)
			}
		}
	}
	return r, nil
}

// RelaxFixedPoint relaxes dist in place to its fixed point over the edges
// mask admits (a nil mask admits every edge):
//
//	dist(v) = min over admitted paths u⇝v of dist(u) + Σ w(e),
//
// by potential-initialized Dijkstra: every finite entry of dist seeds the
// heap. It reports whether any distance decreased. This is the sequential
// oracle of the part-wise relaxation protocols in congest and the
// analytic-mode phase of sssp; the protocols accumulate path weights
// source-to-target exactly as this does, so their results are
// bit-identical. The heap h and the done slice (length g.N()) are
// caller-owned scratch, so a warm call allocates nothing.
func RelaxFixedPoint(g *Graph, mask []bool, w, dist []float64, h *MinDistHeap, done []bool) bool {
	h.Reset(dist)
	for v := range dist {
		done[v] = false
		if !math.IsInf(dist[v], 1) {
			h.Push(v)
		}
	}
	changed := false
	for h.Len() > 0 {
		v := h.Pop()
		if done[v] {
			continue
		}
		done[v] = true
		for _, a := range g.adj[v] {
			if mask != nil && !mask[a.ID] {
				continue
			}
			if cand := dist[v] + w[a.ID]; cand < dist[a.To] {
				dist[a.To] = cand
				changed = true
				h.Push(a.To)
			}
		}
	}
	return changed
}

// MinDistHeap is a binary min-heap of vertex IDs keyed by an external
// distance slice, with lazy deletion (callers skip stale pops via a done
// set). It is the substrate of RelaxFixedPoint.
//
// Each entry snapshots its key at Push time. Keying entries by the live
// distance slice instead would silently break the heap invariant whenever
// a distance decreases after insertion — a stale entry's key shrinks in
// place, Pop can then surface a non-minimal vertex, and a done-marking
// Dijkstra discards the improvement that arrives after the premature pop.
// That corruption needs many initially-finite entries to bite, which is
// exactly the all-finite init of a mid-pipeline relaxation phase.
type MinDistHeap struct {
	dist []float64
	vs   []int32
	keys []float64
}

// Reset points the heap at a distance slice and empties it, keeping the
// backing storage (so a warm reuse allocates nothing).
func (h *MinDistHeap) Reset(dist []float64) {
	h.dist = dist
	h.vs = h.vs[:0]
	h.keys = h.keys[:0]
}

// Len returns the number of (possibly stale) entries.
func (h *MinDistHeap) Len() int { return len(h.vs) }

// Push inserts vertex v keyed by its distance at insertion time.
func (h *MinDistHeap) Push(v int) {
	h.vs = append(h.vs, int32(v))
	h.keys = append(h.keys, h.dist[v])
	i := len(h.vs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.keys[i] >= h.keys[p] {
			break
		}
		h.vs[i], h.vs[p] = h.vs[p], h.vs[i]
		h.keys[i], h.keys[p] = h.keys[p], h.keys[i]
		i = p
	}
}

// Pop removes and returns a vertex of minimum key.
func (h *MinDistHeap) Pop() int {
	top := h.vs[0]
	last := len(h.vs) - 1
	h.vs[0] = h.vs[last]
	h.keys[0] = h.keys[last]
	h.vs = h.vs[:last]
	h.keys = h.keys[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.keys[l] < h.keys[small] {
			small = l
		}
		if r < last && h.keys[r] < h.keys[small] {
			small = r
		}
		if small == i {
			break
		}
		h.vs[i], h.vs[small] = h.vs[small], h.vs[i]
		h.keys[i], h.keys[small] = h.keys[small], h.keys[i]
		i = small
	}
	return int(top)
}

// spHeap is a binary min-heap of vertices keyed lexicographically by
// (dist, hops). Stale entries are skipped at pop (lazy deletion), matching
// the textbook decrease-key-free Dijkstra.
type spHeap struct {
	dist []float64
	hops []int
	vs   []int32
}

func (h *spHeap) len() int { return len(h.vs) }

func (h *spHeap) less(a, b int32) bool {
	if h.dist[a] != h.dist[b] {
		return h.dist[a] < h.dist[b]
	}
	return h.hops[a] < h.hops[b]
}

func (h *spHeap) push(v int) {
	h.vs = append(h.vs, int32(v))
	i := len(h.vs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.vs[i], h.vs[p]) {
			break
		}
		h.vs[i], h.vs[p] = h.vs[p], h.vs[i]
		i = p
	}
}

func (h *spHeap) pop() int {
	top := h.vs[0]
	last := len(h.vs) - 1
	h.vs[0] = h.vs[last]
	h.vs = h.vs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.less(h.vs[l], h.vs[small]) {
			small = l
		}
		if r < last && h.less(h.vs[r], h.vs[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.vs[i], h.vs[small] = h.vs[small], h.vs[i]
		i = small
	}
	return int(top)
}
