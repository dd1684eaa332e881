package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refBellmanFord runs synchronous (Jacobi) Bellman–Ford and records, per
// vertex, the first round at which it reached its final distance.
func refBellmanFord(g *Graph, src int) (dist []float64, settled []int) {
	n := g.N()
	dist = make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	next := make([]float64, n)
	settled = make([]int, n)
	for round := 1; round <= n; round++ {
		copy(next, dist)
		for id := 0; id < g.M(); id++ {
			e := g.Edge(id)
			if c := dist[e.U] + e.W; c < next[e.V] {
				next[e.V] = c
			}
			if c := dist[e.V] + e.W; c < next[e.U] {
				next[e.U] = c
			}
		}
		changed := false
		for v := range dist {
			if next[v] < dist[v] {
				dist[v] = next[v]
				settled[v] = round
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist, settled
}

func randomWeighted(n, m int, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(rng.Intn(i), i, 0.25+rng.Float64())
	}
	for g.M() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 0.25+rng.Float64()*4)
		}
	}
	return g
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomWeighted(30+rng.Intn(20), 90, rng)
		src := rng.Intn(g.N())
		r, err := Dijkstra(g, src)
		if err != nil {
			t.Fatal(err)
		}
		want, settled := refBellmanFord(g, src)
		for v := 0; v < g.N(); v++ {
			if math.Abs(r.Dist[v]-want[v]) > 1e-9 {
				t.Fatalf("vertex %d: dijkstra %v vs bellman-ford %v", v, r.Dist[v], want[v])
			}
			// Hops is the settle round of synchronous Bellman–Ford. Float
			// addition order can differ between the two algorithms, so only
			// check when the distances agree bit-exactly (the common case).
			if r.Dist[v] == want[v] && r.Hops[v] != settled[v] {
				t.Fatalf("vertex %d: hops %d vs settle round %d", v, r.Hops[v], settled[v])
			}
			if v != src && r.Parent[v] != -1 {
				e := g.Edge(r.ParentEdge[v])
				if math.Abs(r.Dist[v]-(r.Dist[r.Parent[v]]+e.W)) > 1e-9 {
					t.Fatalf("vertex %d: parent edge does not close the distance", v)
				}
			}
		}
	}
}

func TestDijkstraErrors(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, -1)
	if _, err := Dijkstra(g, 0); err == nil {
		t.Fatal("accepted negative weight")
	}
	if _, err := Dijkstra(New(2), 5); err == nil {
		t.Fatal("accepted out-of-range source")
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	r, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.Dist[2], 1) || r.Hops[2] != -1 || r.Parent[2] != -1 {
		t.Fatalf("unreachable vertex misreported: %+v", r)
	}
	if r.Dist[1] != 2 || r.Hops[1] != 1 {
		t.Fatalf("direct neighbor misreported")
	}
}

// RelaxFixedPoint (the relaxation oracle of congest's part-wise protocols
// and sssp's analytic phases) runs done-marking Dijkstra over MinDistHeap
// starting from an all-finite distance vector. That is only correct if
// heap order survives key decreases after insertion — i.e., if entries
// snapshot their key at Push time. A heap keyed by the live distance slice
// corrupts silently on exactly this access pattern: a stale entry's key
// shrinks in place, Pop surfaces a non-minimal vertex, it is marked done,
// and the improvement that arrives afterwards is discarded. This
// regression pins the scenario: a cycle with a heavy apex (long
// rim-routed shortest paths) relaxed from an apex-routed all-finite init,
// over every edge and over a random channel mask, checked bit-exactly
// against the exhaustive Bellman-Ford fixed point over the same edges.
func TestMinDistHeapAllFiniteInitDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	maskRng := rand.New(rand.NewSource(43))
	var h MinDistHeap
	for trial := 0; trial < 20; trial++ {
		const n = 96
		g := New(n + 1)
		apex := n
		for v := 0; v < n; v++ {
			g.AddEdge(v, (v+1)%n, 1+rng.Float64())
			g.AddEdge(v, apex, float64(n)*(1+rng.Float64()))
		}
		w := make([]float64, g.M())
		mask := make([]bool, g.M())
		for id := range w {
			w[id] = g.Edge(id).W
			mask[id] = maskRng.Intn(4) != 0
		}
		// All-finite init mimicking a mid-pipeline phase: every vertex
		// already holds its apex-routed estimate.
		init := make([]float64, g.N())
		for v := 0; v < n; v++ {
			init[v] = g.Edge(2*v + 1).W
		}
		init[apex] = 0
		for _, in := range []struct {
			name string
			mask []bool
		}{{"all edges", nil}, {"random mask", mask}} {
			dist := append([]float64(nil), init...)
			RelaxFixedPoint(g, in.mask, w, dist, &h, make([]bool, g.N()))
			// Exhaustive Bellman-Ford fixed point: same left-folded path
			// sums, so the comparison is bit-exact.
			want := append([]float64(nil), init...)
			for changed := true; changed; {
				changed = false
				for v := 0; v < g.N(); v++ {
					for _, a := range g.Adj(v) {
						if in.mask != nil && !in.mask[a.ID] {
							continue
						}
						if cand := want[v] + w[a.ID]; cand < want[a.To] {
							want[a.To] = cand
							changed = true
						}
					}
				}
			}
			for v := 0; v < g.N(); v++ {
				if dist[v] != want[v] {
					t.Fatalf("trial %d, %s, vertex %d: RelaxFixedPoint %v, Bellman-Ford fixed point %v", trial, in.name, v, dist[v], want[v])
				}
			}
		}
	}
}
