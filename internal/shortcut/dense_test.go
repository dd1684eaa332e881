package shortcut_test

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// referenceMeasure recomputes a shortcut's measurement with the original
// map-based bookkeeping, as an oracle for the dense per-edge pass. It also
// returns how many H-components (with at least one edge) contain no vertex
// of their part: those are not blocks, and the inputs must include some.
func referenceMeasure(s *shortcut.Shortcut) (shortcut.Measurement, int) {
	m := shortcut.Measurement{TreeDiameter: 2 * s.T.Height()}
	if m.TreeDiameter == 0 {
		m.TreeDiameter = 1
	}
	edges := s.PartEdges()
	use := make(map[int]int)
	for _, ids := range edges {
		for _, id := range ids {
			use[id]++
		}
	}
	for _, c := range use {
		if c > m.Congestion {
			m.Congestion = c
		}
	}
	untouched := 0
	m.Blocks = make([]int, s.P.NumParts())
	for i, ids := range edges {
		uf := graph.NewUnionFind(s.G.N())
		for _, id := range ids {
			e := s.G.Edge(id)
			uf.Union(e.U, e.V)
		}
		reps := make(map[int]bool)
		for _, v := range s.P.Sets[i] {
			reps[uf.Find(v)] = true
		}
		m.Blocks[i] = len(reps)
		seen := make(map[int]bool)
		for _, id := range ids {
			if r := uf.Find(s.G.Edge(id).U); !reps[r] && !seen[r] {
				seen[r] = true
				untouched++
			}
		}
	}
	for _, b := range m.Blocks {
		if b > m.MaxBlocks {
			m.MaxBlocks = b
		}
	}
	m.Quality = m.MaxBlocks*m.TreeDiameter + m.Congestion
	return m, untouched
}

// randomAssignment gives every part a random subset of the tree edges, so
// many of its H-components miss the part entirely.
func randomAssignment(t *testing.T, g *graph.Graph, tr *graph.Tree, p *partition.Parts, seed int64) *shortcut.Shortcut {
	t.Helper()
	rng := xrand.New(seed)
	edges := make([][]int, p.NumParts())
	for i := range edges {
		for _, id := range tr.TreeEdgeIDs() {
			if rng.Intn(4) == 0 {
				edges[i] = append(edges[i], id)
			}
		}
	}
	s, err := shortcut.New(g, tr, p, edges)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomDenseInstance(t *testing.T, seed int64) *shortcut.Shortcut {
	t.Helper()
	rng := xrand.New(seed)
	g := gen.ErdosRenyiConnected(40+rng.Intn(40), 120, rng)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Voronoi(g, 4+rng.Intn(6), rng)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	return s
}

// TestMeasureMatchesMapReference is the property test for the per-edge
// store: on seeded random graphs, Measure must agree exactly with the
// straightforward map-based union-find implementation — on oblivious
// constructions and on random assignments whose untouched H-components a
// wrong pass would count as blocks.
func TestMeasureMatchesMapReference(t *testing.T) {
	untouched := 0
	for seed := int64(0); seed < 25; seed++ {
		s := randomDenseInstance(t, seed)
		for _, s := range []*shortcut.Shortcut{s, randomAssignment(t, s.G, s.T, s.P, seed)} {
			got := s.Measure()
			want, u := referenceMeasure(s)
			untouched += u
			if got.Congestion != want.Congestion || got.MaxBlocks != want.MaxBlocks ||
				got.TreeDiameter != want.TreeDiameter || got.Quality != want.Quality {
				t.Fatalf("seed %d: dense measurement %+v != reference %+v", seed, got, want)
			}
			if !slices.Equal(got.Blocks, want.Blocks) {
				t.Fatalf("seed %d: blocks %v != reference %v", seed, got.Blocks, want.Blocks)
			}
		}
	}
	if untouched == 0 {
		t.Fatal("no input has an H-component that misses its part")
	}
}

// TestMeasureRepeatedIsStable re-measures the same shortcut: the pooled
// scratch arenas must not leak state between runs.
func TestMeasureRepeatedIsStable(t *testing.T) {
	s := randomDenseInstance(t, 7)
	first := s.Measure()
	for i := 0; i < 5; i++ {
		if again := s.Measure(); again.Quality != first.Quality || again.Congestion != first.Congestion || again.MaxBlocks != first.MaxBlocks {
			t.Fatalf("measurement drifted on re-run: %+v vs %+v", again, first)
		}
	}
}

// TestMeasureAllocs asserts the arena actually removed the per-measure map
// churn: a Measure call on a warmed pool allocates only its result (a
// handful of objects, versus hundreds for the map-based version).
func TestMeasureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := randomDenseInstance(t, 11)
	s.Measure() // warm the scratch pool
	allocs := testing.AllocsPerRun(50, func() { s.Measure() })
	if allocs > 10 {
		t.Fatalf("Measure allocates %.0f objects per run; want <= 10", allocs)
	}
}

// TestAugmentedDiameterMatchesReference cross-checks AugmentedDiameter,
// AugmentedEcc (from the part's minimum vertex) and AugmentedEccs against a
// map-based BFS over the augmented subgraph, on oblivious constructions
// and on random assignments (many of them disconnected).
func TestAugmentedDiameterMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		base := randomDenseInstance(t, 100+seed)
		for _, s := range []*shortcut.Shortcut{base, randomAssignment(t, base.G, base.T, base.P, seed)} {
			eccs, eccsErr := s.AugmentedEccs()
			for i := 0; i < s.P.NumParts(); i++ {
				wantDiam, wantEcc := referenceAugmented(s, i)
				diam, diamErr := s.AugmentedDiameter(i)
				ecc, eccErr := s.AugmentedEcc(i)
				if wantEcc < 0 {
					if diamErr == nil || eccErr == nil || eccsErr == nil {
						t.Fatalf("seed %d part %d: disconnected augmented subgraph accepted", seed, i)
					}
					continue
				}
				if diamErr != nil || eccErr != nil {
					t.Fatalf("seed %d part %d: %v / %v", seed, i, diamErr, eccErr)
				}
				if diam != wantDiam || ecc != wantEcc {
					t.Fatalf("seed %d part %d: diameter %d ecc %d != reference %d, %d", seed, i, diam, ecc, wantDiam, wantEcc)
				}
				if eccsErr == nil && eccs[i] != ecc {
					t.Fatalf("seed %d part %d: AugmentedEccs %d != AugmentedEcc %d", seed, i, eccs[i], ecc)
				}
			}
		}
	}
}

// referenceAugmented returns the diameter of G[Pᵢ] + Hᵢ and the
// eccentricity of the part's minimum vertex in it, both -1 when the
// subgraph is disconnected.
func referenceAugmented(s *shortcut.Shortcut, i int) (diam, ecc int) {
	partIn := make(map[int]bool, len(s.P.Sets[i]))
	for _, v := range s.P.Sets[i] {
		partIn[v] = true
	}
	adj := make(map[int][]int) // every augmented vertex has a key
	for _, v := range s.P.Sets[i] {
		adj[v] = nil
	}
	link := func(u, v int) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for id := 0; id < s.G.M(); id++ {
		if e := s.G.Edge(id); partIn[e.U] && partIn[e.V] {
			link(e.U, e.V)
		}
	}
	for _, id := range s.PartEdges()[i] {
		e := s.G.Edge(id)
		link(e.U, e.V)
	}
	bfs := func(src int) int {
		dist := map[int]int{src: 0}
		queue := []int{src}
		far := 0
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			far = max(far, dist[u])
			for _, w := range adj[u] {
				if _, ok := dist[w]; !ok {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		if len(dist) != len(adj) {
			return -1
		}
		return far
	}
	ecc = bfs(slices.Min(s.P.Sets[i]))
	if ecc < 0 {
		return -1, -1
	}
	for v := range adj {
		diam = max(diam, bfs(v))
	}
	return diam, ecc
}
