package shortcut_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

func gridParts(t *testing.T, rows, cols int) (*graph.Graph, *graph.Tree, *partition.Parts) {
	t.Helper()
	e := gen.Grid(rows, cols)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.GridRows(e.G, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return e.G, tr, p
}

func TestNewRejectsNonTreeEdges(t *testing.T) {
	g, tr, p := gridParts(t, 3, 3)
	// Find a non-tree edge.
	nonTree := -1
	for id := 0; id < g.M(); id++ {
		if !tr.IsTreeEdge(id) {
			nonTree = id
			break
		}
	}
	if nonTree == -1 {
		t.Fatal("no non-tree edge in grid")
	}
	edges := make([][]int, p.NumParts())
	edges[0] = []int{nonTree}
	if _, err := shortcut.New(g, tr, p, edges); err == nil {
		t.Fatal("accepted non-tree shortcut edge")
	}
}

func TestEmptyShortcutMeasurement(t *testing.T) {
	g, tr, p := gridParts(t, 4, 5)
	s := shortcut.Empty(g, tr, p)
	m := s.Measure()
	if m.Congestion != 0 {
		t.Fatalf("congestion %d", m.Congestion)
	}
	// With no help each row of length 5 has 5 singleton blocks.
	for i, b := range m.Blocks {
		if b != 5 {
			t.Fatalf("part %d blocks %d want 5", i, b)
		}
	}
	if m.MaxBlocks != 5 {
		t.Fatalf("max blocks %d", m.MaxBlocks)
	}
	if m.Quality != m.MaxBlocks*m.TreeDiameter+0 {
		t.Fatalf("quality %d", m.Quality)
	}
}

func TestWholeTreeShortcut(t *testing.T) {
	g, tr, p := gridParts(t, 4, 4)
	all := make([][]int, p.NumParts())
	for i := range all {
		all[i] = tr.TreeEdgeIDs()
	}
	s, err := shortcut.New(g, tr, p, all)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Measure()
	if m.MaxBlocks != 1 {
		t.Fatalf("whole-tree blocks %d want 1", m.MaxBlocks)
	}
	if m.Congestion != p.NumParts() {
		t.Fatalf("congestion %d want %d", m.Congestion, p.NumParts())
	}
	// Augmented diameter of any part is at most the tree diameter.
	for i := 0; i < p.NumParts(); i++ {
		d, err := s.AugmentedDiameter(i)
		if err != nil {
			t.Fatal(err)
		}
		if d > 2*tr.Height() {
			t.Fatalf("augmented diameter %d exceeds tree diameter", d)
		}
	}
}

func TestBlockCountsDefinition(t *testing.T) {
	// Path graph 0-1-2-3-4, one part {0,4}... not connected; use {0,1,3,4}?
	// Parts must be connected; use part {1,2,3} with a shortcut covering
	// only edge {1,2}: blocks must be 2 ({1,2} and singleton {3}).
	g := gen.Path(5)
	tr, _ := graph.BFSTree(g, 0)
	p, err := partition.New(g, [][]int{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := shortcut.New(g, tr, p, [][]int{{1}}) // edge 1 = {1,2}
	if err != nil {
		t.Fatal(err)
	}
	if b := s.Measure().Blocks[0]; b != 2 {
		t.Fatalf("blocks %d want 2", b)
	}
}

func TestUnionMergesAssignments(t *testing.T) {
	g, tr, p := gridParts(t, 3, 4)
	ids := tr.TreeEdgeIDs()
	a := make([][]int, p.NumParts())
	b := make([][]int, p.NumParts())
	a[0] = []int{ids[0]}
	b[0] = []int{ids[0], ids[1]}
	b[1] = []int{ids[2]}
	union := make([][]int, p.NumParts())
	for i := range union {
		union[i] = append(append(union[i], a[i]...), b[i]...)
	}
	s, err := shortcut.NewNormalized(g, tr, p, union)
	if err != nil {
		t.Fatal(err)
	}
	if pe := s.PartEdges(); len(pe[0]) != 2 || len(pe[1]) != 1 {
		t.Fatalf("union wrong: %v", pe[:2])
	}
}

func TestObliviousRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, budget := range []int{1, 2, 4, 8} {
		e := gen.Grid(8, 8)
		tr, _ := graph.BFSTree(e.G, 0)
		p, err := partition.Voronoi(e.G, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		s := shortcut.Oblivious(e.G, tr, p, budget)
		m := s.Measure()
		if m.Congestion > budget {
			t.Fatalf("budget %d exceeded: congestion %d", budget, m.Congestion)
		}
	}
}

func TestObliviousImprovesOverEmpty(t *testing.T) {
	e := gen.Grid(10, 10)
	tr, _ := graph.BFSTree(e.G, 0)
	p, err := partition.GridRows(e.G, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	empty := shortcut.Empty(e.G, tr, p).Measure()
	s, m := shortcut.ObliviousAuto(e.G, tr, p)
	if m.Quality >= empty.Quality {
		t.Fatalf("oblivious quality %d no better than empty %d", m.Quality, empty.Quality)
	}
	if s == nil {
		t.Fatal("nil shortcut")
	}
}

func TestFromTreewidthOnKTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{2, 3, 5} {
		kt := gen.KTree(200, k, rng)
		tr, err := graph.BFSTree(kt.G, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := partition.Voronoi(kt.G, 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := shortcut.FromTreewidth(kt.G, tr, p, kt.Decomp)
		if err != nil {
			t.Fatal(err)
		}
		m := res.S.Measure()
		// Theorem 5 shape: blocks O(k), congestion O(k·depth).
		foldedK := res.FoldedWidth + 1
		if m.MaxBlocks > 2*foldedK+3 {
			t.Fatalf("k=%d: blocks %d exceed O(k) bound %d", k, m.MaxBlocks, 2*foldedK+3)
		}
		if m.Congestion > foldedK*(res.FoldedHeight+1) {
			t.Fatalf("k=%d: congestion %d exceeds (k+1)·depth %d", k, m.Congestion, foldedK*(res.FoldedHeight+1))
		}
	}
}

func TestFromTreewidthBoruvkaFragments(t *testing.T) {
	// The realistic use: parts are Borůvka fragments mid-MST.
	rng := rand.New(rand.NewSource(3))
	kt := gen.KTree(300, 3, rng)
	gen.UniformWeights(kt.G, rng)
	for phases := 1; phases <= 3; phases++ {
		p, err := partition.BoruvkaFragments(kt.G, phases)
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := graph.BFSTree(kt.G, 0)
		res, err := shortcut.FromTreewidth(kt.G, tr, p, kt.Decomp)
		if err != nil {
			t.Fatal(err)
		}
		m := res.S.Measure()
		foldedK := res.FoldedWidth + 1
		if m.MaxBlocks > 2*foldedK+3 {
			t.Fatalf("phases=%d: blocks %d", phases, m.MaxBlocks)
		}
	}
}

func TestFromTreewidthSinglePartGetsConnected(t *testing.T) {
	// A single part spanning the whole graph should end up with few blocks
	// (the whole region is under the root bag).
	rng := rand.New(rand.NewSource(4))
	kt := gen.KTree(100, 2, rng)
	all := make([]int, kt.G.N())
	for i := range all {
		all[i] = i
	}
	p, err := partition.New(kt.G, [][]int{all})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := graph.BFSTree(kt.G, 0)
	res, err := shortcut.FromTreewidth(kt.G, tr, p, kt.Decomp)
	if err != nil {
		t.Fatal(err)
	}
	if b := res.S.Measure().Blocks[0]; b != 1 {
		t.Fatalf("whole-graph part has %d blocks, want 1 (gets entire tree)", b)
	}
}

func TestAugmentedDiameterBound(t *testing.T) {
	// Framework promise: diam(G[P]+H) = O(b·d_T) — verify with constant 3
	// (2 for tree diameter, 1 slack for block hops).
	rng := rand.New(rand.NewSource(5))
	kt := gen.KTree(150, 3, rng)
	tr, _ := graph.BFSTree(kt.G, 0)
	p, err := partition.Voronoi(kt.G, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shortcut.FromTreewidth(kt.G, tr, p, kt.Decomp)
	if err != nil {
		t.Fatal(err)
	}
	blocks := res.S.Measure().Blocks
	for i := 0; i < p.NumParts(); i++ {
		d, err := res.S.AugmentedDiameter(i)
		if err != nil {
			// Dangling shortcut segments (tree edges that never reach the
			// part) leave the augmented subgraph disconnected; the whole-
			// subgraph diameter is undefined there — previously this case
			// returned -1 and passed the bound check vacuously.
			continue
		}
		bound := 3 * (blocks[i] + 1) * (2*tr.Height() + 1)
		if d > bound {
			t.Fatalf("part %d: augmented diameter %d exceeds %d (b=%d)", i, d, bound, blocks[i])
		}
	}
}
