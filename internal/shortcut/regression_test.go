package shortcut_test

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// TestNewRejectsForeignTree: a tree of a *different* graph must be rejected
// even when its edge IDs happen to be in range. Before the identity check,
// New consulted the foreign tree's edge set and silently accepted edges
// that are not tree edges of the network's own tree.
func TestNewRejectsForeignTree(t *testing.T) {
	g1 := gen.Grid(3, 3).G
	g2 := gen.Grid(3, 3).G // same shape, different object
	tr1, err := graph.BFSTree(g1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := graph.BFSTree(g2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.GridRows(g1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// An ID that is a tree edge of tr2 but not of tr1: accepted before the
	// identity check, must be an error now.
	foreign := -1
	for id := 0; id < g1.M(); id++ {
		if tr2.IsTreeEdge(id) && !tr1.IsTreeEdge(id) {
			foreign = id
			break
		}
	}
	if foreign == -1 {
		t.Fatal("no distinguishing edge between the two trees")
	}
	edges := make([][]int, p.NumParts())
	edges[0] = []int{foreign}
	if _, err := shortcut.New(g1, tr2, p, edges); err == nil {
		t.Fatal("accepted a tree belonging to a different graph")
	}
	// Foreign parts are equally invalid.
	p2, err := partition.GridRows(g2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shortcut.New(g1, tr1, p2, make([][]int, p2.NumParts())); err == nil {
		t.Fatal("accepted parts belonging to a different graph")
	}
}

// TestNewRejectsDuplicateEdges: duplicate edge IDs within a part's list are
// a caller bug New must surface, not silently normalize away (NewNormalized
// is the explicit opt-in for merge-style constructions).
func TestNewRejectsDuplicateEdges(t *testing.T) {
	g, tr, p := gridParts(t, 3, 3)
	id := tr.TreeEdgeIDs()[0]
	edges := make([][]int, p.NumParts())
	edges[0] = []int{id, id}
	if _, err := shortcut.New(g, tr, p, edges); err == nil {
		t.Fatal("accepted duplicate edge IDs")
	}
	s, err := shortcut.NewNormalized(g, tr, p, edges)
	if err != nil {
		t.Fatalf("NewNormalized rejected mergeable duplicates: %v", err)
	}
	if pe := s.PartEdges(); len(pe[0]) != 1 {
		t.Fatalf("normalized edges %v, want one copy", pe[0])
	}
}

// TestNewRejectsEmptyPart: an empty part (only constructible by hand —
// partition.New refuses them) previously flowed through to Measure, where
// its zero block count could masquerade as a perfectly-helped part.
func TestNewRejectsEmptyPart(t *testing.T) {
	g := gen.Grid(3, 3).G
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &partition.Parts{G: g, Sets: [][]int{{0, 1}, {}}, Of: make([]int, g.N())}
	for i := range p.Of {
		p.Of[i] = -1
	}
	p.Of[0], p.Of[1] = 0, 0
	if _, err := shortcut.New(g, tr, p, make([][]int, 2)); err == nil {
		t.Fatal("accepted an empty part")
	}
}

// TestAugmentedDiameterEmptyPartErrors: the empty part's augmented diameter
// used to come back 0 — indistinguishable from a singleton part that needs
// no help. It must be an explicit error (PR 2's DistributedBFS bug class),
// for the diameter and for the cap search's eccentricity probe alike.
func TestAugmentedDiameterEmptyPartErrors(t *testing.T) {
	g := gen.Grid(3, 3).G
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &partition.Parts{G: g, Sets: [][]int{{0, 1}, {}}, Of: make([]int, g.N())}
	for i := range p.Of {
		p.Of[i] = -1
	}
	p.Of[0], p.Of[1] = 0, 0
	// Bypass New (which now rejects the empty part) the way a hand-rolled
	// caller would.
	s := &shortcut.Shortcut{G: g, T: tr, P: p}
	if _, err := s.AugmentedDiameter(1); err == nil {
		t.Fatal("empty part reported a diameter instead of an error")
	}
	if _, err := s.AugmentedDiameter(7); err == nil {
		t.Fatal("out-of-range part reported a diameter instead of an error")
	}
	if _, err := s.AugmentedEcc(1); err == nil {
		t.Fatal("empty part reported an eccentricity instead of an error")
	}
	if _, err := s.AugmentedEcc(7); err == nil {
		t.Fatal("out-of-range part reported an eccentricity instead of an error")
	}
}

// TestAugmentedDiameterDisconnectedErrors: shortcut edges that never touch
// the part leave the augmented subgraph disconnected; that must surface as
// an error, not a raw sentinel the caller can mistake for a diameter or an
// eccentricity.
func TestAugmentedDiameterDisconnectedErrors(t *testing.T) {
	g := gen.Grid(3, 3).G
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(g, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	far := -1
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if tr.IsTreeEdge(id) && e.U != 0 && e.V != 0 && e.U != 1 && e.V != 1 {
			far = id
			break
		}
	}
	if far == -1 {
		t.Fatal("no tree edge away from the part")
	}
	s, err := shortcut.New(g, tr, p, [][]int{{far}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AugmentedDiameter(0); err == nil {
		t.Fatal("disconnected augmented subgraph reported a diameter")
	}
	if _, err := s.AugmentedEcc(0); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("disconnected augmented subgraph: eccentricity error %v, want ErrDisconnected", err)
	}
	if _, err := s.AugmentedEccs(); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("disconnected augmented subgraph: AugmentedEccs error %v, want ErrDisconnected", err)
	}
}
