package shortcut

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

func pathWithTree(t *testing.T, n int) (*graph.Graph, *graph.Tree, *partition.Parts) {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]int{make([]int, n)}
	for i := range sets[0] {
		sets[0][i] = i
	}
	p, err := partition.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr, p
}

// A union of two assignments is their PartEdges views concatenated and
// normalized through NewNormalized. The views are fresh copies and the
// store is private, so mutating a merged list afterwards must reach
// neither the union nor its inputs.
func TestUnionWithEmptyOtherClones(t *testing.T) {
	g, tr, p := pathWithTree(t, 6)
	s1, err := New(g, tr, p, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	s2 := Empty(g, tr, p)
	merged := s1.PartEdges()
	for i, ids := range s2.PartEdges() {
		merged[i] = append(merged[i], ids...)
	}
	u, err := NewNormalized(g, tr, p, merged)
	if err != nil {
		t.Fatal(err)
	}
	merged[0][0] = 4 // in-place mutation of the merged lists
	if got := s1.PartEdges()[0]; !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("input shortcut changed to %v through the merged lists", got)
	}
	if got := u.PartEdges()[0]; !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("union changed to %v through the merged lists", got)
	}
	if got := u.EdgeParts(0); !slices.Equal(got, []int32{0}) {
		t.Fatalf("edge 0 parts %v, want [0]", got)
	}
}
