package mst_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
)

// TestFloodProviderLedgerConsistency pins the provider layer against the
// PR 2 min-cut ledger-mixing bug class: a provider's construction rounds
// must land exclusively in the ledger matching its mode — Rounds.Simulated
// (measured on the engine) for simulate runs, Rounds.Charged (framework
// budget) for analytic runs — both at the provider itself and after the
// Borůvka loop books them.
func TestFloodProviderLedgerConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(6, 6).G, rng))
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Voronoi(g, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, simulate := range []bool{false, true} {
		s, cost, err := pipeline.Flood(g, tr, 2, simulate)(p)
		if err != nil {
			t.Fatalf("simulate=%v: %v", simulate, err)
		}
		if s == nil {
			t.Fatalf("simulate=%v: no shortcut", simulate)
		}
		if simulate {
			if cost.Simulated <= 0 || cost.Charged != 0 {
				t.Fatalf("simulate=true: cost %+v not exclusively in the simulated ledger", cost)
			}
		} else {
			if cost.Charged != congest.ConstructBudget(tr, 2) || cost.Simulated != 0 {
				t.Fatalf("simulate=false: cost %+v, want charged=%d simulated=0", cost, congest.ConstructBudget(tr, 2))
			}
		}
		rs, err := mst.ShortcutBoruvka(g, pipeline.Flood(g, tr, 2, simulate))
		if err != nil {
			t.Fatalf("simulate=%v: %v", simulate, err)
		}
		if simulate && rs.ChargedRounds != 0 {
			t.Fatalf("simulate=true run leaked %d rounds into ChargedRounds", rs.ChargedRounds)
		}
		if !simulate && rs.ChargedRounds <= 0 {
			t.Fatal("simulate=false run booked no construction charge")
		}
		if rs.CommRounds <= 0 {
			t.Fatalf("simulate=%v: no communication rounds", simulate)
		}
	}
}

// TestFloodProviderExactMST: Borůvka over in-network flooding-constructed
// shortcuts still produces the exact MST, in both construction ledgers.
func TestFloodProviderExactMST(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.DistinctWeights(gen.UniformWeights(gen.Grid(6, 6).G, rng))},
		{"wheel", gen.DistinctWeights(gen.UniformWeights(gen.Wheel(33).G, rng))},
		{"random", gen.DistinctWeights(gen.UniformWeights(gen.ErdosRenyiConnected(60, 150, rng), rng))},
	}
	for _, tc := range cases {
		for _, simulate := range []bool{false, true} {
			tr, err := graph.BFSTree(tc.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := mst.ShortcutBoruvka(tc.g, pipeline.Flood(tc.g, tr, 3, simulate))
			if err != nil {
				t.Fatalf("%s simulate=%v: %v", tc.name, simulate, err)
			}
			assertExactMST(t, tc.g, rs)
			if simulate && rs.ChargedRounds != 0 {
				t.Fatalf("%s simulate=true: measured construction leaked %d rounds into the charged ledger", tc.name, rs.ChargedRounds)
			}
			if !simulate && rs.ChargedRounds <= 0 {
				t.Fatalf("%s simulate=false: no construction charge recorded", tc.name)
			}
		}
	}
}

// TestShortcutBoruvkaIncompleteSurfaces: a run that halts with multiple
// fragments left (here: a disconnected graph under a hand-built provider)
// must report ErrIncomplete instead of silently returning the partial
// forest as if it were the MST.
func TestShortcutBoruvkaIncompleteSurfaces(t *testing.T) {
	// Two disjoint triangles.
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(0, 2, 3)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 2)
	g.AddEdge(3, 5, 3)
	// BFSTree refuses disconnected graphs, so hand-build the spanning-forest
	// overlay a careless caller would: parents within each triangle.
	tree := &graph.Tree{
		G:          g,
		Root:       0,
		Parent:     []int{-1, 0, 0, -1, 3, 3},
		ParentEdge: []int{-1, 0, 2, -1, 3, 5},
		Depth:      []int{0, 1, 1, 0, 1, 1},
		Order:      []int{0, 1, 2, 3, 4, 5},
		Children:   [][]int{{1, 2}, {}, {}, {4, 5}, {}, {}},
	}
	provider := func(p *partition.Parts) (*shortcut.Shortcut, pipeline.Rounds, error) {
		return shortcut.Empty(g, tree, p), pipeline.Rounds{}, nil
	}
	_, err := mst.ShortcutBoruvka(g, provider)
	if err == nil {
		t.Fatal("disconnected run returned a partial forest as a completed MST")
	}
	if !errors.Is(err, congest.ErrIncomplete) {
		t.Fatalf("error %v does not wrap congest.ErrIncomplete", err)
	}
}
