package congest

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestTreeSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		g := gen.ErdosRenyiConnected(20+rng.Intn(40), 100, rng)
		tr, err := graph.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]uint64, g.N())
		var want uint64
		for v := range values {
			values[v] = uint64(rng.Intn(1000))
			want += values[v]
		}
		got, stats, err := TreeSum(tr, values)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sum %d want %d", got, want)
		}
		if stats.Messages != g.N()-1 {
			t.Fatalf("convergecast used %d messages, want n-1=%d", stats.Messages, g.N()-1)
		}
	}
}

// TestTreeMax pins the maximum convergecast SearchCap measures a
// constructed shortcut's congestion with.
func TestTreeMax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		g := gen.ErdosRenyiConnected(20+rng.Intn(40), 100, rng)
		tr, err := graph.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]uint64, g.N())
		var want uint64
		for v := range values {
			values[v] = uint64(rng.Intn(1000))
			if values[v] > want {
				want = values[v]
			}
		}
		got, stats, err := treeCombine(tr, values, CombineMax, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("max %d want %d", got, want)
		}
		if stats.Messages != g.N()-1 {
			t.Fatalf("convergecast used %d messages, want n-1=%d", stats.Messages, g.N()-1)
		}
	}
}

func TestTreeSumLengthMismatch(t *testing.T) {
	g := gen.Path(4)
	tr, _ := graph.BFSTree(g, 0)
	if _, _, err := TreeSum(tr, []uint64{1}); err == nil {
		t.Fatal("accepted short value slice")
	}
}
