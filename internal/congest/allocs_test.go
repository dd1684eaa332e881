package congest_test

import (
	"math"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// These tests are the dynamic half of the hotalloc story: the static
// analyzer (internal/analysis/hotalloc, run by cmd/congestlint) proves the
// round kernels contain no allocating expressions, and these pins prove
// the whole-run allocation count is a flat setup constant — far below one
// allocation per node-round. A kernel regression allocates per node per
// round, so it overshoots each pin by orders of magnitude (the tests
// assert node-rounds exceed the pin to keep that cross-check meaningful).

// pinAllocs runs fn through testing.AllocsPerRun and checks the ceiling
// and the node-rounds dominance that makes the ceiling a kernel check.
func pinAllocs(t *testing.T, name string, ceiling float64, nodeRounds int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	fn() // warm lazy state so the pin measures steady-state runs
	allocs := testing.AllocsPerRun(8, fn)
	if allocs > ceiling {
		t.Errorf("%s allocates %.0f objects per run; pinned ceiling is %.0f — a round kernel is allocating", name, allocs, ceiling)
	}
	if float64(nodeRounds) < ceiling {
		t.Errorf("%s: node-rounds %d below the %.0f ceiling; grow the instance so a per-node-round allocation cannot hide in the slack", name, nodeRounds, ceiling)
	}
}

// TestPipecastAllocsFlat pins the Pipecast kernel: one run's allocations
// are its setup slabs (tag lists, accumulators, ring state), not
// O(node-rounds) objects.
func TestPipecastAllocsFlat(t *testing.T) {
	rng := xrand.New(7)
	g := gen.ErdosRenyiConnected(64, 200, rng)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	const numTags = 4096
	contrib := randomContrib(g.N(), numTags, rng)
	var stats congest.Stats
	run := func() {
		res, err := congest.Pipecast(tr, numTags, contrib, congest.CombineSum)
		if err != nil {
			t.Fatal(err)
		}
		stats = res.Stats
	}
	run()
	pinAllocs(t, "Pipecast", 320, g.N()*stats.Rounds, run)
}

// TestConstructShortcutAllocsFlat pins the flooding-construction kernel
// in simulate mode.
func TestConstructShortcutAllocsFlat(t *testing.T) {
	g := gen.Wheel(129).G
	p, err := partition.RimArcs(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	var stats congest.Stats
	run := func() {
		res, err := congest.ConstructShortcut(g, tr, p, congest.ConstructOptions{Cap: 8, Simulate: true})
		if err != nil {
			t.Fatal(err)
		}
		stats = res.Stats
	}
	run()
	pinAllocs(t, "ConstructShortcut", 1100, g.N()*stats.Rounds, run)
}

// TestRelaxPartwiseAllocsFlat pins the part-wise relaxation kernel on a
// reused Relaxer (the channel view is built once; each Relax call builds
// only its per-phase slabs).
func TestRelaxPartwiseAllocsFlat(t *testing.T) {
	rng := xrand.New(11)
	g := gen.UniformWeights(gen.Wheel(129).G, rng)
	p, err := partition.RimArcs(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	relaxer := congest.NewRelaxer(g, p, s)
	weights := make([]float64, g.M())
	for id := range weights {
		weights[id] = g.Edge(id).W
	}
	init := make([]float64, g.N())
	for v := range init {
		init[v] = math.Inf(1)
	}
	init[0] = 0
	var stats congest.Stats
	run := func() {
		res, err := relaxer.Relax(weights, init)
		if err != nil {
			t.Fatal(err)
		}
		stats = res.Stats
	}
	run()
	pinAllocs(t, "Relaxer.Relax", 96, g.N()*stats.Rounds, run)
}

// TestBatchRelaxAllocsFlat pins the batched k-source relaxation kernel on
// a reused BatchRelaxer: one run's allocations are its setup slabs (the
// k×n distance planes, dirty bits), not O(node-rounds)
// objects — the zero-allocs-per-round claim of the query-serving layer's
// miss path.
func TestBatchRelaxAllocsFlat(t *testing.T) {
	rng := xrand.New(17)
	g := gen.UniformWeights(gen.Wheel(129).G, rng)
	p, err := partition.RimArcs(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	relaxer := congest.NewBatchRelaxer(g, p, s)
	weights := make([]float64, g.M())
	for id := range weights {
		weights[id] = g.Edge(id).W
	}
	const k = 8
	init := make([][]float64, k)
	for i := range init {
		init[i] = make([]float64, g.N())
		for v := range init[i] {
			init[i][v] = math.Inf(1)
		}
		init[i][(i*11)%g.N()] = 0
	}
	var stats congest.Stats
	run := func() {
		res, err := relaxer.Relax(weights, init)
		if err != nil {
			t.Fatal(err)
		}
		stats = res.Stats
	}
	run()
	pinAllocs(t, "BatchRelaxer.Relax", 224, g.N()*stats.Rounds, run)
}
