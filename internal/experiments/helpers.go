package experiments

import (
	"fmt"
	"strings"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// aggregate runs one part-wise min aggregation and returns the effective
// round count.
func aggregate(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut, keys []uint64) (int, error) {
	res, err := congest.AggregateMin(g, p, s, keys)
	if err != nil {
		return 0, err
	}
	return res.EffectiveRounds, nil
}

// Runner is one experiment table's registry entry: the single place its
// sweep sizes live. cmd/allbench (-table, -big), BenchmarkTables and the
// smoke tests all regenerate tables through it.
type Runner struct {
	ID string
	// Metric is the headline column the benchmark reports from the last
	// row; Unit is that metric's unit.
	Metric, Unit string
	// Run regenerates the table at its default, bench-friendly sizes.
	Run func(seed int64) *Table
	// Big regenerates the larger sweep; nil when it equals the default.
	Big func(seed int64) *Table
}

// Table regenerates r's table: the larger sweep when big is set and r has
// one, else the default.
func (r Runner) Table(seed int64, big bool) *Table {
	if big && r.Big != nil {
		return r.Big(seed)
	}
	return r.Run(seed)
}

// Runners returns every experiment table's registry entry, in ID order.
func Runners() []Runner {
	return []Runner{
		{ID: "E1", Metric: "q_tw", Unit: "quality",
			Run: func(seed int64) *Table { return E1PlanarQuality([]int{6, 10, 14, 18}, seed) },
			Big: func(seed int64) *Table { return E1PlanarQuality([]int{6, 10, 14, 18, 24}, seed) }},
		{ID: "E2", Metric: "blocks", Unit: "blocks",
			Run: func(seed int64) *Table { return E2Treewidth(400, []int{2, 3, 4, 6}, seed) },
			Big: func(seed int64) *Table { return E2Treewidth(400, []int{2, 3, 4, 6, 8}, seed) }},
		{ID: "E3", Metric: "quality", Unit: "quality",
			Run: func(seed int64) *Table { return E3CliqueSum([]int{2, 4, 8, 12}, 18, 3, seed) },
			Big: func(seed int64) *Table { return E3CliqueSum([]int{2, 4, 8, 12, 16}, 18, 3, seed) }},
		{ID: "E4", Metric: "quality", Unit: "quality",
			Run: func(seed int64) *Table { return E4AlmostEmbeddable(seed) }},
		{ID: "E5", Metric: "quality", Unit: "quality",
			Run: func(seed int64) *Table { return E5Main([]int{2, 4, 8, 16}, seed) },
			Big: func(seed int64) *Table { return E5Main([]int{2, 4, 8, 16, 24}, seed) }},
		{ID: "E6", Metric: "r_shortcut", Unit: "rounds",
			Run: func(seed int64) *Table { return E6MST([]int{64, 128, 256, 512}, seed) }},
		{ID: "E6b", Metric: "r_witness", Unit: "rounds",
			Run: func(seed int64) *Table { return E6bMSTExcludedMinor([]int{2, 4, 8}, seed) },
			Big: func(seed int64) *Table { return E6bMSTExcludedMinor([]int{2, 4, 8, 16}, seed) }},
		{ID: "E6c", Metric: "rounds_shortcut", Unit: "rounds",
			Run: func(seed int64) *Table { return AggregationShowcase([]int{16, 32, 64, 128}, seed) }},
		{ID: "E7", Metric: "ratio", Unit: "ratio",
			Run: func(seed int64) *Table { return E7MinCut([]int{40, 80, 160}, seed) },
			Big: func(seed int64) *Table { return E7MinCut([]int{40, 80, 160, 320, 640}, seed) }},
		{ID: "E8", Metric: "quality", Unit: "quality",
			Run: func(seed int64) *Table { return E8LowerBound([]int{4, 8, 12, 16}, seed) },
			Big: func(seed int64) *Table { return E8LowerBound([]int{4, 8, 12, 16, 20}, seed) }},
		{ID: "E8b", Metric: "r_oblivious", Unit: "rounds",
			Run: func(seed int64) *Table { return E8bLowerBoundMST([]int{4, 6, 8}, seed) },
			Big: func(seed int64) *Table { return E8bLowerBoundMST([]int{4, 6, 8, 12}, seed) }},
		{ID: "E9", Metric: "speedup", Unit: "speedup",
			Run: func(seed int64) *Table { return E9SSSP([]int{64, 128, 256, 512}, []int{32, 64, 128, 256}, seed) },
			Big: func(seed int64) *Table {
				return E9SSSP([]int{64, 128, 256, 512, 1024, 2048}, []int{32, 64, 128, 256, 512, 1024}, seed)
			}},
		{ID: "E10", Metric: "c_folded", Unit: "congestion",
			Run: func(seed int64) *Table { return E10FoldingAblation([]int{8, 16, 32, 64}, seed) }},
		{ID: "E11", Metric: "q_apexAware", Unit: "quality",
			Run: func(seed int64) *Table { return E11ApexEffect([]int{32, 64, 128}, seed) },
			Big: func(seed int64) *Table { return E11ApexEffect([]int{32, 64, 128, 256}, seed) }},
		{ID: "E12", Metric: "cut_n", Unit: "vertices",
			Run: func(seed int64) *Table { return E12Planarize([]int{0, 1, 2, 3}, seed) }},
		{ID: "E13", Metric: "ratio", Unit: "ratio",
			Run: func(seed int64) *Table {
				return E13Construct([]int{6, 10, 14}, []int{32, 64}, []int{2, 4, 8, 16}, seed)
			},
			Big: func(seed int64) *Table {
				return E13Construct([]int{6, 10, 14, 18, 24}, []int{32, 64, 128, 256}, []int{2, 4, 8, 16, 32}, seed)
			}},
		{ID: "E14", Metric: "ratio", Unit: "ratio",
			Run: func(seed int64) *Table { return E14Pipeline([]int{6, 10, 14}, []int{32, 64}, []int{2, 4, 8, 16}, seed) },
			Big: func(seed int64) *Table {
				return E14Pipeline([]int{6, 10, 14, 18, 24}, []int{32, 64, 128, 256}, []int{2, 4, 8, 16, 32}, seed)
			}},
		{ID: "E15", Metric: "speedup", Unit: "speedup",
			Run: func(seed int64) *Table { return E15Pipecast([]int{6, 10, 14}, []int{32, 64}, []int{2, 4, 8, 16}, seed) },
			Big: func(seed int64) *Table {
				return E15Pipecast([]int{6, 10, 14, 18, 24}, []int{32, 64, 128, 256}, []int{2, 4, 8, 16, 32}, seed)
			}},
		{ID: "E18", Metric: "ratio", Unit: "ratio",
			Run: func(seed int64) *Table { return E18Churn([]int{6, 10, 14}, []int{32, 64}, []int{2, 4}, 40, seed) },
			Big: func(seed int64) *Table {
				return E18Churn([]int{6, 10, 14, 18, 24}, []int{32, 64, 128}, []int{2, 4, 8}, 40, seed)
			}},
		// The registry runs E19 with wallclock off (qps prints "-") so
		// tables stay deterministic; e19_test.go pins the throughput bar.
		{ID: "E19", Metric: "speedup", Unit: "speedup",
			Run: func(seed int64) *Table { return E19Query([]int{10}, []int{64}, []int{8}, 9999, 20000, false, seed) },
			Big: func(seed int64) *Table {
				return E19Query([]int{10, 14}, []int{64, 128}, []int{8, 12}, 19999, 20000, false, seed)
			}},
	}
}

// Select returns the registry entries with the given IDs (case as listed
// — "E6c", "E15"), in the order given; an unknown ID is an error naming
// every valid one.
func Select(ids ...string) ([]Runner, error) {
	all := Runners()
	out := make([]Runner, 0, len(ids))
next:
	for _, id := range ids {
		for _, r := range all {
			if r.ID == id {
				out = append(out, r)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown table %q; valid IDs: %s", id, strings.Join(IDs(), ", "))
	}
	return out, nil
}

// IDs lists every experiment table ID in order.
func IDs() []string {
	rs := Runners()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// Tables regenerates the given runners' tables (the larger sweeps when big
// is set) and returns them in order. The tables build concurrently (each
// one also parallelizes its own grid points); results are deterministic
// either way.
func Tables(runners []Runner, seed int64, big bool) []*Table {
	return forEachPoint(len(runners), func(i int) *Table { return runners[i].Table(seed, big) })
}

// All runs every experiment at its default sizes and returns the tables in
// ID order.
func All(seed int64) []*Table { return Tables(Runners(), seed, false) }
