package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract and must match BENCHMARK.json (checked by TestMetricsMatchManifest).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pipeline_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"rounds", "count", "lower"},
	{"quality", "count", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// stageLayers are the congest protocols the pipeline calls; each reports
// its self time, rounds, messages and allocation.
var stageLayers = []string{"elect", "bfs", "decompose", "search", "construct"}

// timedLayers are the span names reported as per-cycle self seconds.
var timedLayers = []string{
	"gen.csr", "graph.materialize", "graph.diameter", "partition.probe", "partition.parts",
	"graph.tree", "shortcut.measure", "mst.provider",
	"pipeline.selfsetup", "shortcut.maintain", "query.oracle",
	"query.warm", "query.serve", "shortcut.repair", "shortcut.reseat",
	"graph.kruskal", "graph.dijkstra", "bench.tracegen", "bench.gc",
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range stageLayers {
		defs = append(defs,
			metricDef{"congest." + s + "_s", "s", "lower"},
			metricDef{"congest." + s + "_rounds", "count", "lower"},
			metricDef{"congest." + s + "_messages", "count", "lower"},
			metricDef{"congest." + s + "_alloc_mb", "MB", "lower"})
	}
	for _, l := range timedLayers {
		defs = append(defs, metricDef{l + "_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"congest.search_guesses", "count", "lower"},
		metricDef{"congest.ns_per_round", "ns", "lower"},
		metricDef{"congest.ns_per_message", "ns", "lower"},
		metricDef{"pipeline.rounds_sim", "count", "lower"},
		metricDef{"pipeline.rounds_charged", "count", "lower"},
		metricDef{"pipeline.messages", "count", "lower"},
		metricDef{"mst.total_s", "s", "lower"},
		metricDef{"mst.self_s", "s", "lower"},
		metricDef{"mst.provider_calls", "count", "lower"},
		metricDef{"mst.phases", "count", "lower"},
		metricDef{"mst.rounds", "count", "lower"},
		metricDef{"mst.messages", "count", "lower"},
		metricDef{"query.warm_calls", "count", "lower"},
		metricDef{"query.sources_computed", "count", "lower"},
		metricDef{"query.warm_ms_per_source", "ms", "lower"},
		metricDef{"query.serve_ns_per_query", "ns", "lower"},
		metricDef{"query.hits_per_compute", "ratio", "higher"},
		metricDef{"query.hit_rate", "ratio", "higher"},
		metricDef{"query.rounds_per_query", "count", "lower"},
		metricDef{"query.invalidations", "count", "lower"},
		metricDef{"shortcut.repair_events", "count", "higher"},
		metricDef{"shortcut.refused_events", "count", "lower"},
		metricDef{"shortcut.tree_patches", "count", "lower"},
		metricDef{"shortcut.reseats", "count", "lower"},
		metricDef{"shortcut.dirty_vertices", "count", "lower"},
		metricDef{"shortcut.repair_rounds", "count", "lower"},
		metricDef{"trace.uncovered_frac", "ratio", "lower"},
		metricDef{"trace.pipeline_s", "s", "lower"},
		metricDef{"trace.op_p50_ms", "ms", "lower"},
	)
}()

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the definition of Python's statistics.quantiles with
// method="inclusive").
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
