package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
)

// smallWorkloads mirrors workloads() at test sizes.
func smallWorkloads() []workload {
	serve := serveSpec{rim: 600, parts: 16, eps: 0.125, zipfS: 1.5, windows: 40, window: 64}
	churn := serve
	churn.churnEvery, churn.churnBatch = 4, 2
	return []workload{
		{name: "grid-analytic", pipeline: &pipelineSpec{family: "grid", n: 900}, census: 3},
		{name: "chain-simulate", pipeline: &pipelineSpec{family: "chain", n: 256, simulate: true}, census: 3},
		{name: "serve-zipf", serve: &serve, census: 1},
		{name: "serve-churn", serve: &churn, census: 1},
	}
}

// TestParityWithScalePipeline proves the benchmark drives the same program
// as experiments.ScalePipeline: at the scale harness's weight seed 2018,
// the benchmark's stage sequence reproduces its cap, quality, MST, and
// every stage's round and message ledger exactly.
func TestParityWithScalePipeline(t *testing.T) {
	for _, tc := range []struct {
		spec pipelineSpec
		mode experiments.ScaleMode
	}{
		{pipelineSpec{family: "grid", n: 1600}, experiments.ScaleAnalytic},
		{pipelineSpec{family: "chain", n: 384, simulate: true}, experiments.ScaleSimulate},
	} {
		t.Run(tc.spec.family, func(t *testing.T) {
			want, err := experiments.ScalePipeline(tc.spec.family, tc.spec.n, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(false)
			in, err := setupPipeline(tr, tc.spec, 2018)
			if err != nil {
				t.Fatal(err)
			}
			got, err := buildPipeline(tr, tc.spec, in)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMST(in.csr, got); err != nil {
				t.Fatal(err)
			}
			if in.diamBound != 2*want.Diameter+2 || got.Parts != want.Parts || got.Cap != want.Cap || got.Quality != want.Quality {
				t.Errorf("diamBound/parts/cap/quality = %d/%d/%d/%d, ScalePipeline %d/%d/%d/%d",
					in.diamBound, got.Parts, got.Cap, got.Quality, 2*want.Diameter+2, want.Parts, want.Cap, want.Quality)
			}
			if len(got.MSTEdges) != want.MSTEdges || got.MSTWeight != want.MSTWeight || got.MSTPhases != want.MSTPhases {
				t.Errorf("MST edges/weight/phases = %d/%g/%d, ScalePipeline %d/%g/%d",
					len(got.MSTEdges), got.MSTWeight, got.MSTPhases, want.MSTEdges, want.MSTWeight, want.MSTPhases)
			}
			stages := want.Stages[1:] // ScalePipeline's first stage is generation
			if len(stages) != len(got.Stages) {
				t.Fatalf("%d stages, ScalePipeline %d", len(got.Stages), len(stages))
			}
			for i, s := range stages {
				g := got.Stages[i]
				if g.Name != s.Name || g.Simulated != s.Simulated || g.Charged != s.Charged || g.Messages != s.Messages {
					t.Errorf("stage %+v, ScalePipeline %s sim=%d chg=%d msgs=%d", g, s.Name, s.Simulated, s.Charged, s.Messages)
				}
			}
		})
	}
}

// deterministic reports whether a metric is a count the seed alone fixes.
func deterministic(d metricDef) bool {
	return (d.unit == "count" || d.unit == "ratio") && !strings.HasPrefix(d.name, "trace.")
}

func deterministicMetrics(t *testing.T, w workload, seed int64) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, trace := range []bool{false, true} {
		res, _, err := execute(w, seed, 0, trace)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("seed %d trace %t: correct=%t attempted=%d failed=%d", seed, trace, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range append(endToEnd, perLayer...) {
			if v, ok := res.Metrics[d.name]; ok && deterministic(d) {
				out[d.name] = v.Value
			}
		}
	}
	return out
}

// TestDeterminism checks that every deterministic metric repeats exactly
// for one seed, across runs and across GOMAXPROCS=1 and nproc, and that a
// second seed changes them.
func TestDeterminism(t *testing.T) {
	for _, w := range smallWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			first := deterministicMetrics(t, w, 11)
			again := deterministicMetrics(t, w, 11)
			prev := runtime.GOMAXPROCS(1)
			single := deterministicMetrics(t, w, 11)
			runtime.GOMAXPROCS(prev)
			for name, v := range first {
				if again[name] != v || single[name] != v {
					t.Errorf("%s: %g, then %g, then %g at GOMAXPROCS=1", name, v, again[name], single[name])
				}
			}
			other := deterministicMetrics(t, w, 12)
			differ := false
			for name, v := range first {
				differ = differ || other[name] != v
			}
			if !differ {
				t.Errorf("seeds 11 and 12 give identical metrics %v", first)
			}
		})
	}
}

// TestMetricsMatchManifest checks that BENCHMARK.json lists exactly the
// workloads and metrics the program reports, with the same units and
// directions, and that a traced run reports every per-layer metric with
// span self times covering the run.
func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(manifest.Workloads) != len(ws) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(manifest.Workloads), len(ws))
	}
	for i, w := range manifest.Workloads {
		if i < len(ws) && w.Name != ws[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, ws[i].name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit, Better string }
		defs   []metricDef
	}{{manifest.EndToEnd, endToEnd}, {manifest.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.listed), len(c.defs))
			continue
		}
		for i, m := range c.listed {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("BENCHMARK.json metric %+v, program %+v", m, d)
			}
		}
	}

	var m struct {
		Layers []struct {
			Metric     string
			Moves, On  []string
			NoChangeOn []string `json:"no_change_on"`
		}
	}
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range append(endToEnd, perLayer...) {
		known[d.name] = true
	}
	for _, w := range ws {
		known[w.name] = true
	}
	for _, l := range m.Layers {
		for _, name := range append(append(append([]string{l.Metric}, l.Moves...), l.On...), l.NoChangeOn...) {
			if !known[name] {
				t.Errorf("meta.json entry for %s names unknown %q", l.Metric, name)
			}
		}
	}

	res, tr, err := execute(smallWorkloads()[3], 5, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("traced run lacks %s", d.name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if f := res.Metrics["trace.uncovered_frac"].Value; f > 0.05 {
		t.Errorf("spans leave %.1f%% of the run uncovered", 100*f)
	}
	for name := range tr.selfTimes() {
		if name == "run" || strings.HasPrefix(name, "congest.") || name == "mst.total" {
			continue
		}
		if _, ok := res.Metrics[name+"_s"]; !ok {
			t.Errorf("span %s has no per-layer time metric", name)
		}
	}
}

// TestChecksCatchWrongOutputs holds the correctness gates to a wrong MST
// and a distance outside the (1+ε) band.
func TestChecksCatchWrongOutputs(t *testing.T) {
	spec := pipelineSpec{family: "grid", n: 400}
	tr := newTracer(false)
	in, err := setupPipeline(tr, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := buildPipeline(tr, spec, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMST(in.csr, out); err != nil {
		t.Fatal(err)
	}
	out.MSTEdges[0]++
	if checkMST(in.csr, out) == nil {
		t.Error("checkMST accepted a wrong edge")
	}

	d := bellmanFord(in.g)[5]
	if err := checkAnswer(in.g, 0, 5, d, 0.1); err != nil {
		t.Error(err)
	}
	for _, bad := range []float64{0.99 * d, 1.11 * d, math.NaN()} {
		if checkAnswer(in.g, 0, 5, bad, 0.1) == nil {
			t.Errorf("checkAnswer accepted %g", bad)
		}
	}
}

// bellmanFord returns exact distances from vertex 0: an oracle
// independent of Dijkstra.
func bellmanFord(g *graph.Graph) []float64 {
	d := make([]float64, g.N())
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[0] = 0
	for changed := true; changed; {
		changed = false
		for _, e := range g.Edges() {
			if d[e.U]+e.W < d[e.V] {
				d[e.V], changed = d[e.U]+e.W, true
			}
			if d[e.V]+e.W < d[e.U] {
				d[e.U], changed = d[e.V]+e.W, true
			}
		}
	}
	return d
}

// TestSelfTimes checks the span arithmetic: a parent's self time and
// allocation exclude its children's.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(true)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	sink = make([]byte, 1<<20)
	tr.end(inner)
	tr.end(outer)
	self := tr.selfTimes()
	o, i := tr.spans[outer], tr.spans[inner]
	if got, want := self["outer"].NS, (o.EndNS-o.StartNS)-(i.EndNS-i.StartNS); got != want {
		t.Errorf("outer self %d ns, want %d", got, want)
	}
	if self["inner"].Bytes < 1<<20 || self["outer"].Bytes >= 1<<20 {
		t.Errorf("self bytes inner=%d outer=%d", self["inner"].Bytes, self["outer"].Bytes)
	}
	if i.Parent != outer {
		t.Errorf("inner parent %d, want %d", i.Parent, outer)
	}
}

var sink []byte
