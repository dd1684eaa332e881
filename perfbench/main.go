// Command perfbench is the repository's benchmark. It drives the shortcut
// pipeline and the distance oracle layer by layer on four seeded
// workloads, checks every output against an exact oracle, and prints one
// JSON result line. With -trace 1 it records a span around each call into
// a layer and reports per-layer metrics instead of end-to-end ones.
//
//	go build -o perfbench . && ./perfbench -workload all -seed 2018
//
// runs every workload, each in its own process, untraced and traced.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// meta.json holds the default and held-out seeds and the map from each
// per-layer metric to the end-to-end metrics it should move.
//
//go:embed meta.json
var metaJSON []byte

type meta struct {
	DefaultSeed int64 `json:"default_seed"`
}

// workload is one benchmark input set. Exactly one of pipeline and serve
// is set. A run repeats cycles — one set-up and build of a fresh seeded
// instance, plus its serving session on the serving workloads — until the
// run's seconds are spent; the first census cycles give the deterministic
// counts.
type workload struct {
	name     string
	pipeline *pipelineSpec
	serve    *serveSpec
	census   int
}

// serveBuilds is how many times a serving cycle sets up and builds its
// instance.
const serveBuilds = 9

func workloads() []workload {
	serve := serveSpec{rim: 10000, parts: 64, eps: 0.125, zipfS: 1.5, windows: 64, window: 256}
	churn := serve
	churn.churnEvery, churn.churnBatch = 8, 2
	return []workload{
		{name: "grid-analytic", pipeline: &pipelineSpec{family: "grid", n: 16900}, census: 15},
		{name: "chain-simulate", pipeline: &pipelineSpec{family: "chain", n: 512, simulate: true}, census: 9},
		{name: "serve-zipf", serve: &serve, census: 6},
		{name: "serve-churn", serve: &churn, census: 4},
	}
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var m meta
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		fatal(fmt.Errorf("meta.json: %w", err))
	}
	name := flag.String("workload", "all", "workload name, or all to run every workload in its own process")
	seed := flag.Int64("seed", m.DefaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	if *name == "all" {
		if err := runAll(*seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(workloads(), *name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	stamp, _ := json.Marshal(map[string]any{"stamp": map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
	}})
	fmt.Println(string(stamp))
	res, tr, err := execute(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	if tr.on {
		if err := tr.write(*spans, fmt.Sprintf("%s-%d.jsonl", w.name, *seed)); err != nil {
			fatal(fmt.Errorf("writing spans: %w", err))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runAll runs every workload in its own process, untraced and then traced,
// and prints each metric with its unit and better direction, the tracing
// overhead, and a combined result line.
func runAll(seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for _, w := range workloads() {
		var runs [2]*result
		for trace := range runs {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			fmt.Fprintf(out, "%s\n", lines[0]) // the run's stamp
			runs[trace] = &result{}
			if err := json.Unmarshal(lines[len(lines)-1], runs[trace]); err != nil {
				return fmt.Errorf("%s: result line: %w", w.name, err)
			}
		}
		plain, traced := runs[0], runs[1]
		fmt.Fprintf(out, "\n== %s: correct=%t attempted=%d failed=%d fail_frac=%.4g\n",
			w.name, plain.Correct && traced.Correct, plain.Attempted, plain.Failed, float64(plain.Failed)/float64(plain.Attempted))
		for _, d := range endToEnd {
			v := plain.Metrics[d.name]
			fmt.Fprintf(out, "  %-28s %14.6g %-6s (%s is better)\n", d.name, v.Value, v.Unit, d.better)
			total.Metrics[w.name+"."+d.name] = v
		}
		for _, o := range [][2]string{{"pipeline_s", "trace.pipeline_s"}, {"op_p50_ms", "trace.op_p50_ms"}} {
			base := plain.Metrics[o[0]].Value
			fmt.Fprintf(out, "  tracing overhead on %-8s %+13.2f%%\n", o[0], 100*(traced.Metrics[o[1]].Value/base-1))
		}
		fmt.Fprintf(out, "  per-layer (traced run):\n")
		for _, d := range perLayer {
			v := traced.Metrics[d.name]
			if v.Value != 0 {
				fmt.Fprintf(out, "    %-32s %14.6g %-6s (%s is better)\n", d.name, v.Value, v.Unit, d.better)
			}
		}
		total.Correct = total.Correct && plain.Correct && traced.Correct
		total.Attempted += plain.Attempted + traced.Attempted
		total.Failed += plain.Failed + traced.Failed
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// runner accumulates one run's measurements.
type runner struct {
	w       workload
	tr      *tracer
	alloc   *allocSample
	t0      time.Time
	cycles  int
	setupNS []float64
	buildNS []float64
	opNS    []float64
	opBytes uint64
	// census sums each cycle's deterministic counts over the census
	// cycles; all sums the counts that normalize time metrics over every
	// cycle.
	census map[string]float64
	all    map[string]float64
	// rounds and quality are the census cycles' own values; the
	// end-to-end metrics report their medians.
	rounds    []float64
	quality   []float64
	attempted int
	failed    int
}

// now reads the process's CPU time (user and system, every thread) in
// nanoseconds. End-to-end times are CPU time: a co-tenant's load inflates
// wall-clock by tens of percent between runs and CPU time far less.
func (r *runner) now() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// collect runs a garbage collection in the benchmark's own span.
func (r *runner) collect() {
	_ = r.tr.do("bench.gc", func() error { runtime.GC(); return nil })
}

func (r *runner) fail(err error) {
	if r.failed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", r.w.name, err)
	}
	r.failed++
}

// headline records the current cycle's rounds and quality.
func (r *runner) headline(census bool, rounds, quality int) {
	if census {
		r.rounds = append(r.rounds, float64(rounds))
		r.quality = append(r.quality, float64(quality))
	}
}

// count adds a deterministic count of the current cycle.
func (r *runner) count(census bool, name string, v float64) {
	if census {
		r.census[name] += v
	}
	r.all[name] += v
}

// execute runs one workload for the given seconds (and at least its census
// cycles) and assembles the result.
func execute(w workload, seed int64, seconds float64, trace bool) (*result, *tracer, error) {
	r := &runner{
		w: w, tr: newTracer(trace), alloc: newAllocSample(), t0: time.Now(),
		census: map[string]float64{}, all: map[string]float64{},
	}
	root := r.tr.begin("run")
	for i := 0; i < w.census || time.Since(r.t0).Seconds() < seconds; i++ {
		instance := seed + int64(i)*1_000_003
		// Collect the previous cycle's garbage outside any measured
		// interval, so every cycle starts from the same heap.
		r.collect()
		var err error
		if w.pipeline != nil {
			err = r.pipelineCycle(instance, i < w.census)
		} else {
			err = r.serveCycle(instance, i < w.census)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		r.cycles++
	}
	r.tr.end(root)
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if res.Attempted == 0 {
		return nil, nil, errors.New("no operation attempted")
	}
	e2e := r.endToEnd()
	if !trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
		return res, r.tr, nil
	}
	layers := r.perLayer()
	layers["trace.pipeline_s"] = e2e["pipeline_s"]
	layers["trace.op_p50_ms"] = e2e["op_p50_ms"]
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
	}
	return res, r.tr, nil
}

func (r *runner) pipelineCycle(seed int64, census bool) error {
	spec := *r.w.pipeline
	a0, t0 := r.alloc.read(), r.now()
	in, err := setupPipeline(r.tr, spec, seed)
	if err != nil {
		return err
	}
	t1 := r.now()
	out, err := buildPipeline(r.tr, spec, in)
	if err != nil {
		return err
	}
	t2, a1 := r.now(), r.alloc.read()
	r.setupNS = append(r.setupNS, float64(t1-t0))
	r.buildNS = append(r.buildNS, float64(t2-t1))
	r.opNS = append(r.opNS, float64(t2-t0))
	r.opBytes += a1 - a0
	r.attempted++
	_ = r.tr.do("graph.kruskal", func() error {
		if err := checkMST(in.csr, out); err != nil {
			r.fail(err)
		}
		return nil
	})

	sim, chg, msgs := out.rounds()
	r.headline(census, sim+chg, out.Quality)
	for _, s := range out.Stages {
		prefix := "congest." + s.Name
		if s.Name == "mst" {
			prefix = "mst"
		}
		r.count(census, prefix+"_rounds", float64(s.Simulated+s.Charged))
		r.count(census, prefix+"_messages", float64(s.Messages))
	}
	r.count(census, "congest.search_guesses", float64(out.Guesses))
	r.count(census, "pipeline.rounds_sim", float64(sim))
	r.count(census, "pipeline.rounds_charged", float64(chg))
	r.count(census, "pipeline.messages", float64(msgs))
	r.count(census, "mst.provider_calls", float64(out.ProviderCalls))
	r.count(census, "mst.phases", float64(out.MSTPhases))
	return nil
}

// serveCycle sets up and builds the instance serveBuilds times, since one
// build is far shorter than the session, then serves one session over the
// last build.
func (r *runner) serveCycle(seed int64, census bool) error {
	spec := *r.w.serve
	var b *serveBuild
	for range serveBuilds {
		r.collect()
		t0 := r.now()
		in, err := setupServe(r.tr, spec, seed)
		if err != nil {
			return err
		}
		t1 := r.now()
		if b, err = buildServe(r.tr, spec, in); err != nil {
			return err
		}
		r.setupNS = append(r.setupNS, float64(t1-t0))
		r.buildNS = append(r.buildNS, float64(r.now()-t1))
	}

	var st sessionStats
	lat, opBytes, err := r.serveSession(spec, b, seed+0x5eed, &st)
	if err != nil {
		return err
	}
	for _, l := range lat {
		r.opNS = append(r.opNS, float64(l))
	}
	r.opBytes += opBytes
	r.attempted += st.queries + st.events + st.refused
	if st.failed > 0 {
		r.fail(st.firstFailure)
		r.failed += st.failed - 1
	}

	r.headline(census, b.rounds+st.rounds+st.repairRounds, b.quality)
	r.count(census, "congest.search_rounds", float64(b.search.EffectiveRounds+b.search.ChargedRounds))
	r.count(census, "congest.search_messages", float64(b.search.Stats.Messages))
	r.count(census, "congest.search_guesses", float64(b.search.Guesses))
	r.count(census, "pipeline.rounds_charged", float64(b.rounds+st.rounds+st.repairRounds))
	r.count(census, "query.warm_calls", float64(st.warmCalls))
	r.count(census, "query.sources_computed", float64(st.computed))
	r.count(census, "query.queries", float64(st.queries))
	r.count(census, "query.compute_rounds", float64(st.rounds))
	r.count(census, "query.invalidations", float64(st.invalidations))
	r.count(census, "shortcut.repair_events", float64(st.events))
	r.count(census, "shortcut.refused_events", float64(st.refused))
	r.count(census, "shortcut.tree_patches", float64(st.patches))
	r.count(census, "shortcut.reseats", float64(st.reseats))
	r.count(census, "shortcut.dirty_vertices", float64(st.dirty))
	r.count(census, "shortcut.repair_rounds", float64(st.repairRounds))
	return nil
}

func (r *runner) endToEnd() map[string]float64 {
	const mib = 1 << 20
	return map[string]float64{
		"setup_s":     quantile(r.setupNS, 0.5) / 1e9,
		"pipeline_s":  quantile(r.buildNS, 0.5) / 1e9,
		"op_p50_ms":   quantile(r.opNS, 0.5) / 1e6,
		"op_p95_ms":   quantile(r.opNS, 0.95) / 1e6,
		"ops_per_s":   float64(len(r.opNS)) / (sum(r.opNS) / 1e9),
		"rounds":      quantile(r.rounds, 0.5),
		"quality":     quantile(r.quality, 0.5),
		"alloc_mb":    float64(r.opBytes) / float64(len(r.opNS)) / mib,
		"peak_rss_mb": peakRSSMB(),
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// perLayer assembles the traced run's per-layer metrics: self times and
// allocations per cycle from the spans, deterministic counts per census
// cycle, and the ratios between them.
func (r *runner) perLayer() map[string]float64 {
	const mib = 1 << 20
	self := r.tr.selfTimes()
	cycles, census := float64(r.cycles), float64(r.w.census)
	selfNS := func(name string) float64 {
		if l := self[name]; l != nil {
			return float64(l.NS)
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	for name, v := range r.census {
		m[name] = v / census
	}
	for _, s := range stageLayers {
		name := "congest." + s
		m[name+"_s"] = selfNS(name) / cycles / 1e9
		if l := self[name]; l != nil {
			m[name+"_alloc_mb"] = float64(l.Bytes) / cycles / mib
		}
	}
	for _, l := range timedLayers {
		m[l+"_s"] = selfNS(l) / cycles / 1e9
	}
	m["mst.self_s"] = selfNS("mst.total") / cycles / 1e9
	m["mst.total_s"] = m["mst.self_s"] + m["mst.provider_s"]

	if r.w.pipeline != nil && r.w.pipeline.simulate {
		ns := selfNS("mst.total") + selfNS("mst.provider")
		for _, s := range stageLayers {
			ns += selfNS("congest." + s)
		}
		m["congest.ns_per_round"] = ratio(ns, r.all["pipeline.rounds_sim"])
		m["congest.ns_per_message"] = ratio(ns, r.all["pipeline.messages"])
	}

	q, computed := r.census["query.queries"], r.census["query.sources_computed"]
	m["query.hit_rate"] = ratio(q-computed, q)
	m["query.hits_per_compute"] = ratio(q-computed, computed)
	m["query.rounds_per_query"] = ratio(r.census["query.compute_rounds"], q)
	m["query.warm_ms_per_source"] = ratio(selfNS("query.warm")/1e6, r.all["query.sources_computed"])
	m["query.serve_ns_per_query"] = ratio(selfNS("query.serve"), r.all["query.queries"])

	var total int64
	for _, s := range r.tr.spans {
		if s.Name == "run" {
			total = s.EndNS - s.StartNS
		}
	}
	m["trace.uncovered_frac"] = ratio(selfNS("run"), float64(total))
	return m
}
