package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// serveSpec is one serving workload: a weighted wheel with rim-arc parts,
// built analytically, then a closed loop of query windows with optional
// edge churn between them.
type serveSpec struct {
	rim, parts      int
	eps, zipfS      float64
	windows, window int
	churnEvery      int // windows between churn batches; 0 disables churn
	churnBatch      int // events per batch
}

// serveInput is a set-up serving instance: the graph and its part family.
type serveInput struct {
	g *graph.Graph
	p *partition.Parts
}

func setupServe(tr *tracer, spec serveSpec, seed int64) (*serveInput, error) {
	in := &serveInput{}
	var c *graph.CSR
	_ = tr.do("gen.csr", func() error {
		c = gen.DistinctWeightsCSR(gen.UniformWeightsCSR(gen.WheelCSR(spec.rim+1), xrand.New(seed)))
		return nil
	})
	_ = tr.do("graph.materialize", func() error { in.g = c.Graph(); return nil })
	err := tr.do("partition.parts", func() (err error) {
		in.p, err = partition.RimArcs(in.g, spec.parts)
		return err
	})
	return in, err
}

// serveBuild is the serving infrastructure: the maintained shortcut and the
// distance oracle over it, with the build's round cost and quality.
type serveBuild struct {
	m       *shortcut.Maintained
	o       *query.Oracle
	rounds  int
	quality int
	search  *congest.SearchResult
}

func buildServe(tr *tracer, spec serveSpec, in *serveInput) (*serveBuild, error) {
	b := &serveBuild{}
	var setup *pipeline.Setup
	if err := tr.do("pipeline.selfsetup", func() (err error) {
		setup, err = pipeline.SelfSetup(in.g, false)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("congest.search", func() (err error) {
		b.search, err = congest.SearchCap(in.g, setup.Tree, in.p, congest.SearchOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("shortcut.maintain", func() (err error) {
		b.m, err = shortcut.MaintainPrio(in.g, setup.Tree, in.p, b.search.Cap, b.search.Priorities, 0)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("query.oracle", func() (err error) {
		b.o, err = query.FromMaintained(b.m, query.Options{Eps: spec.eps})
		return err
	}); err != nil {
		return nil, err
	}
	b.rounds = setup.Cost.Total() + b.search.EffectiveRounds + b.search.ChargedRounds
	b.quality = b.m.BaseQuality()
	return b, nil
}

// sessionStats are one serving session's counts; every field is
// deterministic in the seed.
type sessionStats struct {
	queries, computed, warmCalls int
	rounds                       int // miss computations
	invalidations                int
	events, refused, patches     int
	reseats, dirty               int
	repairRounds                 int
	failed                       int
	firstFailure                 error
}

// fail records count failed operations.
func (s *sessionStats) fail(count int, err error) {
	s.failed += count
	if s.firstFailure == nil {
		s.firstFailure = err
	}
}

// churn applies one batch of edge events in E18's mix (¼ weight updates,
// ¼ inserts, ½ deletes), counting deletes Repair refuses because they would
// disconnect the graph, and reseating the shortcut when Repair recommends
// a rebuild. It checks that every applied event and reseat flushed the
// oracle's cache.
func churn(tr *tracer, spec serveSpec, b *serveBuild, rng *rand.Rand, st *sessionStats) error {
	g := b.m.G
	before := b.o.Stats().Invalidations
	flushes := 0
	for k := 0; k < spec.churnBatch; k++ {
		var ev shortcut.Event
		tid := tr.begin("bench.tracegen")
		for ev.Kind == 0 {
			switch draw := rng.Intn(4); {
			case draw == 0:
				if id := rng.Intn(g.M()); !g.EdgeRemoved(id) {
					ev = shortcut.Event{Kind: shortcut.WeightUpdate, Edge: id, W: 1 + rng.Float64()}
				}
			case draw == 1:
				if u, v := rng.Intn(g.N()), rng.Intn(g.N()); u != v && !g.HasEdge(u, v) {
					ev = shortcut.Event{Kind: shortcut.EdgeInsert, U: u, V: v, W: 1 + rng.Float64()}
				}
			default:
				if id := rng.Intn(g.M()); !g.EdgeRemoved(id) {
					ev = shortcut.Event{Kind: shortcut.EdgeDelete, Edge: id}
				}
			}
		}
		tr.end(tid)
		var rep *shortcut.RepairReport
		if err := tr.do("shortcut.repair", func() (err error) {
			rep, err = b.m.Repair(ev)
			return err
		}); err != nil {
			if ev.Kind != shortcut.EdgeDelete {
				return fmt.Errorf("repair of %v: %w", ev.Kind, err)
			}
			st.refused++
			continue
		}
		st.events++
		flushes++
		st.dirty += rep.DirtyVertices
		st.repairRounds += rep.RepairRounds
		if rep.TreePatched {
			st.patches++
		}
		if rep.RebuildRecommended {
			if err := tr.do("shortcut.reseat", func() error {
				return b.m.Reseat(b.m.Cap, shortcut.TreeBlockPriorities(b.m.T, b.m.P))
			}); err != nil {
				return err
			}
			st.reseats++
			flushes++
		}
	}
	if got := b.o.Stats().Invalidations - before; got != int64(flushes) {
		st.fail(1, fmt.Errorf("churn batch flushed the cache %d times, want %d", got, flushes))
	}
	return nil
}

// window is one window's generated queries.
type window struct {
	src, dst, distinct []int
	ans                []float64
	sample             int
	seen               map[int]bool
}

// serveSession drives one closed-loop session over a built oracle: per
// window, an optional churn batch, one Warm over the window's distinct
// sources, then DistCached over GOMAXPROCS goroutines. One seeded query
// per window is checked against Dijkstra on the current graph. It returns
// the measured latency of each window and the bytes allocated inside the
// measured intervals.
func (r *runner) serveSession(spec serveSpec, b *serveBuild, seed int64, st *sessionStats) ([]int64, uint64, error) {
	tr := r.tr
	n := b.m.G.N()
	rng := xrand.New(seed)
	perm := rng.Perm(n)
	zipf := rand.NewZipf(rng, spec.zipfS, 1, uint64(n-1))
	churnRng := xrand.New(seed + 1)
	w := &window{
		src: make([]int, spec.window), dst: make([]int, spec.window),
		ans: make([]float64, spec.window), seen: make(map[int]bool, spec.window),
	}
	workers := runtime.GOMAXPROCS(0)
	missed := make([]int, workers)
	lat := make([]int64, 0, spec.windows)
	var bytes uint64
	for wi := 0; wi < spec.windows; wi++ {
		tid := tr.begin("bench.tracegen")
		w.distinct = w.distinct[:0]
		clear(w.seen)
		for i := range w.src {
			w.src[i] = perm[int(zipf.Uint64())]
			w.dst[i] = rng.Intn(n)
			if !w.seen[w.src[i]] {
				w.seen[w.src[i]] = true
				w.distinct = append(w.distinct, w.src[i])
			}
		}
		w.sample = rng.Intn(spec.window)
		tr.end(tid)

		t0, a0 := r.now(), r.alloc.read()
		if spec.churnEvery > 0 && wi > 0 && wi%spec.churnEvery == 0 {
			if err := churn(tr, spec, b, churnRng, st); err != nil {
				return nil, 0, err
			}
		}
		err := tr.do("query.warm", func() error {
			_, computed, cost, err := b.o.Warm(w.distinct)
			st.computed += computed
			st.rounds += cost.Total()
			st.warmCalls++
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		sid := tr.begin("query.serve")
		var wg sync.WaitGroup
		chunk := (spec.window + workers - 1) / workers
		for k := 0; k < workers; k++ {
			lo, hi := k*chunk, min((k+1)*chunk, spec.window)
			missed[k] = 0
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(k, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					d, ok := b.o.DistCached(w.src[i], w.dst[i])
					if !ok {
						missed[k]++
					}
					w.ans[i] = d
				}
			}(k, lo, hi)
		}
		wg.Wait()
		tr.end(sid)
		lat = append(lat, r.now()-t0)
		bytes += r.alloc.read() - a0
		st.queries += spec.window
		for _, m := range missed {
			if m > 0 {
				st.fail(m, fmt.Errorf("window %d: %d queries missed the warmed cache", wi, m))
			}
		}
		_ = tr.do("graph.dijkstra", func() error {
			if err := checkAnswer(b.m.G, w.src[w.sample], w.dst[w.sample], w.ans[w.sample], spec.eps); err != nil {
				st.fail(1, fmt.Errorf("window %d: %w", wi, err))
			}
			return nil
		})
	}
	st.invalidations = int(b.o.Stats().Invalidations)
	return lat, bytes, nil
}

// checkAnswer holds a served distance to the oracle's guarantee: within
// [d, (1+eps)·d] of the exact Dijkstra distance d on the current graph.
func checkAnswer(g *graph.Graph, src, dst int, got, eps float64) error {
	sp, err := graph.Dijkstra(g, src)
	if err != nil {
		return err
	}
	d := sp.Dist[dst]
	const slack = 1e-9 // float rounding in the rounded-weight relaxation
	if !(got >= d*(1-slack) && got <= (1+eps)*d*(1+slack)) {
		return fmt.Errorf("dist(%d,%d) = %g outside [%g, %g]", src, dst, got, d, (1+eps)*d)
	}
	return nil
}
