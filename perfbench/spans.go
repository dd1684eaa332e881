package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// allocSample reads the cumulative heap bytes allocated by the process.
type allocSample struct{ s []metrics.Sample }

func newAllocSample() *allocSample {
	return &allocSample{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (a *allocSample) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// span is one recorded call into a layer: a name, its interval relative to
// the tracer's start, the heap bytes allocated during it, and the span
// that was open when it began (-1 for none).
type span struct {
	Name    string `json:"name"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Alloc   uint64 `json:"alloc_bytes"`
	alloc0  uint64
}

// tracer keeps spans in memory. A disabled tracer records nothing and its
// methods cost one branch, so the untraced run measures the program alone.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int32
	alloc *allocSample
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), alloc: newAllocSample()}
}

// begin opens a span named after the layer call it wraps and returns its
// handle for end.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: time.Since(t.t0).Nanoseconds(), alloc0: t.alloc.read()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Alloc = t.alloc.read() - s.alloc0
	if k := len(t.open); k == 0 || t.open[k-1] != id {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", s.Name))
	}
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// layerSelf is one span name's self time and self allocation, summed over
// every span of that name: each span's own interval and bytes minus what
// its direct children cover.
type layerSelf struct {
	NS    int64
	Bytes uint64
	Count int
}

func (t *tracer) selfTimes() map[string]*layerSelf {
	out := make(map[string]*layerSelf)
	childNS := make([]int64, len(t.spans))
	childBytes := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
			childBytes[s.Parent] += s.Alloc
		}
	}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerSelf{}
			out[s.Name] = l
		}
		l.NS += s.EndNS - s.StartNS - childNS[i]
		l.Bytes += s.Alloc - min(s.Alloc, childBytes[i])
		l.Count++
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
