package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory until the run ends. A nil *tracer records nothing, so the
// untraced phase runs the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	seq   int64
	spans []span
}

// span is one recorded call: its layer-qualified name, its interval in
// nanoseconds since the tracer started, the span that caused it, and the
// trace (request) it belongs to. Attrs carries counts measured at the same
// boundary.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Trace  int64            `json:"trace"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span as a child of parent (nil for a root span, which
// starts a new trace).
func (t *tracer) start(name string, parent *openSpan) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.seq++
	id := t.seq
	t.mu.Unlock()
	s := span{ID: id, Trace: id, Name: name, Start: time.Since(t.t0).Nanoseconds()}
	if parent != nil {
		s.Parent = parent.s.ID
		s.Trace = parent.s.Trace
	}
	return &openSpan{t: t, s: s}
}

// set records a count on the span.
func (o *openSpan) set(key string, v int64) {
	if o == nil {
		return
	}
	if o.s.Attrs == nil {
		o.s.Attrs = map[string]int64{}
	}
	o.s.Attrs[key] = v
}

// end closes the span and keeps it.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.t0).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// named returns the closed spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds sums the durations of the named spans.
func (t *tracer) seconds(name string) float64 {
	var ns int64
	for _, s := range t.named(name) {
		ns += s.End - s.Start
	}
	return float64(ns) / 1e9
}

// millis lists the named spans' durations in milliseconds.
func (t *tracer) millis(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.End-s.Start)/1e6)
	}
	return out
}

// attr sums a count over the named spans.
func (t *tracer) attr(name, key string) int64 {
	var n int64
	for _, s := range t.named(name) {
		n += s.Attrs[key]
	}
	return n
}

// write stores every span as one JSON line under .perfbench/spans/ and
// returns the file's path.
func (t *tracer) write(b *bench) (string, error) {
	dir := filepath.Join(".perfbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
