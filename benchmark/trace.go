package main

// The benchmark's own span recorder. Spans are taken around calls into each
// layer's public functions, kept in memory, and written out as JSON lines
// when the traced run ends; nothing inside the engine is instrumented.
//
// The replay is staged: a request's root span is the HTTP handler, its child
// is the facade call the handler makes, run again on the same inputs, and the
// grandchildren are that call's stages run one by one. Parent and child are
// therefore consecutive in time, not nested, and a layer's self time is its
// duration minus the durations of its children.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  string `json:"parent,omitempty"` // name of the causing span of the same request
	StartNS int64  `json:"start_ns"`         // since the traced run began
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	origin time.Time
	spans  []span
	// dur and mallocs hold every sample of a span name, for the medians.
	dur     map[string][]float64 // microseconds
	mallocs map[string][]float64
	kb      map[string][]float64
}

func newTracer() *tracer {
	return &tracer{
		origin:  time.Now(),
		dur:     map[string][]float64{},
		mallocs: map[string][]float64{},
		kb:      map[string][]float64{},
	}
}

// span times f as one span of request req.
func (t *tracer) span(name string, req int, parent string, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	t.spans = append(t.spans, span{name, req, parent, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()})
	t.dur[name] = append(t.dur[name], float64(end.Sub(start))/float64(time.Microsecond))
	return err
}

// measured is span plus the heap objects and bytes f allocated, read from
// runtime.MemStats outside the timed interval. The replay is one goroutine,
// so the deltas belong to f.
func (t *tracer) measured(name string, req int, parent string, f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := t.span(name, req, parent, f)
	runtime.ReadMemStats(&after)
	t.mallocs[name] = append(t.mallocs[name], float64(after.Mallocs-before.Mallocs))
	t.kb[name] = append(t.kb[name], float64(after.TotalAlloc-before.TotalAlloc)/1024)
	return err
}

// last is the duration of the newest span of a name in microseconds.
func (t *tracer) last(name string) float64 { return t.dur[name][len(t.dur[name])-1] }

// us is the median duration of a span name in microseconds.
func (t *tracer) us(name string) float64 { return median(t.dur[name]) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
