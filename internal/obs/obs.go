// Package obs is the engine-wide observability layer: a process-local
// metrics registry (counters, gauges, histograms with p50/p95/max) and spans
// with wall-clock timings. It has no dependencies outside the standard
// library and no knowledge of the query engine; the evaluation layers (chase,
// ProofTree, SPARQL translation) thread an *Obs handle through their options
// and open spans on the request's context.
//
// Instrumentation is off by default and nil-safe throughout: a nil *Obs (and
// a nil *Span derived from one) is a valid handle on which every method is a
// cheap no-op, so instrumented code never branches on "is tracing on" beyond
// the nil checks the methods perform themselves. Constructing an Obs with
// New enables the in-memory registry. A span's only identity is its node in
// the recording Trace its context carries (trace.go); without one it still
// times itself into the registry.
package obs

import (
	"fmt"
	"time"
)

// KV is one attribute on a span.
type KV struct {
	K string
	V any
}

// F builds an attribute; the name is short for "field".
func F(k string, v any) KV { return KV{K: k, V: v} }

// Obs is the metrics registry handle. The zero value is not usable; use New.
// A nil *Obs is the canonical "observability off" handle.
type Obs struct {
	reg *Registry
}

// New returns an Obs with an in-memory registry.
func New() *Obs { return &Obs{reg: NewRegistry()} }

// Enabled reports whether the handle actually records anything.
func (o *Obs) Enabled() bool { return o != nil }

// Registry exposes the metrics registry (nil when o is nil).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Count adds delta to the named counter.
func (o *Obs) Count(name string, delta int64) {
	if o == nil {
		return
	}
	o.reg.Add(name, delta)
}

// Gauge sets the named gauge.
func (o *Obs) Gauge(name string, v float64) {
	if o == nil {
		return
	}
	o.reg.SetGauge(name, v)
}

// Observe records one histogram sample.
func (o *Obs) Observe(name string, v float64) {
	if o == nil {
		return
	}
	o.reg.Observe(name, v)
}

// Summary renders the registry in a stable human-readable form.
func (o *Obs) Summary() string {
	if o == nil {
		return ""
	}
	return o.reg.Summary()
}

// Span is one timed section of work. A nil *Span is a no-op. Spans are opened
// by StartSpan on a context, or as children of another span by (*Span).Span.
// Under a recording Trace the span is a node of that trace's span tree; o,
// when non-nil, receives its duration in the "span.<name>" histogram.
type Span struct {
	o     *Obs
	name  string
	start time.Time
	attrs []KV

	tr   *Trace
	node *TraceSpan // nil when not recording, or dropped at the span cap
}

// newSpan opens a span under parent (nil for a root) in the trace tr. It
// returns nil when there is neither a registry nor a recording trace.
func newSpan(o *Obs, tr *Trace, parent *Span, name string, kv []KV) *Span {
	if o == nil && !tr.Recording() {
		return nil
	}
	sp := &Span{o: o, name: name, start: time.Now(), attrs: kv}
	if tr.Recording() {
		var pnode SpanID
		if parent != nil && parent.tr == tr && parent.node != nil {
			pnode = parent.node.ID
		}
		sp.tr = tr
		sp.node = tr.newNode(name, pnode, sp.start)
	}
	return sp
}

// Span starts a child span in the parent's trace, timed into the parent's
// registry.
func (s *Span) Span(name string, kv ...KV) *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.o, s.tr, s, name, kv)
}

// Attr appends an attribute to the span.
func (s *Span) Attr(k string, v any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, KV{K: k, V: v})
}

// TraceSpanID returns the span's id within its request trace, or the zero id
// when the span is not part of a recording trace (or was dropped at the span
// cap).
func (s *Span) TraceSpanID() SpanID {
	if s == nil || s.node == nil {
		return SpanID{}
	}
	return s.node.ID
}

// End closes the span: its trace node (if any) is stamped with the end time
// and the attributes, and its duration is recorded in the histogram
// "span.<name>" (microseconds). Extra attributes may be supplied at close
// time. A span that is not recording allocates nothing here.
func (s *Span) End(kv ...KV) {
	if s == nil {
		return
	}
	end := time.Now()
	if s.node != nil {
		attrs := make([]KV, 0, len(s.attrs)+len(kv))
		s.tr.closeNode(s.node, end, append(append(attrs, s.attrs...), kv...))
	}
	if s.o != nil {
		s.o.reg.observeSpan(s.name, float64(end.Sub(s.start).Microseconds()))
	}
}

// FormatDuration renders a duration on a fixed µs/ms/s unit ladder with two
// decimals, so columns of durations align across tables.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
