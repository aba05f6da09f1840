// Package obs is the engine-wide observability layer: a process-local
// metrics registry (counters, gauges, histograms with p50/p95/max), a
// hierarchical span tracer with wall-clock timings, and a structured JSONL
// event sink. It has no dependencies outside the standard library and no
// knowledge of the query engine; the evaluation layers (chase, ProofTree,
// SPARQL translation) thread an *Obs handle through their options.
//
// Instrumentation is off by default and nil-safe throughout: a nil *Obs (and
// a nil *Span derived from one) is a valid handle on which every method is a
// cheap no-op, so instrumented code never branches on "is tracing on" beyond
// the nil checks the methods perform themselves. Constructing an Obs with
// New enables the in-memory registry; NewWithSink additionally streams one
// JSON object per completed span or event to a writer.
//
// JSONL schema (one object per line):
//
//	{"kind":"span","name":"chase.round","id":2,"parent":1,"t_us":10,"dur_us":42,"attrs":{"round":1}}
//	{"kind":"event","name":"prover.memo_hit","t_us":55,"attrs":{"key_len":12}}
//
// t_us is microseconds since the Obs was created; span ids are unique per
// Obs and parent is 0 for root spans. Attrs hold only JSON-encodable scalar
// values supplied at instrumentation sites.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// KV is one attribute on a span or event.
type KV struct {
	K string
	V any
}

// F builds an attribute; the name is short for "field".
func F(k string, v any) KV { return KV{K: k, V: v} }

// Obs bundles the registry, the tracer state, and the optional JSONL sink.
// The zero value is not usable; use New or NewWithSink. A nil *Obs is the
// canonical "observability off" handle.
type Obs struct {
	reg *Registry

	mu       sync.Mutex
	w        io.Writer // nil when no sink is attached
	now      func() time.Time
	start    time.Time
	nextSpan int64
	sinkErr  error
}

// New returns an Obs with an in-memory registry and no event sink.
func New() *Obs {
	o := &Obs{reg: NewRegistry(), now: time.Now}
	o.start = o.now()
	return o
}

// NewWithSink returns an Obs that additionally writes one JSON line per
// completed span or emitted event to w. The caller owns w's lifetime.
func NewWithSink(w io.Writer) *Obs {
	o := New()
	o.w = w
	return o
}

// SetClock replaces the wall clock; intended for deterministic tests and
// golden traces. It also resets the trace epoch to the new clock's current
// time. Must be called before any span is started.
func (o *Obs) SetClock(now func() time.Time) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.now = now
	o.start = now()
}

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

// SinkErr returns the first write error the sink encountered, if any.
func (o *Obs) SinkErr() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sinkErr
}

// Summary renders the registry in a stable human-readable form.
func (o *Obs) Summary() string {
	if o == nil {
		return ""
	}
	return o.reg.Summary()
}

// Span is one node of the hierarchical trace. A nil *Span is a no-op.
//
// A span can be wired into a request-scoped Trace (see trace.go): spans
// created by StartSpan on a context carrying a recording trace, and all
// their descendants via (s *Span).Span, additionally append nodes to that
// trace's span tree. Such a span is valid even with a nil Obs handle.
type Span struct {
	o      *Obs
	name   string
	id     int64
	parent int64
	start  time.Time
	attrs  []KV

	tr   *Trace
	node *TraceSpan // nil when the trace dropped the node (span cap)
}

// Span starts a root span.
func (o *Obs) Span(name string, kv ...KV) *Span {
	return o.startSpan(name, 0, kv)
}

// Span starts a child span; when the parent belongs to a recording trace the
// child joins the same span tree.
func (s *Span) Span(name string, kv ...KV) *Span {
	if s == nil {
		return nil
	}
	child := s.o.startSpan(name, s.id, kv)
	if s.tr.Recording() {
		if child == nil {
			child = &Span{name: name, start: time.Now(), attrs: kv}
		}
		child.tr = s.tr
		var pnode SpanID
		if s.node != nil {
			pnode = s.node.ID
		}
		child.node = s.tr.newNode(name, pnode, child.start)
	}
	return child
}

func (o *Obs) startSpan(name string, parent int64, kv []KV) *Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	o.nextSpan++
	id := o.nextSpan
	start := o.now()
	o.mu.Unlock()
	return &Span{o: o, name: name, id: id, parent: parent, start: start, attrs: kv}
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

// record is the JSONL line shape shared by spans and events. Spans that
// belong to a request trace carry the W3C ids alongside the per-Obs ones.
type record struct {
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	ID     int64          `json:"id,omitempty"`
	Parent int64          `json:"parent,omitempty"`
	Trace  string         `json:"trace_id,omitempty"`
	SpanID string         `json:"span_id,omitempty"`
	TUs    int64          `json:"t_us"`
	DurUs  int64          `json:"dur_us,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// End closes the span: its duration is recorded in the histogram
// "span.<name>" (microseconds), its trace node (if any) is stamped, and,
// when a sink is attached, one JSONL line is written. Extra attributes may
// be supplied at close time.
func (s *Span) End(kv ...KV) {
	if s == nil {
		return
	}
	var attrs []KV
	if len(s.attrs) > 0 || len(kv) > 0 {
		attrs = make([]KV, 0, len(s.attrs)+len(kv))
		attrs = append(append(attrs, s.attrs...), kv...)
	}
	o := s.o
	if o == nil { // trace-only span
		s.tr.closeNode(s.node, time.Now(), attrs)
		return
	}
	o.mu.Lock()
	end := o.now()
	epoch := o.start
	o.mu.Unlock()
	s.tr.closeNode(s.node, end, attrs)
	dur := end.Sub(s.start)
	o.reg.Observe("span."+s.name, float64(dur.Microseconds()))
	if o.w == nil {
		return
	}
	rec := record{
		Kind:   "span",
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		TUs:    s.start.Sub(epoch).Microseconds(),
		DurUs:  dur.Microseconds(),
		Attrs:  attrMap(attrs),
	}
	if s.tr != nil {
		rec.Trace = s.tr.ID().String()
		if s.node != nil {
			rec.SpanID = s.node.ID.String()
		}
	}
	o.write(rec)
}

// Event emits a point-in-time JSONL line (no-op without a sink).
func (o *Obs) Event(name string, kv ...KV) {
	if o == nil || o.w == nil {
		return
	}
	o.mu.Lock()
	t := o.now().Sub(o.start)
	o.mu.Unlock()
	o.write(record{Kind: "event", Name: name, TUs: t.Microseconds(), Attrs: attrMap(kv)})
}

func (o *Obs) write(r record) {
	buf, err := json.Marshal(r)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, err := o.w.Write(buf); err != nil && o.sinkErr == nil {
		o.sinkErr = err
	}
}

func attrMap(kv []KV) map[string]any {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]any, len(kv))
	for _, a := range kv {
		m[a.K] = a.V
	}
	return m
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

// ParseTrace parses a JSONL trace produced by a sink, one record per line.
// It is used by tests and by tooling that post-processes traces.
func ParseTrace(data []byte) ([]map[string]any, error) {
	var out []map[string]any
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", i+1, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// TraceKinds returns the set of distinct "name" values of the parsed trace,
// sorted. Handy for asserting which event kinds a run produced.
func TraceKinds(records []map[string]any) []string {
	seen := map[string]bool{}
	for _, r := range records {
		if n, ok := r["name"].(string); ok {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
