// Request-scoped distributed tracing: W3C traceparent propagation, seedable
// trace/span identifiers, deterministic head sampling, and context-carried
// span trees. A Trace is the per-request container, and every Span (obs.go)
// opened under a recording one is a node of its tree: StartSpan parents on the
// context's ambient span, (*Span).Span on its receiver.
//
// Like the rest of the package, everything is nil-safe: a nil *Trace is the
// canonical "tracing off" handle and all methods on it are cheap no-ops.
package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// ParseTraceID parses a 32-hex-digit trace id.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("obs: trace id must be 32 hex digits, got %d", len(s))
	}
	if _, err := hex.Decode(id[:], []byte(strings.ToLower(s))); err != nil {
		return id, fmt.Errorf("obs: bad trace id: %w", err)
	}
	if id.IsZero() {
		return id, fmt.Errorf("obs: all-zero trace id is invalid")
	}
	return id, nil
}

// FlagSampled is the traceparent trace-flags bit meaning "the caller sampled
// this request"; we honor it by recording the full span tree.
const FlagSampled byte = 0x01

// ParseTraceparent parses a W3C traceparent header
// (version-traceid-spanid-flags, e.g.
// "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"). Only version
// 00 fields are interpreted; a higher version is accepted as long as the
// first four fields are well-formed, per the spec's forward-compatibility
// rule. Version ff and all-zero ids are rejected.
func ParseTraceparent(h string) (tid TraceID, sid SpanID, flags byte, err error) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return tid, sid, 0, fmt.Errorf("obs: traceparent needs 4 fields, got %d", len(parts))
	}
	ver, perr := hex.DecodeString(parts[0])
	if perr != nil || len(ver) != 1 || ver[0] == 0xff {
		return tid, sid, 0, fmt.Errorf("obs: bad traceparent version %q", parts[0])
	}
	if ver[0] == 0 && len(parts) != 4 {
		return tid, sid, 0, fmt.Errorf("obs: version-00 traceparent must have exactly 4 fields")
	}
	if tid, err = ParseTraceID(parts[1]); err != nil {
		return tid, sid, 0, err
	}
	if len(parts[2]) != 16 {
		return tid, sid, 0, fmt.Errorf("obs: span id must be 16 hex digits, got %d", len(parts[2]))
	}
	if _, err = hex.Decode(sid[:], []byte(strings.ToLower(parts[2]))); err != nil {
		return tid, sid, 0, fmt.Errorf("obs: bad span id: %w", err)
	}
	if sid.IsZero() {
		return tid, sid, 0, fmt.Errorf("obs: all-zero span id is invalid")
	}
	fb, perr := hex.DecodeString(parts[3])
	if perr != nil || len(fb) != 1 {
		return tid, sid, 0, fmt.Errorf("obs: bad trace flags %q", parts[3])
	}
	return tid, sid, fb[0], nil
}

// FormatTraceparent renders a version-00 traceparent header value.
func FormatTraceparent(tid TraceID, sid SpanID, flags byte) string {
	return fmt.Sprintf("00-%s-%s-%02x", tid, sid, flags)
}

// IDSource generates trace and span ids from a splitmix64 stream. A zero
// seed derives one from the wall clock; a fixed seed makes id sequences (and
// therefore head-sampling decisions) reproducible for tests and benchmarks.
// Safe for concurrent use.
type IDSource struct {
	mu    sync.Mutex
	state uint64
}

// NewIDSource returns an id generator; seed 0 picks a clock-derived seed.
func NewIDSource(seed int64) *IDSource {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &IDSource{state: uint64(seed)}
}

func (s *IDSource) next() uint64 {
	s.mu.Lock()
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	s.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TraceID returns a fresh non-zero trace id.
func (s *IDSource) TraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		putUint64(id[0:8], s.next())
		putUint64(id[8:16], s.next())
	}
	return id
}

// SpanID returns a fresh non-zero span id.
func (s *IDSource) SpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		putUint64(id[:], s.next())
	}
	return id
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// Sampler makes the head-sampling decision as a pure function of the trace
// id: fnv64(seed, id) < rate×2^64. The same (rate, seed) therefore samples
// the same ids everywhere — deterministic for tests, and consistent across
// restarts of the same configuration.
type Sampler struct {
	threshold uint64
	seed      uint64
	all       bool
}

// NewSampler builds a sampler keeping the given fraction of traces
// (clamped to [0,1]).
func NewSampler(rate float64, seed int64) *Sampler {
	if rate >= 1 {
		return &Sampler{all: true}
	}
	if rate < 0 {
		rate = 0
	}
	return &Sampler{threshold: uint64(rate * float64(1<<63) * 2), seed: uint64(seed)}
}

// Sampled reports the head-sampling decision for the id.
func (s *Sampler) Sampled(id TraceID) bool {
	if s == nil {
		return false
	}
	if s.all {
		return true
	}
	h := uint64(14695981039346656037) ^ s.seed
	for _, b := range id {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h < s.threshold
}

// TraceSpan is one finished (or in-flight) node of a trace's span tree.
type TraceSpan struct {
	ID     SpanID
	Parent SpanID // zero for the root (or the remote parent from traceparent)
	Name   string
	Start  time.Time
	End    time.Time // zero while the span is open
	Attrs  []KV
}

// DefaultMaxSpans bounds the recorded span tree per trace; spans beyond the
// cap are counted (Account.SpansDropped) but not stored.
const DefaultMaxSpans = 4096

// Trace is the per-request container: identity, the recording decision, the
// span tree, and the resource account. Build one with NewTrace, carry it in
// the request context with ContextWithTrace, and close it with Finish.
type Trace struct {
	id        TraceID
	ids       *IDSource
	recording bool
	remote    SpanID // parent span id from an incoming traceparent, if any
	maxSpans  int

	mu       sync.Mutex
	spans    []*TraceSpan
	account  Account
	start    time.Time
	end      time.Time
	slow     bool
	pinned   bool
	rootName string
}

// NewTrace builds a trace. recording selects whether a full span tree is
// kept; a non-recording trace still carries the resource account, so every
// request is accounted even when only a fraction is traced in detail.
func NewTrace(id TraceID, ids *IDSource, recording bool) *Trace {
	if ids == nil {
		ids = NewIDSource(0)
	}
	return &Trace{id: id, ids: ids, recording: recording, maxSpans: DefaultMaxSpans, start: time.Now()}
}

// SetRemoteParent records the caller's span id from an incoming traceparent;
// the root span's Parent points at it so the caller can stitch trees.
func (t *Trace) SetRemoteParent(sid SpanID) {
	if t != nil {
		t.remote = sid
	}
}

// SetMaxSpans overrides the recorded-span cap (0 keeps the default).
func (t *Trace) SetMaxSpans(n int) {
	if t != nil && n > 0 {
		t.maxSpans = n
	}
}

// ID returns the trace id (zero for a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Recording reports whether the span tree is being kept.
func (t *Trace) Recording() bool { return t != nil && t.recording }

// MarkSlow tags the trace as slow; the store's tail sampling always keeps
// slow traces, and prefers evicting fast ones.
func (t *Trace) MarkSlow() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slow = true
	t.mu.Unlock()
}

// Slow reports whether MarkSlow was called.
func (t *Trace) Slow() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slow
}

// Pin exempts the trace from store eviction entirely — the SLO watchdog pins
// the traces implicated in a breach so they are still inspectable when the
// operator arrives.
func (t *Trace) Pin() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pinned = true
	t.mu.Unlock()
}

// Pinned reports whether Pin was called.
func (t *Trace) Pinned() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pinned
}

// Finish closes the trace. Any span node still open (a panic or a hard
// cancellation skipped its End) is force-closed at the trace end time so the
// exported tree never contains dangling spans.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.end = time.Now()
	for _, n := range t.spans {
		if n.End.IsZero() {
			n.End = t.end
		}
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded span nodes in start order.
func (t *Trace) Spans() []TraceSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSpan, len(t.spans))
	for i, n := range t.spans {
		out[i] = *n
	}
	return out
}

// newNode allocates a tree node (nil when not recording or over the cap).
func (t *Trace) newNode(name string, parent SpanID, start time.Time) *TraceSpan {
	if t == nil || !t.recording {
		return nil
	}
	if parent.IsZero() {
		parent = t.remote
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.maxSpans {
		t.account.SpansDropped++
		return nil
	}
	n := &TraceSpan{ID: t.ids.SpanID(), Parent: parent, Name: name, Start: start}
	t.spans = append(t.spans, n)
	t.account.Spans++
	if t.rootName == "" {
		t.rootName = name
	}
	return n
}

// closeNode stamps the end time and attributes on a node.
func (t *Trace) closeNode(n *TraceSpan, end time.Time, attrs []KV) {
	if t == nil || n == nil {
		return
	}
	t.mu.Lock()
	if n.End.IsZero() {
		n.End = end
		n.Attrs = attrs
	}
	t.mu.Unlock()
}

// traceKey and spanKey carry the active trace and the ambient parent span in
// a context.Context.
type traceKey struct{}
type spanKey struct{}

// ContextWithTrace attaches the trace to the context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// RecordingTrace reports whether the context carries a recording trace.
func RecordingTrace(ctx context.Context) bool { return TraceFrom(ctx).Recording() }

// ContextWithSpan sets the ambient parent span; StartSpan-created spans do
// this automatically.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the context's ambient span, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a span parented on the context's ambient span: a node of
// the context's trace tree when that trace is recording, timed into o's
// registry (or, when o is nil, the ambient span's). The returned context
// carries the new span as the ambient parent. With neither a registry nor a
// recording trace it returns (ctx, nil), the usual nil-safe no-op span.
func StartSpan(ctx context.Context, o *Obs, name string, kv ...KV) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if o == nil && parent != nil {
		o = parent.o // keep registry timings flowing even if the callee lost the handle
	}
	sp := newSpan(o, TraceFrom(ctx), parent, name, kv)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}
