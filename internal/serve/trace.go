package serve

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Request-scoped tracing for the HTTP server. Every request gets a Trace
// carrying its resource account; a head-sampled fraction (or any request
// arriving with a sampled W3C traceparent) additionally records the full
// span tree. Finished traces land in an in-memory store served at
// /debug/trace, where tail sampling keeps slow traces preferentially. The
// request's traceparent is honored on the way in and echoed on the way out,
// so callers can stitch the server's tree under their own spans.

// TraceConfig configures request tracing. The zero value enables tracing
// with defaults; set Disable to turn it off.
type TraceConfig struct {
	// Sample is the head-sampling rate in [0, 1] — the fraction of requests
	// whose full span tree is recorded (default 0.1). Requests arriving with
	// the traceparent sampled flag are always recorded regardless. Every
	// request, sampled or not, still gets a resource account.
	Sample float64
	// Capacity bounds the in-memory trace store (default 256).
	Capacity int
	// Seed seeds trace-id generation and the sampler; 0 derives a seed from
	// the clock. A fixed seed makes sampling decisions reproducible.
	Seed int64
	// MaxSpans caps recorded spans per trace (default obs.DefaultMaxSpans).
	MaxSpans int
	// Disable turns request tracing off entirely: no store, no traceparent
	// echo, no accounts.
	Disable bool
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.Sample == 0 {
		c.Sample = 0.1
	}
	if c.Sample < 0 {
		c.Sample = 0
	}
	return c
}

// tracer is the server-wide tracing state.
type tracer struct {
	cfg     TraceConfig
	ids     *obs.IDSource
	sampler *obs.Sampler
	store   *obs.TraceStore
	obs     *obs.Obs
	slow    time.Duration // slowlog threshold, for MarkSlow tail sampling
}

func newTracer(cfg TraceConfig, o *obs.Obs, slowThreshold time.Duration) *tracer {
	if cfg.Disable {
		return nil
	}
	cfg = cfg.withDefaults()
	return &tracer{
		cfg:     cfg,
		ids:     obs.NewIDSource(cfg.Seed),
		sampler: obs.NewSampler(cfg.Sample, cfg.Seed),
		store:   obs.NewTraceStore(cfg.Capacity, "triqd"),
		obs:     o,
		slow:    slowThreshold,
	}
}

// reqTrace bundles one request's trace state. A nil *reqTrace (tracing
// disabled) is a no-op everywhere.
type reqTrace struct {
	t       *tracer
	tr      *obs.Trace
	root    *obs.Span
	rootSID obs.SpanID
	heap0   int64
}

// start opens a request trace: parse the incoming traceparent (its trace id
// is adopted and its sampled flag forces recording), make the head-sampling
// decision, open the "serve.request" root span, and set the response
// traceparent header so even shed requests are traceable by the caller.
func (t *tracer) start(w http.ResponseWriter, r *http.Request, endpoint string) *reqTrace {
	if t == nil {
		return nil
	}
	var tid obs.TraceID
	var remote obs.SpanID
	forced := false
	if h := r.Header.Get("traceparent"); h != "" {
		if ptid, psid, flags, err := obs.ParseTraceparent(h); err == nil {
			tid, remote = ptid, psid
			forced = flags&obs.FlagSampled != 0
		}
	}
	if tid.IsZero() {
		tid = t.ids.TraceID()
	}
	tr := obs.NewTrace(tid, t.ids, forced || t.sampler.Sampled(tid))
	tr.SetMaxSpans(t.cfg.MaxSpans)
	tr.SetRemoteParent(remote)

	rt := &reqTrace{t: t, tr: tr, heap0: obs.HeapAllocBytes()}
	ctx := obs.ContextWithTrace(context.Background(), tr)
	_, rt.root = obs.StartSpan(ctx, t.obs, "serve.request", obs.F("endpoint", endpoint))
	if rt.rootSID = rt.root.TraceSpanID(); rt.rootSID.IsZero() {
		rt.rootSID = t.ids.SpanID() // non-recording: still a valid parent id for the echo
	}
	var flags byte
	if tr.Recording() {
		flags = obs.FlagSampled
	}
	w.Header().Set("traceparent", obs.FormatTraceparent(tid, rt.rootSID, flags))
	return rt
}

// bind attaches the trace and its root span to the request context so every
// StartSpan/Span call downstream joins the tree.
func (rt *reqTrace) bind(ctx context.Context) context.Context {
	if rt == nil {
		return ctx
	}
	ctx = obs.ContextWithTrace(ctx, rt.tr)
	return obs.ContextWithSpan(ctx, rt.root)
}

// span opens a child of the root span (e.g. "serve.admission").
func (rt *reqTrace) span(name string, kv ...obs.KV) *obs.Span {
	if rt == nil {
		return nil
	}
	return rt.root.Span(name, kv...)
}

// traceparent renders the trace context a mutation hands to the store: the
// request's trace id with this request's root span as parent, sampled iff
// the trace is recording. The replication stream ships it so the replica's
// apply span joins the client's distributed trace.
func (rt *reqTrace) traceparent() string {
	if rt == nil {
		return ""
	}
	var flags byte
	if rt.tr.Recording() {
		flags = obs.FlagSampled
	}
	return obs.FormatTraceparent(rt.tr.ID(), rt.rootSID, flags)
}

// traceID returns the hex trace id ("" when tracing is off).
func (rt *reqTrace) traceID() string {
	if rt == nil {
		return ""
	}
	return rt.tr.ID().String()
}

// account returns a snapshot of the request's resource account.
func (rt *reqTrace) account() obs.Account {
	if rt == nil {
		return obs.Account{}
	}
	return rt.tr.Account()
}

// finish closes the root span, fills the timing and heap fields of the
// account, applies the slow tail-sampling mark, and files the trace in the
// store. Server.handle calls it once per request.
func (rt *reqTrace) finish(status int, queueWait, exec, total time.Duration) {
	if rt == nil {
		return
	}
	rt.root.End(obs.F("status", status))
	rt.tr.SetTimes(total.Microseconds(), queueWait.Microseconds(), exec.Microseconds())
	rt.tr.SetHeapAlloc(obs.HeapAllocBytes() - rt.heap0)
	if rt.t.slow > 0 && total >= rt.t.slow {
		rt.tr.MarkSlow()
	}
	rt.tr.Finish()
	rt.t.store.Add(rt.tr)
}
