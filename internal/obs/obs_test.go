package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilObsIsNoOp(t *testing.T) {
	var o *Obs
	if o.Enabled() {
		t.Fatal("nil Obs must report disabled")
	}
	// Every method must be callable on nil without panicking.
	o.Count("c", 1)
	o.Gauge("g", 2)
	o.Observe("h", 3)
	if o.Summary() != "" || o.Registry() != nil {
		t.Fatal("nil Obs must return zero values")
	}
	if _, sp := StartSpan(context.Background(), o, "root"); sp != nil {
		t.Fatal("nil Obs must return nil spans")
	}
	var sp *Span
	sp.Attr("k", 1)
	child := sp.Span("child")
	child.End()
	sp.End(F("k", 2))
	var reg *Registry
	reg.Add("c", 1)
	reg.SetGauge("g", 1)
	reg.Observe("h", 1)
	if reg.Counter("c") != 0 || reg.Gauge("g") != 0 || reg.Summary() != "" {
		t.Fatal("nil Registry must return zero values")
	}
	if _, ok := reg.Hist("h"); ok {
		t.Fatal("nil Registry must have no histograms")
	}
}

func TestRegistryCountersGaugesHists(t *testing.T) {
	r := NewRegistry()
	r.Add("triggers", 3)
	r.Add("triggers", 4)
	if got := r.Counter("triggers"); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	r.SetGauge("depth", 4)
	r.SetGauge("depth", 6)
	if got := r.Gauge("depth"); got != 6 {
		t.Fatalf("gauge = %g, want 6", got)
	}
	for i := 1; i <= 100; i++ {
		r.Observe("lat", float64(i))
	}
	s, ok := r.Hist("lat")
	if !ok {
		t.Fatal("histogram missing")
	}
	if s.Count != 100 || s.Max != 100 || s.Sum != 5050 {
		t.Fatalf("hist stats = %+v", s)
	}
	if s.P50 != 50 || s.P95 != 95 {
		t.Fatalf("quantiles p50=%g p95=%g, want 50/95", s.P50, s.P95)
	}
	sum := r.Summary()
	for _, want := range []string{"triggers", "depth", "lat", "p95=95.0"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestHistogramBoundedMemory(t *testing.T) {
	// The log-bucketed histogram holds a fixed bucket array no matter how
	// long the stream is, and its interpolated quantiles stay within the
	// 1-2-5 bucket width of the true value.
	r := NewRegistry()
	for i := 0; i < 100_000; i++ {
		r.Observe("big", float64(i))
	}
	s, _ := r.Hist("big")
	if s.Count != 100_000 || s.Max != 99_999 {
		t.Fatalf("stats = %+v", s)
	}
	if s.P50 < 40_000 || s.P50 > 60_000 {
		t.Fatalf("p50 = %g, want ≈50000", s.P50)
	}
	snap, ok := r.HistSnapshot("big")
	if !ok {
		t.Fatal("snapshot missing")
	}
	if got, want := len(snap.Buckets), len(BucketBounds())+1; got != want {
		t.Fatalf("bucket count = %d, want %d (fixed)", got, want)
	}
	var total int64
	for _, n := range snap.Buckets {
		total += n
	}
	if total != 100_000 {
		t.Fatalf("bucket total = %d, want 100000", total)
	}
}

// TestConcurrentUseIsSafe has 32 goroutines open and end nested spans on one
// recording trace and one registry: every span is a node of the one tree,
// parented on the span it was opened under, and timed into the registry.
func TestConcurrentUseIsSafe(t *testing.T) {
	const workers, iters = 32, 50
	o := New()
	ids := NewIDSource(5)
	tr := NewTrace(ids.TraceID(), ids, true)
	tr.SetMaxSpans(1 + 3*workers*iters)
	ctx, root := StartSpan(ContextWithTrace(context.Background(), tr), o, "root")
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				o.Count("c", 1)
				o.Observe("h", float64(j))
				wctx, outer := StartSpan(ctx, o, "outer", F("worker", i))
				_, mid := StartSpan(wctx, o, "mid")
				inner := mid.Span("inner")
				inner.Attr("j", j)
				inner.End()
				mid.End()
				outer.End(F("done", true))
			}
		}()
	}
	wg.Wait()
	root.End()
	tr.Finish()
	if got := o.Registry().Counter("c"); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	for _, name := range []string{"outer", "mid", "inner"} {
		if h, ok := o.Registry().Hist("span." + name); !ok || h.Count != workers*iters {
			t.Errorf("span.%s histogram = %+v, want %d samples", name, h, workers*iters)
		}
	}
	spans := tr.Spans()
	if len(spans) != 1+3*workers*iters || tr.Account().SpansDropped != 0 {
		t.Fatalf("trace holds %d spans (%d dropped), want %d", len(spans), tr.Account().SpansDropped, 1+3*workers*iters)
	}
	byID := map[SpanID]TraceSpan{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	wantParent := map[string]string{"outer": "root", "mid": "outer", "inner": "mid"}
	for _, sp := range spans {
		if sp.End.IsZero() {
			t.Fatalf("span %s left open", sp.Name)
		}
		if sp.Name == "root" {
			if !sp.Parent.IsZero() {
				t.Errorf("root has parent %s", sp.Parent)
			}
			continue
		}
		if p, ok := byID[sp.Parent]; !ok || p.Name != wantParent[sp.Name] {
			t.Fatalf("span %s parented on %q, want %q", sp.Name, p.Name, wantParent[sp.Name])
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0.00µs"},
		{750 * time.Nanosecond, "0.75µs"},
		{time.Microsecond, "1.00µs"},
		{999 * time.Microsecond, "999.00µs"},
		{time.Millisecond, "1.00ms"},
		{1500 * time.Microsecond, "1.50ms"},
		{999 * time.Millisecond, "999.00ms"},
		{time.Second, "1.00s"},
		{90 * time.Second, "90.00s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestRecordingAllocatesNothing pins that recording is allocation-free once a
// metric exists: Observe on an existing histogram, and End on a span that
// times itself into the registry without a recording trace. The span's
// histogram is still exposed as "span.<name>".
func TestRecordingAllocatesNothing(t *testing.T) {
	o := New()
	o.Observe("h", 1)
	if n := testing.AllocsPerRun(100, func() { o.Observe("h", 2) }); n != 0 {
		t.Errorf("Observe on an existing histogram: %.0f allocations, want 0", n)
	}
	_, sp := StartSpan(context.Background(), o, "chase.rule")
	sp.End()
	if n := testing.AllocsPerRun(100, func() { sp.End() }); n != 0 {
		t.Errorf("End on a non-recording span: %.0f allocations, want 0", n)
	}
	if h, ok := o.Registry().Hist("span.chase.rule"); !ok || h.Count != 102 {
		t.Errorf("span.chase.rule histogram = %+v, want 102 samples", h)
	}
	if sum := o.Summary(); !strings.Contains(sum, "span.chase.rule ") {
		t.Errorf("summary does not name span.chase.rule:\n%s", sum)
	}
}
