package obs

import (
	"bufio"
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	bounds := BucketBounds()
	if len(bounds) != histBuckets-1 {
		t.Fatalf("got %d bounds, want %d", len(bounds), histBuckets-1)
	}
	// 1-2-5 per decade, strictly increasing, 1 first and 1e12 last.
	if bounds[0] != 1 || bounds[len(bounds)-1] != 1e12 {
		t.Fatalf("bounds span [%g, %g], want [1, 1e12]", bounds[0], bounds[len(bounds)-1])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not increasing at %d: %g <= %g", i, bounds[i], bounds[i-1])
		}
	}
	// A value on a bound lands in that bound's bucket (le is inclusive);
	// just above it lands in the next.
	for i, b := range bounds {
		if got := bucketIndex(b); got != i {
			t.Fatalf("bucketIndex(%g) = %d, want %d", b, got, i)
		}
		if got := bucketIndex(b * 1.0000001); got != i+1 {
			t.Fatalf("bucketIndex(just above %g) = %d, want %d", b, got, i+1)
		}
	}
	// Below-range and pathological inputs land in bucket 0; above-range in
	// the overflow bucket.
	for _, v := range []float64{0, -1, 0.5, math.Inf(-1), math.NaN()} {
		if got := bucketIndex(v); got != 0 {
			t.Fatalf("bucketIndex(%g) = %d, want 0", v, got)
		}
	}
	for _, v := range []float64{2e12, math.Inf(1)} {
		if got := bucketIndex(v); got != histBuckets-1 {
			t.Fatalf("bucketIndex(%g) = %d, want overflow %d", v, got, histBuckets-1)
		}
	}
}

func TestHistogramPercentileMath(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 100 || s.Sum != 5050 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Uniform 1..100 hits the 1-2-5 bounds exactly under linear
	// interpolation: p50 = 50, p95 = 95, p99 = 99.
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {1.0, 100},
	} {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("q%.2f = %g, want %g", c.q, got, c.want)
		}
	}
	st := s.Stats()
	if st.P50 != 50 || st.P95 != 95 || st.P99 != 99 {
		t.Fatalf("stats = %+v", st)
	}

	// A single observation reports itself at every quantile (interpolation
	// is clamped to the observed max).
	one := NewHistogram()
	one.Observe(3)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Snapshot().Quantile(q); got > 3 {
			t.Fatalf("single-sample q%g = %g, want ≤ 3", q, got)
		}
	}

	// Overflow-bucket quantiles fall back to the observed max.
	over := NewHistogram()
	over.Observe(5e12)
	if got := over.Snapshot().Quantile(0.5); got != 5e12 {
		t.Fatalf("overflow q50 = %g, want 5e12", got)
	}

	// Empty histogram: all zero.
	if got := NewHistogram().Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty q50 = %g, want 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 50; i++ {
		a.Observe(float64(i))
	}
	for i := 51; i <= 100; i++ {
		b.Observe(float64(i))
	}
	a.Merge(b)
	a.Merge(nil) // no-op
	s := a.Snapshot()
	if s.Count != 100 || s.Sum != 5050 || s.Max != 100 {
		t.Fatalf("merged snapshot = %+v", s)
	}
	if got := s.Quantile(0.95); math.Abs(got-95) > 1e-9 {
		t.Fatalf("merged p95 = %g, want 95", got)
	}
	// Merging into an empty histogram copies the max.
	c := NewHistogram()
	c.Merge(a)
	if got := c.Snapshot().Max; got != 100 {
		t.Fatalf("empty-merge max = %g, want 100", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines, perG = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG + i + 1))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	n := int64(goroutines * perG)
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	if s.Max != float64(n) {
		t.Fatalf("max = %g, want %g", s.Max, float64(n))
	}
	if want := float64(n) * float64(n+1) / 2; s.Sum != want {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != n {
		t.Fatalf("bucket total = %d, want %d", total, n)
	}
}

// parsePromText is a minimal Prometheus text-format 0.0.4 parser used by the
// exposition tests here and in internal/serve: it validates line shapes and
// returns samples keyed by metric name (with the label part kept verbatim)
// plus the TYPE of each family.
func parsePromText(t *testing.T, data []byte) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples, types = map[string]float64{}, map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(rest) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch rest[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			types[rest[0]] = rest[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
			name = key[:i]
		}
		for _, c := range name {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
				t.Fatalf("invalid metric name char %q in %q", c, line)
			}
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Add("chase.triggers_fired", 7)
	r.SetGauge("serve.queue_depth", 3)
	for i := 1; i <= 100; i++ {
		r.Observe("serve.latency_us", float64(i))
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	samples, types := parsePromText(t, buf.Bytes())
	if types["chase_triggers_fired"] != "counter" {
		t.Fatalf("counter family missing:\n%s", out)
	}
	if types["serve_queue_depth"] != "gauge" {
		t.Fatalf("gauge family missing:\n%s", out)
	}
	if types["serve_latency_us"] != "histogram" {
		t.Fatalf("histogram family missing:\n%s", out)
	}
	if samples["chase_triggers_fired"] != 7 || samples["serve_queue_depth"] != 3 {
		t.Fatalf("sample values wrong:\n%s", out)
	}
	// Histogram series: cumulative buckets ending at +Inf == count, plus sum.
	if samples[`serve_latency_us_bucket{le="+Inf"}`] != 100 {
		t.Fatalf("+Inf bucket != count:\n%s", out)
	}
	if samples[`serve_latency_us_bucket{le="50"}`] != 50 {
		t.Fatalf(`le="50" bucket should hold 50 cumulative samples:`+"\n%s", out)
	}
	if samples["serve_latency_us_count"] != 100 || samples["serve_latency_us_sum"] != 5050 {
		t.Fatalf("sum/count wrong:\n%s", out)
	}
	// Cumulative buckets never decrease.
	var prev float64
	for _, b := range BucketBounds() {
		key := `serve_latency_us_bucket{le="` + formatPromFloat(b) + `"}`
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s:\n%s", key, out)
		}
		if v < prev {
			t.Fatalf("bucket %s decreased (%g < %g)", key, v, prev)
		}
		prev = v
	}
	// Families are sorted by name.
	var familyOrder []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			familyOrder = append(familyOrder, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(familyOrder); i++ {
		if familyOrder[i] < familyOrder[i-1] {
			t.Fatalf("families out of order: %v", familyOrder)
		}
	}
	// Nil registry writes nothing.
	var nilBuf bytes.Buffer
	(*Registry)(nil).WritePrometheus(&nilBuf)
	if nilBuf.Len() != 0 {
		t.Fatal("nil registry must write nothing")
	}
}

func TestRegistrySnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Add("c", 2)
	r.SetGauge("g", 1.5)
	for i := 1; i <= 100; i++ {
		r.Observe("h", float64(i))
	}
	snap := r.Snapshot()
	if snap.Counters["c"] != 2 || snap.Gauges["g"] != 1.5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	h := snap.Hists["h"]
	if h.Count != 100 || h.P50 != 50 || h.P95 != 95 || h.P99 != 99 || h.Max != 100 {
		t.Fatalf("hist snapshot = %+v", h)
	}
	// Nil registry yields the empty (but non-nil-map) shape.
	nilSnap := (*Registry)(nil).Snapshot()
	if nilSnap.Counters == nil || nilSnap.Gauges == nil || nilSnap.Hists == nil {
		t.Fatal("nil registry snapshot must have non-nil maps")
	}
}
