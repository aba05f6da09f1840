package obs

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process-local metrics store: monotonically increasing
// counters, last-write-wins gauges, and fixed-memory log-bucketed histograms
// with p50/p95/p99/max. All methods are safe for concurrent use and are
// no-ops on a nil receiver.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
	// spans holds the span histograms by bare span name; they are exposed as
	// "span.<name>". Span.End looks one up on every span, so the map is
	// replaced, not written, when a span name is new, and read without the lock.
	spans atomic.Pointer[map[string]*Histogram]
}

// spanPrefix is the exposition prefix of the span histograms.
const spanPrefix = "span."

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
	r.spans.Store(&map[string]*Histogram{})
	return r
}

// Add increments a counter by delta.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter reads a counter (0 when absent).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge sets a gauge.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Gauge reads a gauge (0 when absent).
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Observe records one histogram sample. The registry lock covers only the
// map lookup; the observation itself is a lock-free atomic on the
// histogram, so concurrent observers of the same metric do not serialize.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.getHist(name).Observe(v)
}

// observeSpan records one duration sample of the span name (bare, without
// spanPrefix): once the span has a histogram, without a lock or an allocation.
func (r *Registry) observeSpan(name string, v float64) {
	h := (*r.spans.Load())[name]
	if h == nil {
		h = r.spanHist(name)
	}
	h.Observe(v)
}

// getHist returns the named histogram, creating it on first use.
func (r *Registry) getHist(name string) *Histogram {
	if span, ok := strings.CutPrefix(name, spanPrefix); ok {
		return r.spanHist(span)
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// spanHist returns the histogram of the span name, creating it on first use.
func (r *Registry) spanHist(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := *r.spans.Load()
	if h := spans[name]; h != nil {
		return h
	}
	next := maps.Clone(spans)
	h := NewHistogram()
	next[name] = h
	r.spans.Store(&next)
	return h
}

// lookup returns the named histogram, nil when there is none.
func (r *Registry) lookup(name string) *Histogram {
	if span, ok := strings.CutPrefix(name, spanPrefix); ok {
		return (*r.spans.Load())[span]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// histsLocked copies every histogram by its exposition name; r.mu must be
// held.
func (r *Registry) histsLocked() map[string]*Histogram {
	spans := *r.spans.Load()
	out := make(map[string]*Histogram, len(r.hists)+len(spans))
	maps.Copy(out, r.hists)
	for n, h := range spans {
		out[spanPrefix+n] = h
	}
	return out
}

// HistStats is a histogram summary.
type HistStats struct {
	Count         int64
	Sum, Max      float64
	P50, P95, P99 float64
}

// Hist summarizes a histogram; ok is false when no sample was recorded.
func (r *Registry) Hist(name string) (HistStats, bool) {
	if r == nil {
		return HistStats{}, false
	}
	h := r.lookup(name)
	if h == nil {
		return HistStats{}, false
	}
	s := h.Snapshot()
	if s.Count == 0 {
		return HistStats{}, false
	}
	return s.Stats(), true
}

// HistSnapshot returns the raw bucket snapshot of a histogram; ok is false
// when no sample was recorded. The Prometheus exposition and the EXPLAIN
// report read buckets through this.
func (r *Registry) HistSnapshot(name string) (HistSnapshot, bool) {
	if r == nil {
		return HistSnapshot{}, false
	}
	h := r.lookup(name)
	if h == nil {
		return HistSnapshot{}, false
	}
	s := h.Snapshot()
	return s, s.Count > 0
}

// MergeFrom folds another registry into r: counters add, gauges overwrite
// (last write wins), histograms merge bucket-wise. It backs the EXPLAIN
// path, which evaluates under a private registry for per-query isolation
// and then folds the observations back into the caller's long-lived one.
func (r *Registry) MergeFrom(other *Registry) {
	if r == nil || other == nil {
		return
	}
	other.mu.Lock()
	counters := make(map[string]int64, len(other.counters))
	for n, v := range other.counters {
		counters[n] = v
	}
	gauges := make(map[string]float64, len(other.gauges))
	for n, v := range other.gauges {
		gauges[n] = v
	}
	hists := other.histsLocked()
	other.mu.Unlock()
	for n, v := range counters {
		r.Add(n, v)
	}
	for n, v := range gauges {
		r.SetGauge(n, v)
	}
	for n, h := range hists {
		r.getHist(n).Merge(h)
	}
}

// Summary renders every metric in sorted order, one per line: counters and
// gauges as "name value", histograms as
// "name count=… p50=… p95=… p99=… max=…".
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for n, v := range r.counters {
		lines = append(lines, fmt.Sprintf("%-40s %d", n, v))
	}
	for n, v := range r.gauges {
		lines = append(lines, fmt.Sprintf("%-40s %g", n, v))
	}
	for n, h := range r.histsLocked() {
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		s := snap.Stats()
		lines = append(lines, fmt.Sprintf("%-40s count=%d p50=%.1f p95=%.1f p99=%.1f max=%.1f",
			n, s.Count, s.P50, s.P95, s.P99, s.Max))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
