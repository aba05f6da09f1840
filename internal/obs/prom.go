package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Prometheus text exposition content type served at
// /metrics.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitizes a registry metric name for the Prometheus exposition:
// dots (the registry's namespace separator) and any other character outside
// [a-zA-Z0-9_:] become underscores.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in Prometheus text exposition format
// 0.0.4: counters and gauges as single samples, histograms as cumulative
// _bucket{le="…"} series plus _sum and _count. Metric families are emitted
// in sorted (sanitized) name order with one # TYPE line each.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for n, v := range r.counters {
		counters[n] = v
	}
	gauges := make(map[string]float64, len(r.gauges))
	for n, v := range r.gauges {
		gauges[n] = v
	}
	hists := r.histsLocked()
	r.mu.Unlock()

	type family struct {
		kind string
		emit func(name string)
	}
	// A histogram family owns its derived series names; a counter or gauge
	// that sanitizes onto one of them would emit a duplicate series, so the
	// histogram wins and the scalar is dropped from this exposition.
	reserved := make(map[string]bool, 4*len(hists))
	for n, h := range hists {
		if h.Snapshot().Count == 0 {
			continue
		}
		base := PromName(n)
		for _, s := range []string{base, base + "_bucket", base + "_sum", base + "_count"} {
			reserved[s] = true
		}
	}
	families := make(map[string]family, len(counters)+len(gauges)+len(hists))
	for n, v := range counters {
		v := v
		if name := PromName(n); !reserved[name] {
			families[name] = family{kind: "counter", emit: func(name string) {
				fmt.Fprintf(w, "%s %d\n", name, v)
			}}
		}
	}
	for n, v := range gauges {
		v := v
		if name := PromName(n); !reserved[name] {
			families[name] = family{kind: "gauge", emit: func(name string) {
				fmt.Fprintf(w, "%s %s\n", name, formatPromFloat(v))
			}}
		}
	}
	for n, h := range hists {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		families[PromName(n)] = family{kind: "histogram", emit: func(name string) {
			var cum int64
			for i, bound := range bucketBounds {
				cum += s.Buckets[i]
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatPromFloat(bound), cum)
			}
			cum += s.Buckets[len(bucketBounds)]
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(w, "%s_sum %s\n", name, formatPromFloat(s.Sum))
			fmt.Fprintf(w, "%s_count %d\n", name, cum)
		}}
	}

	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := families[n]
		fmt.Fprintf(w, "# TYPE %s %s\n", n, f.kind)
		f.emit(n)
	}
}

func formatPromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// HistJSON is the JSON shape of one histogram in a metrics snapshot.
type HistJSON struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// MetricsSnapshot is the JSON shape served at /metrics.json: the flat
// counter/gauge maps plus per-histogram percentile summaries.
type MetricsSnapshot struct {
	Counters map[string]int64    `json:"counters"`
	Gauges   map[string]float64  `json:"gauges"`
	Hists    map[string]HistJSON `json:"hists"`
}

// Snapshot copies the registry into its JSON wire shape.
func (r *Registry) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]HistJSON{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	for n, v := range r.counters {
		snap.Counters[n] = v
	}
	for n, v := range r.gauges {
		snap.Gauges[n] = v
	}
	hists := r.histsLocked()
	r.mu.Unlock()
	for n, h := range hists {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		st := s.Stats()
		snap.Hists[n] = HistJSON{
			Count: st.Count, Sum: st.Sum, Max: st.Max,
			P50: st.P50, P95: st.P95, P99: st.P99,
		}
	}
	return snap
}
