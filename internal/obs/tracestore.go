// In-memory trace store with tail sampling: a bounded buffer of finished
// traces where slow traces are always admitted and survive eviction
// preferentially. Export is OTLP-shaped JSON (the resourceSpans →
// scopeSpans → spans nesting of the OpenTelemetry protocol), so standard
// tooling and humans both read it without a collector in the loop.
package obs

import (
	"encoding/json"
	"sort"
	"sync"
)

// TraceStore retains finished traces for /debug/trace.
type TraceStore struct {
	mu      sync.Mutex
	cap     int
	traces  []*Trace
	added   int64
	evicted int64
	service string
}

// NewTraceStore builds a store keeping at most capacity traces
// (capacity <= 0 selects 256). service names the emitting process in the
// OTLP resource attributes.
func NewTraceStore(capacity int, service string) *TraceStore {
	if capacity <= 0 {
		capacity = 256
	}
	if service == "" {
		service = "triqd"
	}
	return &TraceStore{cap: capacity, service: service}
}

// Add admits a finished trace. Eviction prefers, in order: the oldest
// non-slow non-recording trace (account-only entries are the cheapest to
// lose), then the oldest non-slow trace; only when every retained trace is
// slow does the oldest slow one go — the "always keep slow" tail-sampling
// rule.
func (st *TraceStore) Add(t *Trace) {
	if st == nil || t == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.added++
	if len(st.traces) >= st.cap {
		victim := -1
		for i, old := range st.traces { // oldest first
			if !old.Pinned() && !old.Slow() && !old.Recording() {
				victim = i
				break
			}
		}
		if victim < 0 {
			for i, old := range st.traces {
				if !old.Pinned() && !old.Slow() {
					victim = i
					break
				}
			}
		}
		if victim < 0 {
			for i, old := range st.traces {
				if !old.Pinned() {
					victim = i
					break
				}
			}
		}
		if victim < 0 {
			victim = 0
		}
		st.traces = append(st.traces[:victim], st.traces[victim+1:]...)
		st.evicted++
	}
	st.traces = append(st.traces, t)
}

// Pin marks the stored trace with the given hex id as eviction-exempt,
// reporting whether it was found.
func (st *TraceStore) Pin(id string) bool {
	t := st.Get(id)
	if t == nil {
		return false
	}
	t.Pin()
	return true
}

// Get returns the stored trace with the given hex id, or nil.
func (st *TraceStore) Get(id string) *Trace {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(st.traces) - 1; i >= 0; i-- {
		if st.traces[i].ID().String() == id {
			return st.traces[i]
		}
	}
	return nil
}

// TraceSummary is one row of the store listing.
type TraceSummary struct {
	TraceID   string  `json:"trace_id"`
	Root      string  `json:"root"`
	StartUnix int64   `json:"start_unix_ns"`
	WallUS    int64   `json:"wall_us"`
	Spans     int64   `json:"spans"`
	Recording bool    `json:"recording"`
	Slow      bool    `json:"slow"`
	Pinned    bool    `json:"pinned,omitempty"`
	Account   Account `json:"account"`
}

// List returns summaries, newest first, plus add/evict totals.
func (st *TraceStore) List() (rows []TraceSummary, added, evicted int64) {
	if st == nil {
		return nil, 0, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	rows = make([]TraceSummary, 0, len(st.traces))
	for i := len(st.traces) - 1; i >= 0; i-- {
		t := st.traces[i]
		t.mu.Lock()
		rows = append(rows, TraceSummary{
			TraceID:   t.id.String(),
			Root:      t.rootName,
			StartUnix: t.start.UnixNano(),
			WallUS:    t.account.WallUS,
			Spans:     int64(len(t.spans)),
			Recording: t.recording,
			Slow:      t.slow,
			Pinned:    t.pinned,
			Account:   t.account,
		})
		t.mu.Unlock()
	}
	return rows, st.added, st.evicted
}

// --- OTLP-shaped JSON export -----------------------------------------------

type otlpKeyValue struct {
	Key   string       `json:"key"`
	Value otlpAnyValue `json:"value"`
}

type otlpAnyValue struct {
	String *string  `json:"stringValue,omitempty"`
	Bool   *bool    `json:"boolValue,omitempty"`
	Int    *string  `json:"intValue,omitempty"` // OTLP/JSON encodes 64-bit ints as strings
	Double *float64 `json:"doubleValue,omitempty"`
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
	Status            struct{}       `json:"status"`
}

type otlpScopeSpans struct {
	Scope struct {
		Name string `json:"name"`
	} `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpResourceSpans struct {
	Resource struct {
		Attributes []otlpKeyValue `json:"attributes"`
	} `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

// OTLPDocument is the top-level OTLP/JSON trace export shape, extended with
// the trace's resource account (an extension field OTLP consumers ignore).
type OTLPDocument struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
	Account       Account             `json:"account"`
}

func otlpValue(v any) otlpAnyValue {
	switch x := v.(type) {
	case bool:
		return otlpAnyValue{Bool: &x}
	case int:
		s := formatInt(int64(x))
		return otlpAnyValue{Int: &s}
	case int64:
		s := formatInt(x)
		return otlpAnyValue{Int: &s}
	case float64:
		return otlpAnyValue{Double: &x}
	case string:
		return otlpAnyValue{String: &x}
	default:
		buf, err := json.Marshal(v)
		s := string(buf)
		if err != nil {
			s = "?"
		}
		return otlpAnyValue{String: &s}
	}
}

func formatInt(v int64) string {
	buf, _ := json.Marshal(v)
	return string(buf)
}

func otlpAttrs(kv []KV) []otlpKeyValue {
	if len(kv) == 0 {
		return nil
	}
	out := make([]otlpKeyValue, 0, len(kv))
	for _, a := range kv {
		out = append(out, otlpKeyValue{Key: a.K, Value: otlpValue(a.V)})
	}
	return out
}

// OTLP renders the trace as an OTLP-shaped JSON document. Spans are sorted
// by start time (ties by span id) for stable output.
func (st *TraceStore) OTLP(t *Trace) *OTLPDocument {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID.String() < spans[j].ID.String()
	})
	tid := t.ID().String()
	oSpans := make([]otlpSpan, 0, len(spans))
	for _, n := range spans {
		sp := otlpSpan{
			TraceID:           tid,
			SpanID:            n.ID.String(),
			Name:              n.Name,
			StartTimeUnixNano: formatInt(n.Start.UnixNano()),
			EndTimeUnixNano:   formatInt(n.End.UnixNano()),
			Attributes:        otlpAttrs(n.Attrs),
		}
		if !n.Parent.IsZero() {
			sp.ParentSpanID = n.Parent.String()
		}
		oSpans = append(oSpans, sp)
	}
	doc := &OTLPDocument{Account: t.Account()}
	rs := otlpResourceSpans{}
	service := "triqd"
	if st != nil && st.service != "" {
		service = st.service
	}
	rs.Resource.Attributes = otlpAttrs([]KV{{K: "service.name", V: service}})
	ss := otlpScopeSpans{Spans: oSpans}
	ss.Scope.Name = "repro/internal/obs"
	rs.ScopeSpans = []otlpScopeSpans{ss}
	doc.ResourceSpans = []otlpResourceSpans{rs}
	return doc
}
