package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// promParse is a minimal Prometheus 0.0.4 text parser: it validates comment
// and sample syntax and returns samples keyed by "name{labels}" plus the
// declared family types. It fails the test on any malformed line, so a 200
// from /metrics that reaches this parser is a well-formedness proof.
func promParse(t *testing.T, data string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = map[string]float64{}
	types = map[string]string{}
	for ln, line := range strings.Split(data, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no sample value in %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, key)
			}
			name = key[:i]
		}
		for _, r := range name {
			if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				t.Fatalf("line %d: invalid metric name %q", ln+1, name)
			}
		}
		samples[key] = v
	}
	return samples, types
}

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header
}

// /metrics must emit parseable Prometheus 0.0.4 text with the right content
// type: at least one histogram family whose percentile source (buckets, sum,
// count) round-trips through the parser, plus the server gauges.
func TestMetricsPrometheusExposition(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	defer ts.Close()
	g, err := repro.ParseGraph(testData)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGraph(g)
	for i := 0; i < 3; i++ {
		if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}

	status, body, hdr := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	samples, types := promParse(t, body)

	if types["serve_latency_us"] != "histogram" {
		t.Fatalf("serve_latency_us type = %q, want histogram (types: %v)", types["serve_latency_us"], types)
	}
	count := samples["serve_latency_us_count"]
	if count != 3 {
		t.Errorf("serve_latency_us_count = %g, want 3", count)
	}
	if inf := samples[`serve_latency_us_bucket{le="+Inf"}`]; inf != count {
		t.Errorf("+Inf bucket = %g, want count %g", inf, count)
	}
	if samples["serve_latency_us_sum"] <= 0 {
		t.Error("serve_latency_us_sum not positive")
	}
	// Buckets must be cumulative (monotone nondecreasing in le order).
	var prev float64
	for _, b := range obs.BucketBounds() {
		key := fmt.Sprintf("serve_latency_us_bucket{le=%q}", strconv.FormatFloat(b, 'g', -1, 64))
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket %s = %g < previous %g (not cumulative)", key, v, prev)
		}
		prev = v
	}
	for _, gauge := range []string{"serve_inflight", "serve_queue_depth", "serve_breaker_state_query", "serve_breaker_state_sparql"} {
		if _, ok := samples[gauge]; !ok {
			t.Errorf("missing gauge %s", gauge)
		}
	}

	// The percentile summary of the same histogram is served by
	// /metrics.json and must agree with the Prometheus count.
	status, body, hdr = getBody(t, ts.URL+"/metrics.json")
	if status != http.StatusOK {
		t.Fatalf("/metrics.json = %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics.json Content-Type = %q", ct)
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decoding /metrics.json: %v", err)
	}
	h, ok := snap.Hists["serve.latency_us"]
	if !ok {
		t.Fatalf("/metrics.json missing serve.latency_us (has %v)", snap.Hists)
	}
	if float64(h.Count) != count {
		t.Errorf("JSON count %d != Prometheus count %g", h.Count, count)
	}
	if h.P50 <= 0 || h.P95 < h.P50 || h.P99 < h.P95 {
		t.Errorf("implausible percentiles: p50=%g p95=%g p99=%g", h.P50, h.P95, h.P99)
	}
	if snap.Counters["serve.ok"] != 3 {
		t.Errorf("serve.ok = %d, want 3", snap.Counters["serve.ok"])
	}
}

// Each over-threshold query produces exactly one slowlog entry — in the ring
// AND in the JSONL sink — and under-threshold queries produce none.
func TestSlowLogExactlyOncePerSlowQuery(t *testing.T) {
	var sink bytes.Buffer
	// Threshold 1ns: every query is "slow", so counting is deterministic.
	s, ts, _ := newTestServer(t, Config{SlowLog: SlowLogConfig{Threshold: time.Nanosecond, Capacity: 8, Sink: &sink}})
	defer ts.Close()
	g, err := repro.ParseGraph(testData)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGraph(g)

	const n = 5
	for i := 0; i < n; i++ {
		if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}

	status, body, _ := getBody(t, ts.URL+"/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("/debug/slowlog = %d", status)
	}
	var got struct {
		Enabled bool        `json:"enabled"`
		Total   int64       `json:"total"`
		Entries []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decoding slowlog: %v", err)
	}
	if !got.Enabled {
		t.Error("slowlog not enabled")
	}
	if got.Total != n || len(got.Entries) != n {
		t.Fatalf("slowlog total=%d entries=%d, want exactly %d each", got.Total, len(got.Entries), n)
	}
	for i, e := range got.Entries {
		if e.Endpoint != "query" || e.Status != http.StatusOK {
			t.Errorf("entry %d: endpoint=%q status=%d", i, e.Endpoint, e.Status)
		}
		if !strings.Contains(e.Query, "ts(?X)") {
			t.Errorf("entry %d: query text not captured: %q", i, e.Query)
		}
		if e.TotalUS < e.ExecUS {
			t.Errorf("entry %d: total %d < exec %d", i, e.TotalUS, e.ExecUS)
		}
		if e.Explain == nil {
			t.Errorf("entry %d: slow entry missing EXPLAIN summary", i)
		} else if e.Explain.TriggersFired == 0 {
			t.Errorf("entry %d: EXPLAIN has no trigger stats", i)
		}
	}
	// The sink saw the same five entries, one JSON line each.
	lines := strings.Split(strings.TrimRight(sink.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("sink has %d lines, want %d", len(lines), n)
	}
	for i, line := range lines {
		var e SlowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Errorf("sink line %d not JSON: %v", i, err)
		}
	}
	if c := s.obs.Registry().Counter("serve.slow_queries"); c != n {
		t.Errorf("serve.slow_queries = %d, want %d", c, n)
	}
}

// With a high threshold nothing is recorded.
func TestSlowLogUnderThresholdRecordsNothing(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{SlowLog: SlowLogConfig{Threshold: time.Hour}})
	defer ts.Close()
	g, err := repro.ParseGraph(testData)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGraph(g)
	if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
		t.Fatal("query failed")
	}
	_, body, _ := getBody(t, ts.URL+"/debug/slowlog")
	var got struct {
		Total   int64       `json:"total"`
		Entries []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 0 || len(got.Entries) != 0 {
		t.Errorf("fast queries were recorded: total=%d entries=%d", got.Total, len(got.Entries))
	}
}

// explain=1 embeds the report in the response; without it the field is absent
// even when the server computes reports for the slowlog.
func TestQueryExplainParam(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{SlowLog: SlowLogConfig{Threshold: time.Nanosecond}})
	defer ts.Close()
	g, err := repro.ParseGraph(testData)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGraph(g)

	status, body := postJSON(t, ts.URL+"/query?explain=1", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatalf("explained query = %d: %s", status, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Explain == nil {
		t.Fatal("explain=1 response missing report")
	}
	if resp.Explain.Kind != "triq" || len(resp.Explain.Rules) == 0 {
		t.Errorf("report kind=%q rules=%d", resp.Explain.Kind, len(resp.Explain.Rules))
	}

	status, body = postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatal("plain query failed")
	}
	if strings.Contains(string(body), `"explain"`) {
		t.Errorf("unexplained response leaked the report: %s", body)
	}

	// SPARQL explain carries operator provenance on the compiled rules.
	status, body = postJSON(t, ts.URL+"/sparql?explain=1", QueryRequest{
		Query: "SELECT ?x ?y WHERE { ?x partOf ?y }",
	})
	if status != http.StatusOK {
		t.Fatalf("explained sparql = %d: %s", status, body)
	}
	var sresp QueryResponse
	if err := json.Unmarshal(body, &sresp); err != nil {
		t.Fatal(err)
	}
	if sresp.Explain == nil || sresp.Explain.Kind != "sparql" {
		t.Fatalf("sparql report missing or wrong kind: %+v", sresp.Explain)
	}
	hasOrigin := false
	for _, ru := range sresp.Explain.Rules {
		if ru.Origin != "" {
			hasOrigin = true
		}
	}
	if !hasOrigin {
		t.Error("no compiled rule carries SPARQL operator provenance")
	}
}

// /debug/progress serves a well-formed snapshot, and a completed evaluation
// leaves its last round/fact counts behind.
func TestDebugProgressEndpoint(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	defer ts.Close()
	g, err := repro.ParseGraph(testData)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGraph(g)

	_, body, _ := getBody(t, ts.URL+"/debug/progress")
	var before repro.ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &before); err != nil {
		t.Fatalf("decoding progress: %v", err)
	}
	if before.ActiveRuns != 0 || before.Facts != 0 {
		t.Errorf("idle server reports activity: %+v", before)
	}

	if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
		t.Fatal("query failed")
	}
	_, body, _ = getBody(t, ts.URL+"/debug/progress")
	var after repro.ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if after.ActiveRuns != 0 {
		t.Errorf("ActiveRuns = %d after completion, want 0", after.ActiveRuns)
	}
	if after.Facts == 0 || after.TriggersFired == 0 {
		t.Errorf("completed run left no progress marks: %+v", after)
	}
}
