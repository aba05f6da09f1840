package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/limits"
	"repro/internal/obs"
)

// postTraced posts a JSON body with a traceparent header and returns the
// status, body, and response headers.
func postTraced(t *testing.T, url, traceparent string, req QueryRequest) (int, []byte, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// otlpDoc is the slice of the OTLP export the tests read back.
type otlpDoc struct {
	ResourceSpans []struct {
		ScopeSpans []struct {
			Spans []struct {
				TraceID      string `json:"traceId"`
				SpanID       string `json:"spanId"`
				ParentSpanID string `json:"parentSpanId"`
				Name         string `json:"name"`
				Start        string `json:"startTimeUnixNano"`
				End          string `json:"endTimeUnixNano"`
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
	Account obs.Account `json:"account"`
}

func fetchTrace(t *testing.T, base, id string) (otlpDoc, int) {
	t.Helper()
	status, body, _ := getBody(t, base+"/debug/trace?id="+id)
	var doc otlpDoc
	if status == http.StatusOK {
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("decoding trace export: %v", err)
		}
	}
	return doc, status
}

// A sampled traceparent is honored end to end: the trace id is adopted, the
// response echoes it, and the stored span tree covers serve admission →
// translation → the exact path → chase under that single id. The OPT query's
// chase terminates, so the exact path asks ProofTree nothing.
func TestTraceSparqlExactFullSpanTree(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Trace: TraceConfig{Sample: -1}}) // head sampler off: only the flag records
	defer ts.Close()
	_ = s

	ids := obs.NewIDSource(17)
	tid, psid := ids.TraceID(), ids.SpanID()
	inbound := obs.FormatTraceparent(tid, psid, obs.FlagSampled)

	status, body, hdr := postTraced(t, ts.URL+"/sparql", inbound, QueryRequest{
		Query: "SELECT ?x ?y WHERE { ?x partOf ?y . OPTIONAL { ?y partOf ?z } }",
		Exact: true,
	})
	if status != http.StatusOK {
		t.Fatalf("exact sparql = %d: %s", status, body)
	}

	echo := hdr.Get("traceparent")
	etid, esid, eflags, err := obs.ParseTraceparent(echo)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", echo, err)
	}
	if etid != tid {
		t.Fatalf("echoed trace id %s, want %s", etid, tid)
	}
	if esid == psid || esid.IsZero() {
		t.Errorf("echoed parent span id should be the server's root span, got %s", esid)
	}
	if eflags&obs.FlagSampled == 0 {
		t.Error("sampled flag not echoed")
	}

	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != tid.String() {
		t.Fatalf("body trace_id = %q, want %s", resp.TraceID, tid)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("exact evaluation returned no rows")
	}

	doc, st := fetchTrace(t, ts.URL, tid.String())
	if st != http.StatusOK {
		t.Fatalf("/debug/trace?id= -> %d", st)
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	seen := map[string]bool{}
	parentOf := map[string]string{}
	idOf := map[string]string{}
	for _, sp := range spans {
		if sp.TraceID != tid.String() {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.TraceID, tid)
		}
		if sp.End == "" || sp.Start == "" {
			t.Errorf("span %s missing timestamps", sp.Name)
		}
		seen[sp.Name] = true
		if _, dup := idOf[sp.Name]; !dup {
			idOf[sp.Name] = sp.SpanID
			parentOf[sp.Name] = sp.ParentSpanID
		}
	}
	for _, want := range []string{"serve.request", "serve.admission", "translate.compile", "triq.exact", "chase.deepen", "chase.run"} {
		if !seen[want] {
			t.Errorf("span %q missing from trace (have %v)", want, seen)
		}
	}
	// The tree hangs together: the server root is parented on the caller's
	// span, admission on the root.
	if parentOf["serve.request"] != psid.String() {
		t.Errorf("serve.request parent = %s, want caller span %s", parentOf["serve.request"], psid)
	}
	if parentOf["serve.admission"] != idOf["serve.request"] {
		t.Error("serve.admission not parented on serve.request")
	}
	if seen["prover.prove"] || doc.Account.ProverProofs != 0 || doc.Account.FactsDerived == 0 {
		t.Errorf("the exact evaluation billed %d prover proofs and %d facts; want the chase's facts only", doc.Account.ProverProofs, doc.Account.FactsDerived)
	}
	if doc.Account.WallUS <= 0 || doc.Account.ExecUS <= 0 {
		t.Errorf("account times not filled: %+v", doc.Account)
	}
}

// The resource account mirrors the final evaluation's chase.Stats exactly:
// the numbers in Explain (which come from Result.Stats) and in
// Explain.Resources (which come from the trace account) must agree.
func TestTraceAccountMatchesExplainStats(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Trace: TraceConfig{Sample: 1}})
	defer ts.Close()
	_ = s

	status, body := postJSON(t, ts.URL+"/query?explain=1", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatalf("query = %d: %s", status, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Explain == nil || resp.Explain.Resources == nil {
		t.Fatal("explained response missing report or resources")
	}
	acct := resp.Explain.Resources
	if resp.Resources == nil || *resp.Resources != *acct {
		t.Error("response Resources disagrees with Explain.Resources")
	}
	if int(acct.Rounds) != resp.Explain.Rounds {
		t.Errorf("account rounds %d != explain rounds %d", acct.Rounds, resp.Explain.Rounds)
	}
	if int(acct.TriggersFired) != resp.Explain.TriggersFired {
		t.Errorf("account fired %d != explain fired %d", acct.TriggersFired, resp.Explain.TriggersFired)
	}
	if int(acct.FactsDerived) != resp.Explain.FactsDerived {
		t.Errorf("account facts %d != explain facts %d", acct.FactsDerived, resp.Explain.FactsDerived)
	}
	if int(acct.NullsInvented) != resp.Explain.NullsInvented {
		t.Errorf("account nulls %d != explain nulls %d", acct.NullsInvented, resp.Explain.NullsInvented)
	}
	attempted := 0
	for _, r := range resp.Explain.Rules {
		attempted += r.TriggersAttempted
	}
	if int(acct.TriggersAttempted) != attempted {
		t.Errorf("account attempted %d != explain per-rule sum %d", acct.TriggersAttempted, attempted)
	}
	if acct.ChaseRuns == 0 {
		t.Error("no chase run billed")
	}
	if acct.WallUS < acct.ExecUS {
		t.Errorf("wall %d < exec %d", acct.WallUS, acct.ExecUS)
	}
}

// Unsampled requests still get a trace id and a resource account; only the
// span tree is absent.
func TestTraceUnsampledStillAccounted(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Trace: TraceConfig{Sample: -1}})
	defer ts.Close()
	_ = s

	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatalf("query = %d", status)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("unsampled request got no trace id")
	}
	doc, st := fetchTrace(t, ts.URL, resp.TraceID)
	if st != http.StatusOK {
		t.Fatalf("/debug/trace?id= -> %d for unsampled trace", st)
	}
	if n := len(doc.ResourceSpans[0].ScopeSpans[0].Spans); n != 0 {
		t.Errorf("unsampled trace recorded %d spans, want 0", n)
	}
	if doc.Account.FactsDerived == 0 || doc.Account.WallUS == 0 {
		t.Errorf("unsampled trace not accounted: %+v", doc.Account)
	}

	// The listing shows it as a non-recording row.
	_, listBody, _ := getBody(t, ts.URL+"/debug/trace")
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal([]byte(listBody), &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range list.Traces {
		if row.TraceID == resp.TraceID {
			found = true
			if row.Recording {
				t.Error("unsampled trace listed as recording")
			}
		}
	}
	if !found {
		t.Error("unsampled trace missing from /debug/trace listing")
	}
}

// A deadline-tripped evaluation still produces a finished trace: every span
// is closed (Finish force-closes stragglers) and the trace is retrievable.
func TestTraceDeadlineTripClosesSpans(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Trace: TraceConfig{Sample: -1}, Retry: RetryConfig{MaxAttempts: 1}})
	defer ts.Close()
	s.SetGraph(chainGraph(t, 50))
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{
		Point: "chase.round", Action: limits.ActHook,
		Hook: func() { time.Sleep(10 * time.Millisecond) },
	}))
	defer restore()

	ids := obs.NewIDSource(23)
	tid := ids.TraceID()
	inbound := obs.FormatTraceparent(tid, ids.SpanID(), obs.FlagSampled)
	status, body, _ := postTraced(t, ts.URL+"/query", inbound, QueryRequest{
		Program:   chainProgram,
		TimeoutMS: 40,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, body)
	}
	doc, st := fetchTrace(t, ts.URL, tid.String())
	if st != http.StatusOK {
		t.Fatalf("timed-out request's trace not stored (%d)", st)
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) == 0 {
		t.Fatal("no spans recorded for timed-out evaluation")
	}
	for _, sp := range spans {
		if sp.End == "" || sp.End == "0" {
			t.Errorf("span %s left open after cancellation", sp.Name)
		}
	}
}

// A slow query trips the auto-profiler exactly once per cooldown: the slowlog
// entry references the CPU and heap profile files, and both exist on disk
// after the capture drains.
func TestAutoProfileCaptureOnSlowQuery(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := newTestServer(t, Config{
		SlowLog: SlowLogConfig{Threshold: time.Nanosecond},
		AutoProfile: AutoProfileConfig{
			Dir:         dir,
			Threshold:   time.Nanosecond,
			CPUDuration: 50 * time.Millisecond,
			Cooldown:    time.Hour, // only the first query captures
		},
		Trace: TraceConfig{Sample: 1},
	})
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	s.autoprof.drain()

	_, body, _ := getBody(t, ts.URL+"/debug/slowlog")
	var got struct {
		Entries []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("want 3 slowlog entries, got %d", len(got.Entries))
	}
	captured := 0
	for _, e := range got.Entries {
		if e.TraceID == "" {
			t.Error("slow entry missing trace id")
		}
		if e.Resources == nil || e.Resources.FactsDerived == 0 {
			t.Error("slow entry missing resource account")
		}
		if e.ProfileCPU != "" || e.ProfileHeap != "" {
			captured++
			for _, f := range []string{e.ProfileCPU, e.ProfileHeap} {
				if f == "" {
					t.Error("only one of the two profile files referenced")
					continue
				}
				fi, err := os.Stat(f)
				if err != nil {
					t.Errorf("referenced profile %s: %v", f, err)
				} else if fi.Size() == 0 {
					t.Errorf("profile %s is empty", f)
				}
			}
		}
	}
	if captured != 1 {
		t.Errorf("captured on %d entries, want exactly 1 (cooldown)", captured)
	}
}

// The exact flag works over HTTP for both endpoints.
func TestQueryExactOverHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	defer ts.Close()

	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram, Exact: true})
	if status != http.StatusOK {
		t.Fatalf("exact /query = %d: %s", status, body)
	}
	resp := decodeResponse(t, body)
	if !resp.Exact {
		t.Error("exact evaluation not marked Exact")
	}
	if len(resp.Rows) == 0 {
		t.Error("exact evaluation returned no rows")
	}

	// Answers agree with the chase path.
	_, chaseBody := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	chaseResp := decodeResponse(t, chaseBody)
	if len(resp.Rows) != len(chaseResp.Rows) {
		t.Errorf("exact rows %d != chase rows %d", len(resp.Rows), len(chaseResp.Rows))
	}
}

// Tracing can be disabled entirely.
func TestTraceDisable(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Trace: TraceConfig{Disable: true}})
	defer ts.Close()

	status, body, hdr := postTraced(t, ts.URL+"/query", "", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatalf("query = %d", status)
	}
	if hdr.Get("traceparent") != "" {
		t.Error("disabled tracing still echoed a traceparent")
	}
	if bytes.Contains(body, []byte("trace_id")) {
		t.Error("disabled tracing still put trace_id in the body")
	}
	if st, _, _ := getBody(t, ts.URL+"/debug/trace"); st != http.StatusNotFound {
		t.Errorf("/debug/trace = %d with tracing disabled, want 404", st)
	}
}

// Every inbound traceparent is echoed, sampled or not, and with head sampling
// off the sampled flag alone forces the trace into the store.
func TestTraceparentEchoedAndSampledStored(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Trace: TraceConfig{Sample: -1}})
	defer ts.Close()

	ids := obs.NewIDSource(7)
	var sampled []obs.TraceID
	for i := 0; i < 20; i++ {
		tid := ids.TraceID()
		var flags byte
		if i%2 == 0 {
			flags = obs.FlagSampled
			sampled = append(sampled, tid)
		}
		status, body, hdr := postTraced(t, ts.URL+"/query", obs.FormatTraceparent(tid, ids.SpanID(), flags), QueryRequest{Program: testProgram})
		if status != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, status, body)
		}
		if etid, _, _, err := obs.ParseTraceparent(hdr.Get("traceparent")); err != nil || etid != tid {
			t.Errorf("request %d: echoed traceparent %q, want trace id %s", i, hdr.Get("traceparent"), tid)
		}
	}
	for _, tid := range sampled {
		doc, st := fetchTrace(t, ts.URL, tid.String())
		if st != http.StatusOK {
			t.Fatalf("sampled trace %s not stored (%d)", tid, st)
		}
		if len(doc.ResourceSpans[0].ScopeSpans[0].Spans) == 0 {
			t.Errorf("sampled trace %s has no spans", tid)
		}
	}
}

// Build info rides /metrics as triq_build_info{...} 1.
func TestMetricsBuildInfo(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	defer ts.Close()
	_, body, _ := getBody(t, ts.URL+"/metrics")
	if !bytes.Contains([]byte(body), []byte("triq_build_info{")) {
		t.Error("/metrics missing triq_build_info")
	}
	samples, types := promParse(t, body)
	if types["triq_build_info"] != "gauge" {
		t.Errorf("triq_build_info type = %q", types["triq_build_info"])
	}
	found := false
	for k, v := range samples {
		if len(k) >= len("triq_build_info") && k[:len("triq_build_info")] == "triq_build_info" {
			found = v == 1
		}
	}
	if !found {
		t.Error("triq_build_info sample not 1")
	}

	// Health gauges ride the same exposition.
	if _, ok := samples["go_goroutines"]; !ok {
		t.Error("/metrics missing go_goroutines health gauge")
	}
	if _, ok := samples["serve_queue_depth_hwm"]; !ok {
		t.Error("/metrics missing serve_queue_depth_hwm")
	}
}
