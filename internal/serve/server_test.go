package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/limits"
	"repro/internal/obs"
)

// These tests pin the full status-code contract against a live handler, with
// global fault plans standing in for slow, flaky, and crashing evaluations.
// They share the process-global fault plan, so none of them run in parallel.

const testData = `
	TheAirline partOf transportService .
	A311 partOf TheAirline .
	Oxford A311 London .
`

const testProgram = `
	triple(?X, partOf, transportService) -> ts(?X).
	triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
	ts(?X) -> query(?X).
`

// chainGraph builds a next-chain of n nodes; with the transitive-closure
// program the chase runs ~n rounds, so a per-round fault hook can slow the
// evaluation deterministically.
func chainGraph(t *testing.T, n int) *repro.Graph {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString("v")
		b.WriteString(string(rune('0' + i/10)))
		b.WriteString(string(rune('0' + i%10)))
		b.WriteString(" next v")
		b.WriteString(string(rune('0' + (i+1)/10)))
		b.WriteString(string(rune('0' + (i+1)%10)))
		b.WriteString(" .\n")
	}
	g, err := repro.ParseGraph(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const chainProgram = `
	triple(?X, next, ?Y) -> conn(?X, ?Y).
	conn(?X, ?Z), triple(?Z, next, ?Y) -> conn(?X, ?Y).
	conn(?X, ?Y) -> query(?X, ?Y).
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Obs) {
	t.Helper()
	o := obs.New()
	cfg.Obs = o
	s := New(cfg)
	g, err := repro.ParseGraph(testData)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGraph(g)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, o
}

func postJSON(t *testing.T, url string, req QueryRequest) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func decodeResponse(t *testing.T, body []byte) QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response body %q: %v", body, err)
	}
	return qr
}

func decodeFailure(t *testing.T, body []byte) Failure {
	t.Helper()
	var f Failure
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatalf("bad failure body %q: %v", body, err)
	}
	return f
}

func TestServeQueryOK(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	qr := decodeResponse(t, body)
	if len(qr.Rows) != 2 || qr.Incomplete {
		t.Fatalf("got %+v, want 2 complete rows", qr)
	}
}

func TestServeSPARQLOK(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/sparql", QueryRequest{
		Query: `SELECT ?x ?y WHERE { ?x partOf ?y }`,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if qr := decodeResponse(t, body); len(qr.Rows) != 2 {
		t.Fatalf("got %+v, want 2 mappings", qr)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []QueryRequest{
		{Program: "this is not datalog"},
		{Program: testProgram, Lang: "prolog"},
	}
	for _, req := range cases {
		status, body := postJSON(t, ts.URL+"/query", req)
		if status != http.StatusBadRequest {
			t.Errorf("%+v: status = %d (body %s), want 400", req, status, body)
		}
	}
	if status, _ := postJSON(t, ts.URL+"/sparql", QueryRequest{Query: "SELECT"}); status != http.StatusBadRequest {
		t.Errorf("bad sparql: status = %d, want 400", status)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON: status = %d, want 400", resp.StatusCode)
	}
}

// TestServeTruncatedIs200 pins the graceful-degradation contract: a budget
// trip is a 200 with Incomplete and a Truncation report, not an error.
func TestServeTruncatedIs200(t *testing.T) {
	s, ts, o := newTestServer(t, Config{})
	s.SetGraph(chainGraph(t, 30))
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{
		Program: chainProgram, MaxFacts: 100,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d (body %s), want 200 with partial result", status, body)
	}
	qr := decodeResponse(t, body)
	if !qr.Incomplete || qr.Truncation == nil {
		t.Fatalf("want Incomplete with Truncation, got %+v", qr)
	}
	if qr.Truncation.Limit != limits.LimitFacts {
		t.Fatalf("truncation.limit = %q, want %q", qr.Truncation.Limit, limits.LimitFacts)
	}
	if len(qr.Rows) == 0 {
		t.Fatal("partial result lost its rows")
	}
	if o.Registry().Counter("serve.truncated") == 0 {
		t.Fatal("serve.truncated counter not bumped")
	}
}

func TestServeDeadlineIs504(t *testing.T) {
	s, ts, o := newTestServer(t, Config{})
	s.SetGraph(chainGraph(t, 50))
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{
		Point: "chase.round", Action: limits.ActHook,
		Hook: func() { time.Sleep(10 * time.Millisecond) },
	}))
	defer restore()
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{
		Program: chainProgram, TimeoutMS: 40,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (body %s), want 504", status, body)
	}
	f := decodeFailure(t, body)
	if f.Limit != limits.LimitDeadline {
		t.Fatalf("failure.limit = %q, want %q", f.Limit, limits.LimitDeadline)
	}
	if o.Registry().Counter("serve.timeouts") != 1 {
		t.Fatal("serve.timeouts counter not bumped")
	}
}

func TestServePanicIs500(t *testing.T) {
	_, ts, o := newTestServer(t, Config{})
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{
		Point: "chase.round", Action: limits.ActPanic, Times: 1,
	}))
	defer restore()
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d (body %s), want 500", status, body)
	}
	if f := decodeFailure(t, body); f.Limit != limits.LimitInternal {
		t.Fatalf("failure.limit = %q, want %q", f.Limit, limits.LimitInternal)
	}
	if o.Registry().Counter("serve.internal_errors") != 1 {
		t.Fatal("serve.internal_errors counter not bumped")
	}
	// The panic was isolated to its request: the server still works.
	if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
		t.Fatalf("server did not survive the panic: status = %d", status)
	}
}

// TestServeRetriesExhaustedIs500 pins that an evaluation runs once: a fault
// that fires once and then clears surfaces as a 500 with the injected
// taxonomy name (a re-run would have met no fault and answered 200), and the
// next request answers 200.
func TestServeRetriesExhaustedIs500(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	plan := limits.NewPlan(limits.Fault{Point: "chase.rule", Times: 1})
	restore := limits.SetGlobal(plan)
	defer restore()
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d (body %s), want 500", status, body)
	}
	if f := decodeFailure(t, body); f.Limit != limits.LimitInjected {
		t.Fatalf("failure.limit = %q, want %q", f.Limit, limits.LimitInjected)
	}
	if plan.Fires() != 1 {
		t.Fatalf("fault fired %d times, want 1", plan.Fires())
	}
	status, body = postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatalf("next request: status = %d (body %s), want 200", status, body)
	}
	if qr := decodeResponse(t, body); len(qr.Rows) != 2 {
		t.Fatalf("next request: rows = %v, want the full answer", qr.Rows)
	}
}

// blockEvaluations installs a hook that parks every chase round until the
// returned release is called (or a safety timeout passes). It lets tests
// hold a request in-flight deterministically.
func blockEvaluations(t *testing.T) (started <-chan struct{}, release func()) {
	t.Helper()
	start := make(chan struct{})
	var startOnce sync.Once
	gate := make(chan struct{})
	var gateOnce sync.Once
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{
		Point: "chase.round", Action: limits.ActHook,
		Hook: func() {
			startOnce.Do(func() { close(start) })
			select {
			case <-gate:
			case <-time.After(5 * time.Second):
			}
		},
	}))
	release = func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	t.Cleanup(restore)
	return start, release
}

func TestServeQueueFullSheds503(t *testing.T) {
	_, ts, o := newTestServer(t, Config{
		Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueue: -1, QueueTimeout: time.Second},
	})
	started, release := blockEvaluations(t)

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	}()
	<-started

	// Overload sheds rather than queues (the counter below is queue_full, not
	// queue_timeout) and says when to come back in both places a client looks.
	status, body, hdr := postTraced(t, ts.URL+"/query", "", QueryRequest{Program: testProgram})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (body %s), want 503", status, body)
	}
	f := decodeFailure(t, body)
	if f.RetryAfterMS <= 0 {
		t.Fatalf("503 without retry_after_ms: %+v", f)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if o.Registry().Counter("serve.shed.queue_full") != 1 {
		t.Fatal("serve.shed.queue_full counter not bumped")
	}
	release()
	<-blocked
}

func TestServeQueueTimeoutSheds503(t *testing.T) {
	_, ts, o := newTestServer(t, Config{
		Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 30 * time.Millisecond},
	})
	started, release := blockEvaluations(t)

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	}()
	<-started

	status, resp := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (body %s), want 503", status, resp)
	}
	if o.Registry().Counter("serve.shed.queue_timeout") != 1 {
		t.Fatal("serve.shed.queue_timeout counter not bumped")
	}
	release()
	<-blocked
}

// TestServeRetryAfterHeader pins the Retry-After header on shed responses.
func TestServeRetryAfterHeader(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	go s.Drain(context.Background())
	for !s.isDraining() {
		time.Sleep(time.Millisecond)
	}
	body, _ := json.Marshal(QueryRequest{Program: testProgram})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
}

// TestServeMidDrainRejection holds a request in flight, starts a drain, and
// checks that (a) new requests shed immediately, (b) readiness flips, and
// (c) the drain completes once the in-flight request finishes.
func TestServeMidDrainRejection(t *testing.T) {
	s, ts, o := newTestServer(t, Config{
		Admission: AdmissionConfig{MaxConcurrent: 2, MaxQueue: 4, QueueTimeout: time.Second},
	})
	started, release := blockEvaluations(t)

	inFlightStatus := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
		inFlightStatus <- status
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.isDraining() {
		time.Sleep(time.Millisecond)
	}

	// New work is shed while draining.
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain status = %d (body %s), want 503", status, body)
	}
	if o.Registry().Counter("serve.shed.draining") != 1 {
		t.Fatal("serve.shed.draining counter not bumped")
	}
	// Readiness flips so the balancer stops routing here.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}

	// The in-flight request is NOT canceled by a patient drain: it finishes
	// normally, then the drain completes.
	select {
	case err := <-drained:
		t.Fatalf("drain finished with a request still in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if status := <-inFlightStatus; status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status = %d, want 200", status)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeDrainDeadlineCancelsStragglers pins the hard edge of shutdown: a
// drain whose context expires cancels in-flight evaluations instead of
// waiting forever, and still unwinds cleanly.
func TestServeDrainDeadlineCancelsStragglers(t *testing.T) {
	s, ts, o := newTestServer(t, Config{})
	s.SetGraph(chainGraph(t, 50))
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{
		Point: "chase.round", Action: limits.ActHook,
		Hook: func() { time.Sleep(5 * time.Millisecond) },
	}))
	defer restore()

	statusCh := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: chainProgram})
		statusCh <- status
	}()
	// Let the evaluation get going.
	for i := 0; o.Registry().Counter("serve.requests") == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("drain should report that it canceled stragglers")
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("drain took %s; cancellation did not unwind the straggler", took)
	}
	// The straggler got a canceled-taxonomy response.
	if status := <-statusCh; status != http.StatusServiceUnavailable {
		t.Fatalf("straggler status = %d, want 503 (canceled)", status)
	}
	if o.Registry().Counter("serve.canceled") != 1 {
		t.Fatal("serve.canceled counter not bumped")
	}
}

// TestServeClientDisconnectCancelsEvaluation pins request-context
// propagation: when the client goes away, the evaluation is canceled rather
// than running to completion.
func TestServeClientDisconnectCancelsEvaluation(t *testing.T) {
	s, ts, o := newTestServer(t, Config{})
	s.SetGraph(chainGraph(t, 50))
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{
		Point: "chase.round", Action: limits.ActHook,
		Hook: func() { time.Sleep(5 * time.Millisecond) },
	}))
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(QueryRequest{Program: chainProgram})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	for i := 0; o.Registry().Counter("serve.requests") == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client cancel should abort the HTTP request")
	}
	// The server-side evaluation must unwind as canceled, promptly.
	deadline := time.Now().Add(2 * time.Second)
	for o.Registry().Counter("serve.canceled") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("evaluation was not canceled after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The counter is bumped before the handler returns and releases its
	// admission slot, so the slot may still be held for a moment.
	for got := s.adm.inflight(); got != 0; got = s.adm.inflight() {
		if time.Now().After(deadline) {
			t.Fatalf("inflight after disconnect = %d, want 0", got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneClientsDeadlinesDoNotShedAnother pins that the server sheds by
// cost, not by history: a run of requests blowing their own 1 ms deadline
// over a 300-node chain are each a 504, and a cheap request sent after them
// — from any client — is still answered 200. A failure says only that the
// same request will fail again, so no earlier outcome may refuse a later
// request.
func TestOneClientsDeadlinesDoNotShedAnother(t *testing.T) {
	s := New(Config{})
	s.SetGraph(chainGraph(t, 300))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 12; i++ {
		status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: chainProgram, TimeoutMS: 1})
		if status != http.StatusGatewayTimeout {
			t.Fatalf("slow request %d: status = %d (body %s), want 504", i, status, body)
		}
	}
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{
		Program: "triple(?X, next, ?Y) -> query(?X, ?Y).",
	})
	if status != http.StatusOK {
		t.Fatalf("cheap request after the slow ones: status = %d (body %s), want 200", status, body)
	}
}

// TestTimeoutOf pins how a request's timeout_ms resolves against the server's
// default and cap: unset or non-positive takes the default, anything at or
// past the cap is the cap — including values whose scaling to a Duration
// would overflow int64 and wrap negative.
func TestTimeoutOf(t *testing.T) {
	const def, max = 10 * time.Second, 60 * time.Second
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, def},
		{-5, def},
		{1500, 1500 * time.Millisecond},
		{max.Milliseconds(), max},
		{max.Milliseconds() + 1, max},
		{1 << 62, max},
		{math.MaxInt64, max},
	} {
		r := QueryRequest{TimeoutMS: tc.ms}
		if got := r.timeoutOf(def, max); got != tc.want {
			t.Errorf("timeoutOf(timeout_ms=%d) = %v, want %v", tc.ms, got, tc.want)
		}
	}
	// Over HTTP, a timeout_ms far past the cap is capped, not wrapped into
	// an already-expired deadline.
	_, ts, _ := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram, TimeoutMS: 10000000000000})
	if status != http.StatusOK {
		t.Fatalf("timeout_ms=10000000000000: status = %d (body %s), want 200", status, body)
	}
}

func TestServeHealthAndMetricsEndpoints(t *testing.T) {
	o := obs.New()
	s := New(Config{Obs: o})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 even before a graph loads", status)
	}
	// Not ready before a graph is installed.
	if status, _ := get("/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz without graph = %d, want 503", status)
	}
	g, err := repro.ParseGraph(testData)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGraph(g)
	if status, _ := get("/readyz"); status != http.StatusOK {
		t.Fatalf("readyz with graph = %d, want 200", status)
	}
	// A query populates the registry; /metrics must expose it.
	if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
		t.Fatal("query failed")
	}
	status, metrics := get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics = %d, want 200", status)
	}
	for _, want := range []string{"serve_inflight", "serve_queue_depth", "serve_latency_us_bucket{le="} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if status, _ := get("/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("pprof = %d, want 200", status)
	}
}

// topOntology is inconsistent under the OWL 2 QL core regimes: bob is
// advised, so a student, so a person — and also a course, disjoint from
// person.
const topOntology = `SubClassOf(student, person) SubClassOf(∃advises⁻, student)
	DisjointClasses(person, course)
	ObjectPropertyAssertion(advises, ada, bob) ClassAssertion(course, bob)`

// TestServeSPARQLInconsistent pins /sparql over ⊤: 200 {"inconsistent":true}
// with no rows, with and without a report (the handler used to
// nil-dereference the mapping set ⊤ does not have) and on the exact path as on
// the default one, and each request counts serve.ok and files its trace.
func TestServeSPARQLInconsistent(t *testing.T) {
	s, ts, o := newTestServer(t, Config{Trace: TraceConfig{Sample: 1}})
	onto, err := repro.ParseOntology(topOntology)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGraph(onto.ToGraph())

	for _, exact := range []bool{false, true} {
		for _, explain := range []bool{false, true} {
			status, body := postJSON(t, ts.URL+"/sparql", QueryRequest{
				Query: "SELECT ?X WHERE { ?X rdf:type person }", Regime: "active-domain", Exact: exact, Explain: explain,
			})
			if status != http.StatusOK {
				t.Fatalf("exact=%v explain=%v: status = %d, body %s", exact, explain, status, body)
			}
			qr := decodeResponse(t, body)
			if !qr.Inconsistent || len(qr.Rows) != 0 || qr.Incomplete {
				t.Errorf("exact=%v explain=%v: got %+v, want inconsistent and no rows", exact, explain, qr)
			}
			if (qr.Explain != nil) != explain {
				t.Errorf("exact=%v explain=%v: report present = %v", exact, explain, qr.Explain != nil)
			}
			if s.traces.store.Get(qr.TraceID) == nil {
				t.Errorf("exact=%v explain=%v: trace %q was not finished and filed", exact, explain, qr.TraceID)
			}
		}
	}
	if got := o.Registry().Counter("serve.ok"); got != 4 {
		t.Errorf("serve.ok = %d, want 4", got)
	}
}

// TestServeExplainDoesNotChangeTheAnswer: what a request is told never
// depends on whether it asked for a report. For both endpoints, chase and
// exact, the response with ?explain=1 equals the response without it once the
// report itself and the per-request measurements are dropped. (/sparql used
// to report "exact" only when explained.)
func TestServeExplainDoesNotChangeTheAnswer(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	answer := func(t *testing.T, url string, req QueryRequest) map[string]any {
		t.Helper()
		status, body := postJSON(t, url, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", url, status, body)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"explain", "resources", "elapsed_us", "trace_id"} {
			delete(m, k)
		}
		return m
	}
	for _, exact := range []bool{false, true} {
		for endpoint, req := range map[string]QueryRequest{
			"/query":  {Program: testProgram, Exact: exact},
			"/sparql": {Query: "SELECT ?X ?Y WHERE { ?X partOf ?Y }", Exact: exact},
		} {
			plain := answer(t, ts.URL+endpoint, req)
			explained := answer(t, ts.URL+endpoint+"?explain=1", req)
			if !reflect.DeepEqual(plain, explained) {
				t.Errorf("%s exact=%v: plain %v, explained %v", endpoint, exact, plain, explained)
			}
			if plain["exact"] != true {
				t.Errorf("%s exact=%v: response %v does not report a saturated evaluation", endpoint, exact, plain)
			}
		}
	}
}

// TestHandleReleasesHeldOnPanic: what a body holds — the admission slot —
// is released even when the handler panics, as a deferred release was; a
// leaked slot would shrink the server for good.
func TestHandleReleasesHeldOnPanic(t *testing.T) {
	s := New(Config{})
	released := false
	defer func() {
		if recover() == nil || !released {
			t.Fatalf("released = %v after a panicking body, want the panic passed on and the hold released", released)
		}
	}()
	s.handle(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query", nil), "query",
		func(rq *request) outcome {
			rq.hold(func() { released = true })
			panic("boom")
		})
}
