package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
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
	if cfg.Breaker.Window == 0 {
		cfg.Breaker.Disabled = true // most tests don't want breaker coupling
	}
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
	if qr.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", qr.Attempts)
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

// TestServeRetryAbsorbsTransientFault pins the retry path: a fault that
// fires once and recovers yields a 200 on the second attempt.
func TestServeRetryAbsorbsTransientFault(t *testing.T) {
	_, ts, o := newTestServer(t, Config{})
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{
		Point: "chase.rule", Times: 1, // ActError, fail once then recover
	}))
	defer restore()
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatalf("status = %d (body %s), want 200 after retry", status, body)
	}
	qr := decodeResponse(t, body)
	if qr.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", qr.Attempts)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("rows = %v, want the full answer", qr.Rows)
	}
	if o.Registry().Counter("serve.retries") != 1 {
		t.Fatal("serve.retries counter not bumped")
	}
}

// TestServeRetriesExhaustedIs500 pins the other side: a fault that never
// clears exhausts the retry budget and surfaces as a 500 with the injected
// taxonomy name.
func TestServeRetriesExhaustedIs500(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Retry: RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond}})
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{Point: "chase.rule"}))
	defer restore()
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d (body %s), want 500", status, body)
	}
	if f := decodeFailure(t, body); f.Limit != limits.LimitInjected {
		t.Fatalf("failure.limit = %q, want %q", f.Limit, limits.LimitInjected)
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

// TestServeBreakerOpensAndRecovers drives the breaker through its whole
// cycle over HTTP: persistent 500s open it, the open breaker sheds with
// Retry-After, and after the open interval a healthy probe closes it.
func TestServeBreakerOpensAndRecovers(t *testing.T) {
	o := obs.New()
	s := New(Config{
		Obs:     o,
		Breaker: BreakerConfig{Window: 8, MinSamples: 2, FailureRatio: 0.5, OpenFor: time.Hour, HalfOpenProbes: 1},
		Retry:   RetryConfig{MaxAttempts: 1},
	})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.breakers["query"].now = clk.now
	g, err := repro.ParseGraph(testData)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGraph(g)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{Point: "chase.rule"}))
	for i := 0; i < 2; i++ {
		if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want 500", i, status)
		}
	}
	// Breaker is open now: requests shed without evaluating.
	status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status with open breaker = %d (body %s), want 503", status, body)
	}
	if o.Registry().Counter("serve.shed.breaker") != 1 {
		t.Fatal("serve.shed.breaker counter not bumped")
	}
	restore() // the fault clears

	// Still open before the interval elapses…
	if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusServiceUnavailable {
		t.Fatalf("breaker closed too early: status = %d", status)
	}
	// …and after it, a healthy probe closes the circuit.
	clk.advance(2 * time.Hour)
	if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
		t.Fatalf("probe after open interval: status = %d, want 200", status)
	}
	if got := s.breakers["query"].snapshot(); got != "closed" {
		t.Fatalf("breaker state = %s, want closed", got)
	}
	if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
		t.Fatalf("closed breaker must pass traffic: status = %d", status)
	}
}

func TestServeHealthAndMetricsEndpoints(t *testing.T) {
	o := obs.New()
	s := New(Config{Obs: o, Breaker: BreakerConfig{Disabled: true}})
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
	for _, want := range []string{"serve_breaker_state_query", "serve_inflight", "serve_queue_depth", "serve_latency_us_bucket{le="} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if status, _ := get("/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("pprof = %d, want 200", status)
	}
}

// TestRetryBackoffRespectsContext checks the retry helper sleeps with
// jittered backoff but gives up as soon as the context dies.
func TestRetryBackoffRespectsContext(t *testing.T) {
	j := newJitter(1)
	calls := 0
	attempts, err := withRetry(context.Background(), RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond}, j, func() error {
		calls++
		if calls < 3 {
			return limits.NewError(limits.ErrInjected, limits.Truncation{})
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("attempts=%d err=%v, want 3 attempts and success", attempts, err)
	}

	// Non-retryable errors return immediately.
	calls = 0
	_, err = withRetry(context.Background(), RetryConfig{MaxAttempts: 5}, j, func() error {
		calls++
		return limits.NewError(limits.ErrDeadline, limits.Truncation{})
	})
	if calls != 1 || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("calls=%d err=%v, want exactly one call with the deadline error", calls, err)
	}

	// A canceled context aborts the backoff sleep.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = withRetry(ctx, RetryConfig{MaxAttempts: 5, BaseDelay: time.Hour, MaxDelay: time.Hour}, j, func() error {
		return limits.NewError(limits.ErrInjected, limits.Truncation{})
	})
	if err == nil {
		t.Fatal("want a context error")
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
// the default one, and each request counts serve.ok, reports to the breaker
// and files its trace.
func TestServeSPARQLInconsistent(t *testing.T) {
	s, ts, o := newTestServer(t, Config{
		Trace:   TraceConfig{Sample: 1},
		Breaker: BreakerConfig{Window: 8, MinSamples: 1, FailureRatio: 0.5},
	})
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
	b := s.breakers["sparql"]
	b.mu.Lock()
	reported, failures := b.filled, b.failures
	b.mu.Unlock()
	if reported != 4 || failures != 0 || b.snapshot() != "closed" {
		t.Errorf("breaker saw %d outcomes (%d failures), state %s; want 4 clean outcomes, closed",
			reported, failures, b.snapshot())
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
