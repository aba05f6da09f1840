// Package serve is the resilient query-serving layer over the repro facade:
// bounded-concurrency admission control with FIFO queueing and load
// shedding, per-request deadlines mapped onto the limits error taxonomy,
// in-server retries for transient faults, a per-endpoint circuit breaker,
// and graceful drain. cmd/triqd is the thin binary around it.
//
// The HTTP status contract (also documented in the README):
//
//	200 — answers, including budget-truncated partial answers (Incomplete
//	      plus a Truncation report in the body)
//	400 — malformed request: bad JSON, unparseable program/query, unknown
//	      lang/regime, dialect validation failure
//	500 — internal error (recovered panic) or a transient fault that
//	      survived every retry
//	503 — load shed: queue full, queue deadline exceeded, circuit open,
//	      draining, still recovering the WAL, or a bounded-staleness wait
//	      that expired; always carries Retry-After
//	504 — the per-request evaluation deadline expired
//
// Mutations (POST /insert, POST /delete) add:
//
//	413 — request body over the configured size cap
//	501 — the server has no store (query-only deployment)
//	503 — the node is an unpromoted replica (the primary's address rides
//	      the X-Triq-Primary header and Failure.Primary; with ProxyWrites
//	      the write is forwarded instead), or the store latched read-only
//	      after a WAL write failure
//
// Replication (internal/repl) rides the same surface: GET /repl/stream is
// the primary's record stream, POST /repl/promote flips a replica into a
// writable primary (409 on a non-replica), every query response carries
// the pinned epoch in the X-Triq-Epoch header and QueryResponse.Epoch, and
// requests demand freshness with min_epoch / X-Triq-Min-Epoch — the
// bounded-staleness token that buys read-your-writes on any replica.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	rtpprof "runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/limits"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/slo"
	"repro/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Admission bounds concurrent evaluations and the wait queue.
	Admission AdmissionConfig
	// Breaker tunes the per-endpoint circuit breakers.
	Breaker BreakerConfig
	// Retry tunes in-server retries of transient faults.
	Retry RetryConfig
	// DefaultTimeout is the per-request evaluation deadline when the request
	// does not set one (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 60s).
	MaxTimeout time.Duration
	// Obs receives server metrics (and is exported by /metrics and
	// /metrics.json). Nil disables.
	Obs *obs.Obs
	// SlowLog configures the slow-query log (/debug/slowlog). A zero
	// Threshold disables it.
	SlowLog SlowLogConfig
	// Progress, when non-nil, is the shared live chase progress gauge every
	// evaluation reports into (served at /debug/progress). New installs one
	// automatically when nil.
	Progress *repro.Progress
	// Parallelism is ignored: the chase is sequential. Declared only because
	// benchmark/layers.go sets it (to 1); delete with ROADMAP item 1(a).
	Parallelism int
	// Seed seeds the retry jitter; 0 uses a fixed seed (fine for a server,
	// handy for tests).
	Seed int64
	// Trace configures request-scoped tracing (traceparent propagation,
	// sampling, the /debug/trace store). Enabled by default; set
	// Trace.Disable to turn it off.
	Trace TraceConfig
	// AutoProfile configures slow-query auto-profiling; a zero Dir disables.
	AutoProfile AutoProfileConfig
	// HealthInterval is the runtime health sampling cadence for the
	// go_goroutines / heap / GC-pause gauges on /metrics (0 = 10s; negative
	// disables). Sampling requires Obs.
	HealthInterval time.Duration
	// MaxBodyBytes caps request bodies on every POST endpoint (default
	// 8 MiB; negative disables). Oversized bodies get 413.
	MaxBodyBytes int64
	// StalenessWait bounds how long a query carrying a min-epoch token waits
	// for the local store to catch up before shedding 503 + Retry-After
	// (default 2s; negative sheds stale reads immediately).
	StalenessWait time.Duration
	// ReplHeartbeat is the idle-stream heartbeat cadence of GET /repl/stream
	// (default repl.DefaultHeartbeat).
	ReplHeartbeat time.Duration
	// ProxyWrites forwards writes arriving at a replica to its primary
	// instead of rejecting them with 503 + the primary's address.
	ProxyWrites bool
	// Mat, when non-nil, serves queries pinned to the materializer's epoch
	// from incrementally maintained materializations (wire the same instance
	// as store.Config.OnCommit so commits keep it caught up). Queries that
	// miss fall back to the from-scratch chase.
	Mat *mat.Materializer
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.StalenessWait == 0 {
		c.StalenessWait = 2 * time.Second
	}
	return c
}

// Server is the query service. Build with New, install a graph with
// SetGraph (readiness flips only then), mount Handler on an http.Server,
// and stop with Drain.
type Server struct {
	cfg      Config
	adm      *admission
	jit      *jitter
	obs      *obs.Obs
	slow     *slowLog
	progress *repro.Progress
	traces   *tracer
	autoprof *autoProfiler
	health   *obs.HealthCollector

	mu    sync.RWMutex
	graph *repro.Graph
	store *store.Store
	rep   *repl.Replica
	watch *slo.Watchdog // SLO burn-rate watchdog behind /debug/alerts

	// proxy forwards replica-received writes to the primary (ProxyWrites).
	proxy *http.Client

	// recovering is set while boot-time WAL replay runs; /readyz reports 503
	// {"state":"recovering"} and mutations shed until it clears.
	recovering atomic.Bool

	draining  chan struct{} // closed by Drain
	drainOnce sync.Once
	hardStop  context.Context // canceled when drain gives up on stragglers
	hardKill  context.CancelFunc

	// In-flight evaluation tracking. A plain WaitGroup would race Add
	// against Drain's Wait (requests that passed the draining check are
	// still arriving); a counter under a mutex with a condvar has no such
	// constraint.
	trackMu   sync.Mutex
	trackCond *sync.Cond
	trackN    int

	breakers map[string]*breaker
}

// New builds a Server; it is not ready until SetGraph is called.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Progress == nil {
		cfg.Progress = &repro.Progress{}
	}
	hardStop, hardKill := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.Admission),
		jit:      newJitter(cfg.Seed + 1),
		obs:      cfg.Obs,
		slow:     newSlowLog(cfg.SlowLog),
		progress: cfg.Progress,
		draining: make(chan struct{}),
		hardStop: hardStop,
		hardKill: hardKill,
		breakers: map[string]*breaker{
			"query":  newBreaker(cfg.Breaker),
			"sparql": newBreaker(cfg.Breaker),
		},
		proxy: &http.Client{Timeout: 30 * time.Second},
	}
	s.trackCond = sync.NewCond(&s.trackMu)
	s.traces = newTracer(cfg.Trace, cfg.Obs, cfg.SlowLog.Threshold)
	s.autoprof = newAutoProfiler(cfg.AutoProfile, cfg.SlowLog.Threshold, cfg.Obs)
	if cfg.Obs.Enabled() && cfg.HealthInterval >= 0 {
		s.health = obs.StartHealth(cfg.Obs.Registry(), cfg.HealthInterval)
	}
	return s
}

// trackBegin / trackEnd bracket one in-flight evaluation.
func (s *Server) trackBegin() {
	s.trackMu.Lock()
	s.trackN++
	s.trackMu.Unlock()
}

func (s *Server) trackEnd() {
	s.trackMu.Lock()
	s.trackN--
	if s.trackN == 0 {
		s.trackCond.Broadcast()
	}
	s.trackMu.Unlock()
}

// SetGraph installs the dataset and marks the server ready. It may be called
// again to swap datasets; in-flight evaluations keep the graph they started
// with (a Graph is immutable).
func (s *Server) SetGraph(g *repro.Graph) {
	s.mu.Lock()
	s.graph = g
	s.mu.Unlock()
}

// SetStore installs the durable store: queries read its live epoch (each
// request pins the epoch current at admission), and POST /insert / /delete
// come alive. Readiness still requires SetRecovering(false).
func (s *Server) SetStore(st *store.Store) {
	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
}

// SetRecovering flips the recovery gate: while true, /readyz reports
// {"state":"recovering"} with 503 and mutations shed. triqd sets it before
// WAL replay and clears it once the recovered epoch is live.
func (s *Server) SetRecovering(v bool) { s.recovering.Store(v) }

// SetReplica installs the replication handle: /readyz reports the replica
// states, writes proxy-or-503 to the primary, /repl/promote comes alive,
// and the repl.* gauges appear on /metrics. Install it before starting the
// replica so no state transition is missed.
func (s *Server) SetReplica(rep *repl.Replica) {
	s.mu.Lock()
	s.rep = rep
	s.mu.Unlock()
}

func (s *Server) storeNow() *store.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store
}

func (s *Server) replicaNow() *repl.Replica {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rep
}

// asReplica returns the replica handle iff the node currently refuses
// local writes: a configured replica that has not been promoted.
func (s *Server) asReplica() (*repl.Replica, bool) {
	rep := s.replicaNow()
	return rep, rep != nil && !rep.IsPromoted()
}

func (s *Server) graphNow() *repro.Graph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.store != nil {
		return s.store.Current().Graph
	}
	return s.graph
}

// pinEpoch atomically pins the graph a request evaluates against together
// with the epoch token it advertises. Graph-only deployments (no store)
// have no epochs and report ok=false.
func (s *Server) pinEpoch() (*repro.Graph, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.store != nil {
		cur := s.store.Current()
		return cur.Graph, cur.Seq, true
	}
	return s.graph, 0, false
}

// isDraining reports whether Drain has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Drain begins graceful shutdown: readiness flips to 503, new queries are
// shed, and Drain blocks until in-flight evaluations finish. If ctx expires
// first, stragglers are canceled (they abort with the taxonomy's canceled
// error) and Drain waits for them to unwind. The caller still owns the
// http.Server and should run its Shutdown alongside.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.draining) })
	done := make(chan struct{})
	go func() {
		s.trackMu.Lock()
		for s.trackN > 0 {
			s.trackCond.Wait()
		}
		s.trackMu.Unlock()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.hardKill()
		<-done // cancellation unwinds evaluations promptly
		err = errors.New("serve: drain deadline expired; stragglers were canceled")
	}
	s.health.Stop()
	s.autoprof.drain()
	return err
}

// Handler mounts the service endpoints:
//
//	POST /query   — Datalog (TriQ) evaluation (?explain=1 for telemetry)
//	POST /sparql  — SPARQL evaluation under a regime (?explain=1 likewise)
//	POST /insert  — apply an N-Triples batch atomically (requires a store)
//	POST /delete  — remove an N-Triples batch atomically (requires a store)
//	GET  /healthz — liveness (200 while the process runs)
//	GET  /readyz  — readiness JSON {"state":...}: 200 "ready" only with data
//	               loaded, not draining, and recovery finished; 503 with
//	               "recovering", "draining", or "empty" otherwise. A
//	               replica reports 200 {"state":"replica","lag_epochs":N,
//	               "primary":addr} once streaming, 503 "catching-up" before
//	GET  /repl/stream   — the primary's WAL record stream (octet-stream;
//	                      ?from=<epoch> resumes, snapshot fallback below the
//	                      retained changelog; requires a store)
//	POST /repl/promote  — promote this replica to a writable primary (409
//	                      when the node is not a replica)
//	GET  /metrics — Prometheus text exposition (counters, gauges, histograms
//	                with cumulative buckets)
//	GET  /metrics.json    — the same registry as structured JSON
//	GET  /debug/slowlog   — retained slow-query entries, oldest first
//	GET  /debug/progress  — live chase progress snapshot
//	GET  /debug/trace     — retained request traces (?id=<hex> for one
//	                        trace as OTLP-shaped JSON with the span tree
//	                        and resource account)
//	GET  /debug/epochs    — the store's epoch timeline: per-stage wall-clock
//	                        stamps (append/sync/mat/commit/checkpoint/ship/
//	                        apply) for every retained epoch
//	GET  /debug/alerts    — the SLO watchdog's alert states (firing/cleared,
//	                        windowed values, pinned traces, profile links)
//	     /debug/pprof/    — runtime profiles
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	post := func(endpoint string, body func(*request) outcome) {
		mux.HandleFunc("POST /"+endpoint, func(w http.ResponseWriter, r *http.Request) {
			s.handle(w, r, endpoint, body)
		})
	}
	post("query", s.serveQuery)
	post("sparql", s.serveQuery)
	post("insert", s.serveMutation)
	post("delete", s.serveMutation)
	mux.HandleFunc("GET /repl/stream", s.serveReplStream)
	mux.HandleFunc("POST /repl/promote", s.servePromote)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		s.serveReadyz(w)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		reg := s.metricsRegistry()
		w.Header().Set("Content-Type", obs.PromContentType)
		reg.WritePrometheus(w)
		obs.WriteBuildInfoProm(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.metricsRegistry().Snapshot())
	})
	mux.HandleFunc("GET /debug/slowlog", func(w http.ResponseWriter, _ *http.Request) {
		entries, total := s.slow.entries()
		if entries == nil {
			entries = []SlowEntry{}
		}
		writeJSON(w, http.StatusOK, struct {
			Enabled     bool        `json:"enabled"`
			ThresholdMS int64       `json:"threshold_ms,omitempty"`
			Total       int64       `json:"total"`
			Entries     []SlowEntry `json:"entries"`
		}{
			Enabled:     s.slow.enabled(),
			ThresholdMS: s.cfg.SlowLog.Threshold.Milliseconds(),
			Total:       total,
			Entries:     entries,
		})
	})
	mux.HandleFunc("GET /debug/progress", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.progress.Snapshot())
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if s.traces == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		if id := r.URL.Query().Get("id"); id != "" {
			t := s.traces.store.Get(id)
			if t == nil {
				http.Error(w, "trace not found (evicted or never sampled)", http.StatusNotFound)
				return
			}
			writeJSON(w, http.StatusOK, s.traces.store.OTLP(t))
			return
		}
		rows, added, evicted := s.traces.store.List()
		if rows == nil {
			rows = []obs.TraceSummary{}
		}
		writeJSON(w, http.StatusOK, struct {
			Sample  float64            `json:"sample"`
			Added   int64              `json:"added"`
			Evicted int64              `json:"evicted"`
			Traces  []obs.TraceSummary `json:"traces"`
		}{s.traces.cfg.Sample, added, evicted, rows})
	})
	mux.HandleFunc("GET /debug/epochs", func(w http.ResponseWriter, _ *http.Request) {
		st := s.storeNow()
		if st == nil {
			http.Error(w, "no store (query-only deployment)", http.StatusNotFound)
			return
		}
		snap := st.Timeline().Snapshot()
		type row struct {
			Epoch  uint64           `json:"epoch"`
			Stages map[string]int64 `json:"stages"` // stage → unix nanos
		}
		rows := make([]row, 0, len(snap))
		for _, es := range snap {
			rows = append(rows, row{Epoch: es.Epoch, Stages: es.Stages()})
		}
		writeJSON(w, http.StatusOK, struct {
			Epoch  uint64 `json:"epoch"`
			Epochs []row  `json:"epochs"`
		}{st.Current().Seq, rows})
	})
	mux.HandleFunc("GET /debug/alerts", func(w http.ResponseWriter, _ *http.Request) {
		s.serveAlerts(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveReadyz renders the readiness JSON. Replica states ride the same
// endpoint: "catching-up" (503) until the stream is live — reads before
// that would be arbitrarily stale — then "replica" (200) with the lag and
// the primary's address; a promoted ex-replica reports plain "ready".
func (s *Server) serveReadyz(w http.ResponseWriter) {
	type readiness struct {
		State      string  `json:"state"`
		Epoch      uint64  `json:"epoch,omitempty"`
		LagEpochs  uint64  `json:"lag_epochs,omitempty"`
		LagSeconds float64 `json:"lag_seconds,omitempty"`
		Primary    string  `json:"primary,omitempty"`
	}
	var ready readiness
	status := http.StatusOK
	rep, isReplica := s.asReplica()
	switch {
	case s.isDraining():
		ready.State = "draining"
		status = http.StatusServiceUnavailable
	case s.recovering.Load():
		ready.State = "recovering"
		status = http.StatusServiceUnavailable
	case isReplica:
		rst := rep.State()
		ready.Epoch = rst.Epoch
		ready.LagEpochs = rst.LagEpochs
		ready.LagSeconds = rst.LagSeconds
		ready.Primary = rst.Primary
		if rst.State == repl.StateReplica {
			ready.State = "replica"
		} else {
			ready.State = "catching-up"
			status = http.StatusServiceUnavailable
		}
	case s.graphNow() == nil:
		ready.State = "empty"
		status = http.StatusServiceUnavailable
	default:
		ready.State = "ready"
		if st := s.storeNow(); st != nil {
			ready.Epoch = st.Current().Seq
		}
	}
	writeJSON(w, status, ready)
}

// serveReplStream serves the primary's record stream (GET /repl/stream).
// A promoted ex-replica serves it too — that is how a failed-over pair
// re-forms with the roles swapped.
func (s *Server) serveReplStream(w http.ResponseWriter, r *http.Request) {
	st := s.storeNow()
	if st == nil {
		s.fail(w, http.StatusNotImplemented,
			errors.New("serve: no store configured (replication needs one)"), "")
		return
	}
	if s.isDraining() {
		s.count("serve.shed")
		s.count("serve.shed.draining")
		s.fail(w, http.StatusServiceUnavailable, ErrDraining, "")
		return
	}
	s.count("serve.repl_streams")
	repl.StreamHandler(st, s.obs, repl.StreamOptions{Heartbeat: s.cfg.ReplHeartbeat}).ServeHTTP(w, r)
}

// servePromote flips a replica into a writable primary (POST /repl/promote)
// and returns the resulting replica state. Idempotent — promoting an
// already-promoted node is a 200 — but a node that was never a replica is
// a 409.
func (s *Server) servePromote(w http.ResponseWriter, _ *http.Request) {
	rep := s.replicaNow()
	if rep == nil {
		s.fail(w, http.StatusConflict, errors.New("serve: not a replica"), "")
		return
	}
	rep.Promote("api request")
	s.count("serve.promotions")
	writeJSON(w, http.StatusOK, rep.State())
}

// metricsRegistry returns the registry backing /metrics and /metrics.json
// with the point-in-time server gauges (inflight, queue depth, breaker
// states) refreshed. With observability disabled it builds a gauges-only
// registry per call.
func (s *Server) metricsRegistry() *obs.Registry {
	reg := s.obs.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.SetGauge("serve.inflight", float64(s.adm.inflight()))
	reg.SetGauge("serve.queue_depth", float64(s.adm.depth()))
	reg.SetGauge("serve.queue_depth_hwm", float64(s.adm.queueHWM()))
	if st := s.storeNow(); st != nil {
		cur := st.Current()
		reg.SetGauge("store.epoch", float64(cur.Seq))
		reg.SetGauge("store.triples", float64(cur.Graph.Len()))
		reg.SetGauge("store.readonly", boolGauge(st.ReadOnly()))
	}
	if rep := s.replicaNow(); rep != nil {
		rst := rep.State()
		reg.SetGauge("repl.lag_epochs", float64(rst.LagEpochs))
		reg.SetGauge("repl.lag_seconds", rst.LagSeconds)
		reg.SetGauge("repl.primary_epoch", float64(rst.PrimaryEpoch))
		reg.SetGauge("repl.connected", boolGauge(rst.Connected))
		reg.SetGauge("repl.promoted", boolGauge(rst.State == repl.StatePromoted))
	}
	if m := s.cfg.Mat; m != nil {
		mst := m.Snapshot()
		reg.SetGauge("mat.epoch", float64(mst.Epoch))
		reg.SetGauge("mat.programs", float64(mst.Programs))
		reg.SetGauge("mat.facts", float64(mst.Facts))
	}
	for name, b := range s.breakers {
		reg.SetGauge("serve.breaker_state."+name, breakerStateNum(b.snapshot()))
	}
	return reg
}

// boolGauge is the 0/1 gauge encoding of a flag.
func boolGauge(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// breakerStateNum maps a breaker state name to its gauge encoding:
// closed=0, half-open=1, open=2, disabled=-1.
func breakerStateNum(state string) float64 {
	switch state {
	case "closed":
		return 0
	case "half-open":
		return 1
	case "open":
		return 2
	default:
		return -1
	}
}

// count is a nil-safe metrics increment.
func (s *Server) count(name string) {
	if s.obs.Enabled() {
		s.obs.Count(name, 1)
	}
}

// request is the scope handle opens for one request and lends to its body.
type request struct {
	w        http.ResponseWriter
	r        *http.Request
	endpoint string
	rt       *reqTrace // nil when tracing is off
	start    time.Time
	// queueWait is how long the request waited for its admission slot.
	queueWait time.Duration
	// held is what the body acquired and must keep until the response is out
	// — the admission slot, the drain's in-flight count.
	held []func()
}

// hold registers f to run when handle is done with the request, last held
// first: where a body would defer f, but past its own return.
func (rq *request) hold(f func()) { rq.held = append(rq.held, f) }

// outcome is what a request body returns to handle: how the request ended,
// and what is left to do about it on the way out.
type outcome struct {
	// status is the HTTP status of the response.
	status int
	// ok renders the 200 body. handle calls it after the trace is closed, so
	// the body carries the final resource account.
	ok func() any
	// err is the failure behind a non-200 status, rendered as the taxonomy
	// wire error.
	err error
	// shed marks a load shed: the 503 is counted in serve.shed — the
	// numerator of the shed-rate SLO — beside its per-cause serve.shed.*
	// counter. (A client gone while queued and a read-only store are 503s
	// with a retry hint too, but no sheds.)
	shed bool
	// primary is the primary's address when a replica refuses a write.
	primary string
	// relayed is set when the response is already out: a proxied write
	// relays the primary's verbatim.
	relayed bool
	// exec is the time the evaluation (or the store apply) took.
	exec time.Duration
	// evaluated is set once the request reached its evaluation; only such
	// requests feed the slow log and the auto-profiler. slow carries what
	// only the body knows of the entry: the full query text, the report,
	// truncation, the committed epoch and batch.
	evaluated bool
	slow      SlowEntry
}

func shedding(err error) outcome {
	return outcome{status: http.StatusServiceUnavailable, err: err, shed: true}
}

func failing(status int, err error) outcome { return outcome{status: status, err: err} }

// handle is the one way into and the one way out of /query, /sparql, /insert
// and /delete. Going in, it counts the request, opens its trace — before
// admission, so queue waits and sheds are visible in it and even a refused
// request echoes a traceparent — and sheds while draining. Coming out, it
// closes the trace (before the body is rendered, so the response and the
// explain report carry the final resource account), writes the response the
// outcome describes, and feeds the slow log: exactly once per evaluated
// request, never for one shed before evaluation.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, endpoint string, body func(*request) outcome) {
	s.count("serve.requests")
	rq := &request{w: w, r: r, endpoint: endpoint, start: time.Now()}
	rq.rt = s.traces.start(w, r, endpoint)
	defer func() { // also when the body or the write panics: a slot must not leak
		for i := len(rq.held) - 1; i >= 0; i-- {
			rq.held[i]()
		}
	}()
	var o outcome
	if s.isDraining() {
		s.count("serve.shed.draining")
		o = shedding(ErrDraining)
	} else {
		o = body(rq)
	}
	rq.rt.finish(o.status, rq.queueWait, o.exec, time.Since(rq.start))
	switch {
	case o.relayed: // the body already wrote the primary's response
	case o.err != nil:
		if o.shed {
			s.count("serve.shed")
		}
		s.fail(w, o.status, o.err, o.primary)
	default:
		writeJSON(w, o.status, o.ok())
	}
	if o.evaluated {
		s.recordSlow(rq, &o)
	}
}

// serveQuery is the body of the two query endpoints: breaker → admission →
// parse → pin an epoch → evaluate.
func (s *Server) serveQuery(rq *request) (o outcome) {
	w, r, rt := rq.w, rq.r, rq.rt
	done, err := s.breakers[rq.endpoint].allow()
	if err != nil {
		s.count("serve.shed.breaker")
		return shedding(err)
	}
	// Only server faults count against the breaker: a shed, a malformed
	// request or a stale replica is not the endpoint's fault.
	defer func() {
		done(o.status == http.StatusInternalServerError || o.status == http.StatusGatewayTimeout)
	}()

	admSpan := rt.span("serve.admission")
	release, err := s.adm.acquire(r.Context())
	rq.queueWait = time.Since(rq.start)
	admSpan.End(obs.F("queue_us", rq.queueWait.Microseconds()), obs.F("admitted", err == nil))
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.count("serve.shed.queue_full")
			return shedding(err)
		case errors.Is(err, ErrQueueTimeout):
			s.count("serve.shed.queue_timeout")
			return shedding(err)
		default: // client went away while queued
			s.count("serve.client_gone")
			return failing(http.StatusServiceUnavailable, limits.NewError(limits.ErrCanceled, limits.Truncation{}))
		}
	}
	rq.hold(release) // the slot covers writing the response too

	var req QueryRequest
	if err := json.NewDecoder(s.limitBody(w, r)).Decode(&req); err != nil {
		return s.badBody(err)
	}
	if r.URL.Query().Get("explain") == "1" {
		req.Explain = true
	}
	min, err := minEpochOf(&req, r)
	if err != nil {
		return failing(http.StatusBadRequest, err)
	}
	g, epoch, hasStore := s.pinEpoch()
	if g == nil {
		return shedding(errors.New("serve: no graph loaded"))
	}

	// Bounded staleness: a min-epoch token makes the read wait (inside its
	// admission slot, up to StalenessWait) for the local store to reach that
	// epoch — read-your-writes across a primary/replica pair — and shed
	// 503 + Retry-After when it cannot.
	if min > epoch {
		waited := false
		if st := s.storeNow(); st != nil && s.cfg.StalenessWait > 0 {
			wctx, wcancel := context.WithTimeout(r.Context(), s.cfg.StalenessWait)
			w0 := time.Now()
			waited = st.WaitEpoch(wctx, min) == nil
			staleWait := time.Since(w0)
			wcancel()
			// The observed wait rides a header (and a histogram) whether the
			// catch-up succeeded or shed, so a client can report how
			// much time bounded staleness actually cost.
			w.Header().Set("X-Triq-Staleness-Wait-US", strconv.FormatInt(staleWait.Microseconds(), 10))
			s.obs.Observe("serve.staleness_wait_us", float64(staleWait.Microseconds()))
		}
		if !waited {
			s.count("serve.shed.stale")
			return shedding(fmt.Errorf("serve: local epoch %d behind requested min_epoch %d", epoch, min))
		}
		g, epoch, hasStore = s.pinEpoch()
	}
	if hasStore {
		// The epoch token rides the header so clients can
		// chain read-your-writes requests without parsing the body.
		w.Header().Set("X-Triq-Epoch", strconv.FormatUint(epoch, 10))
	}

	// The evaluation context: the client's own context (disconnect cancels
	// the evaluation) bounded by the per-request deadline, with a hard-stop
	// hook so an expiring drain cancels stragglers. The trace and its root
	// span ride the context so every layer's spans join one tree.
	ctx, cancel := context.WithTimeout(r.Context(), req.timeoutOf(s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
	defer cancel()
	stop := context.AfterFunc(s.hardStop, cancel)
	defer stop()
	ctx = rt.bind(ctx)

	s.trackBegin()
	rq.hold(s.trackEnd)

	execStart := time.Now()
	var resp *QueryResponse
	var report *repro.ExplainReport
	var evalErr error
	// pprof labels tag the evaluation's CPU samples (and every goroutine it
	// spawns) with the trace id, so auto-captured profiles slice by request.
	rtpprof.Do(ctx, rtpprof.Labels("trace_id", rt.traceID(), "endpoint", rq.endpoint), func(ctx context.Context) {
		resp, report, evalErr = s.evaluate(ctx, g, epoch, hasStore, rq.endpoint, &req)
	})
	o.exec, o.evaluated = time.Since(execStart), true
	o.slow.Query, o.slow.Explain = req.Program, report
	if rq.endpoint == "sparql" {
		o.slow.Query = req.Query
	}
	if evalErr != nil {
		o.status, o.err = statusOf(evalErr), evalErr
		if o.status == http.StatusGatewayTimeout {
			s.count("serve.timeouts")
		}
		if o.status == http.StatusInternalServerError {
			s.count("serve.internal_errors")
		}
		if errors.Is(evalErr, limits.ErrCanceled) {
			s.count("serve.canceled")
		}
		return o
	}
	if resp.Attempts > 1 {
		s.obs.Count("serve.retries", int64(resp.Attempts-1))
	}
	if resp.Incomplete {
		s.count("serve.truncated")
	}
	s.count("serve.ok")
	if hasStore {
		resp.Epoch = epoch
	}
	resp.ElapsedUS = time.Since(rq.start).Microseconds()
	if s.obs.Enabled() {
		s.obs.Observe("serve.latency_us", float64(resp.ElapsedUS))
		s.obs.Observe("serve.queue_wait_us", float64(rq.queueWait.Microseconds()))
	}
	o.status = http.StatusOK
	o.slow.Incomplete, o.slow.Truncation = resp.Incomplete, resp.Truncation
	o.ok = func() any {
		resp.TraceID = rt.traceID()
		if rt != nil {
			acct := rt.account()
			if report != nil {
				report.Resources = &acct
			}
			if req.Explain {
				resp.Resources = &acct
			}
		}
		return resp
	}
	return o
}

// limitBody caps the request body at Config.MaxBodyBytes; badBody maps a
// read past the cap to 413. A negative cap disables.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) io.ReadCloser {
	if s.cfg.MaxBodyBytes < 0 {
		return r.Body
	}
	return http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
}

// badBody is the outcome of a body that could not be read or decoded: 413
// past the size cap, 400 otherwise.
func (s *Server) badBody(err error) outcome {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.count("serve.body_too_large")
		status = http.StatusRequestEntityTooLarge
	}
	return failing(status, fmt.Errorf("bad request body: %w", err))
}

// minEpochOf resolves a request's bounded-staleness floor: the body's
// min_epoch or the X-Triq-Min-Epoch header, whichever is larger. A header
// that is not an epoch is an error, not an absent token: serving the read
// anyway would hand a read-your-writes client a stale epoch with a 200.
func minEpochOf(req *QueryRequest, r *http.Request) (uint64, error) {
	min := req.MinEpoch
	if h := r.Header.Get("X-Triq-Min-Epoch"); h != "" {
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad X-Triq-Min-Epoch header %q: want an unsigned epoch number", h)
		}
		if v > min {
			min = v
		}
	}
	return min, nil
}

// serveMutation is the body of POST /insert and /delete: gate → decode →
// parse N-Triples → apply one atomic batch through the store → acknowledge
// with the new epoch. Batches serialize on the store's writer lock; queries
// are never blocked (they read the previous epoch until the swap). The store
// hands the request's trace context to the replication stream, so a
// replica's apply span joins the same distributed trace.
func (s *Server) serveMutation(rq *request) (o outcome) {
	w, r, rt, start := rq.w, rq.r, rq.rt, rq.start
	if s.recovering.Load() {
		s.count("serve.shed.recovering")
		return shedding(errors.New("serve: recovering"))
	}
	// A replica refuses local writes: 503 with the primary's address (in
	// the X-Triq-Primary header and Failure.Primary) so clients re-aim, or
	// a transparent forward to the primary when ProxyWrites is on. A
	// promoted ex-replica falls through to the normal write path.
	if rep, isReplica := s.asReplica(); isReplica {
		primary := rep.State().Primary
		if s.cfg.ProxyWrites {
			return s.proxyMutation(w, r, primary)
		}
		s.count("serve.shed.replica")
		o = shedding(fmt.Errorf("serve: read-only replica; write to the primary at %s", primary))
		o.primary = primary
		return o
	}
	st := s.storeNow()
	if st == nil {
		return failing(http.StatusNotImplemented,
			errors.New("serve: no store configured (query-only deployment; start triqd with a store to enable mutations)"))
	}

	var req MutationRequest
	if err := json.NewDecoder(s.limitBody(w, r)).Decode(&req); err != nil {
		return s.badBody(err)
	}
	batch, err := rdf.ParseNTriplesString(req.Triples)
	if err != nil {
		return failing(http.StatusBadRequest, fmt.Errorf("bad triples: %w", err))
	}
	if batch.Len() == 0 {
		return failing(http.StatusBadRequest, errors.New("empty batch"))
	}

	s.trackBegin() // drain waits for in-flight mutations too
	rq.hold(s.trackEnd)

	triples := batch.SortedTriples()
	applySpan := rt.span("serve.apply", obs.F("batch", batch.Len()))
	var epoch store.Epoch
	var applied int
	if rq.endpoint == "insert" {
		epoch, applied, err = st.InsertTraced(triples, rt.traceparent())
	} else {
		epoch, applied, err = st.DeleteTraced(triples, rt.traceparent())
	}
	o.exec, o.evaluated = time.Since(start), true
	o.slow.Query, o.slow.Batch = req.Triples, batch.Len()
	applySpan.End(obs.F("applied", applied), obs.F("epoch", int64(epoch.Seq)), obs.F("ok", err == nil))
	if err != nil {
		o.status, o.err = http.StatusInternalServerError, err
		if errors.Is(err, limits.ErrStorage) {
			// The WAL failed underneath us and the store latched read-only.
			// Reads stay up; writes shed with a retry hint while an operator
			// (or a failover) restores the write path.
			s.count("serve.shed.readonly")
			o.status = http.StatusServiceUnavailable
		} else {
			s.count("serve.internal_errors")
		}
		return o
	}
	s.count("serve." + rq.endpoint + "s")
	if s.obs.Enabled() {
		s.obs.Count("serve.mutation_triples", int64(applied))
		s.obs.Observe("serve.mutation_latency_us", float64(time.Since(start).Microseconds()))
	}
	o.status = http.StatusOK
	o.slow.Epoch = epoch.Seq
	if s.slow.enabled() {
		o.slow.WALSyncWaitUS = walSyncWaitUS(st, epoch.Seq)
	}
	o.ok = func() any {
		return MutationResponse{
			Epoch:     epoch.Seq,
			Applied:   applied,
			Batch:     batch.Len(),
			Durable:   st.AckDurable(),
			ElapsedUS: time.Since(start).Microseconds(),
			TraceID:   rt.traceID(),
		}
	}
	return o
}

// walSyncWaitUS reads back, from the store's epoch timeline, how long the
// commit of the epoch waited on the WAL fsync, so a slow insert is
// attributable to fsync stalls vs. apply cost (0 under interval/none sync).
func walSyncWaitUS(st *store.Store, epoch uint64) int64 {
	if stamps, ok := st.Timeline().Lookup(epoch); ok && epoch != 0 {
		m := stamps.Stages()
		if a, b := m["append"], m["sync"]; a != 0 && b > a {
			return (b - a) / 1000
		}
	}
	return 0
}

// proxyMutation forwards a write that arrived at a replica to the primary
// and relays the response verbatim, tagged with X-Triq-Primary so the
// client can see where the write actually landed.
func (s *Server) proxyMutation(w http.ResponseWriter, r *http.Request, primary string) outcome {
	s.count("serve.proxied_writes")
	body, err := io.ReadAll(s.limitBody(w, r))
	if err != nil {
		return s.badBody(err)
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, primary+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		s.count("serve.internal_errors")
		return failing(http.StatusInternalServerError, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.proxy.Do(req)
	if err != nil {
		s.count("serve.proxy_errors")
		return failing(http.StatusServiceUnavailable, fmt.Errorf("serve: primary unreachable: %w", err))
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Triq-Primary", primary)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return outcome{status: resp.StatusCode, relayed: true}
}

// recordSlow feeds the slow-query log and the auto-profiler from an
// evaluated request's outcome (success or failure); it is a no-op when the
// log is disabled or the request finished under the threshold. Mutation
// entries have no queue wait; theirs is the whole of the request.
func (s *Server) recordSlow(rq *request, o *outcome) {
	rt, total := rq.rt, rq.queueWait+o.exec
	cpuFile, heapFile := s.autoprof.maybeCapture(total, rt.traceID())
	if !s.slow.enabled() {
		return
	}
	e := o.slow
	e.Time = time.Now()
	e.Endpoint = rq.endpoint
	e.Query, e.QueryTruncated = truncateQuery(e.Query)
	e.Status = o.status
	e.QueueWaitUS = rq.queueWait.Microseconds()
	e.ExecUS = o.exec.Microseconds()
	e.TotalUS = total.Microseconds()
	e.TraceID = rt.traceID()
	e.ProfileCPU, e.ProfileHeap = cpuFile, heapFile
	if rt != nil {
		acct := rt.account()
		e.Resources = &acct
	}
	if o.err != nil {
		e.Error = o.err.Error()
	}
	// Bump the counter iff the entry is actually recorded.
	if time.Duration(e.TotalUS)*time.Microsecond >= s.cfg.SlowLog.Threshold {
		s.count("serve.slow_queries")
	}
	s.slow.maybeRecord(e)
}

// evaluate runs the evaluation the request asks for (QueryRequest.Request;
// its failures are bad requests) with what only the server adds: its
// registry and progress gauge, the materializer pinned to the request's
// epoch, and retries. The evaluation is explained when the request asked for
// it or the slow-query log is armed, and the report comes back alongside the
// response, which carries it only in the first case (the per-query
// observations still fold into the server registry, so /metrics sees
// explained runs too).
func (s *Server) evaluate(ctx context.Context, g *repro.Graph, epoch uint64, hasStore bool, endpoint string, req *QueryRequest) (*QueryResponse, *repro.ExplainReport, error) {
	ereq, err := req.Request(endpoint == "sparql")
	if err != nil {
		return nil, nil, err
	}
	ereq.Explain = ereq.Explain || s.slow.enabled()
	ereq.Options.Chase.Obs = s.obs
	ereq.Options.Chase.Progress = s.progress
	if s.cfg.Mat != nil && hasStore {
		// The request is pinned to this epoch: a materialization may answer
		// only if it is at exactly the same one.
		ereq.Options.Mat = s.cfg.Mat
		ereq.Options.MatEpoch = epoch
	}
	var out *repro.Response
	attempts, err := withRetry(ctx, s.cfg.Retry, s.jit, func() (err error) {
		out, err = repro.Eval(ctx, g, ereq)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	resp := NewQueryResponse(out, attempts)
	if !req.Explain {
		resp.Explain = nil
	}
	return resp, out.Explain, nil
}

// statusOf maps an evaluation error to the HTTP contract.
func statusOf(err error) int {
	var br errBadRequest
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, limits.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, limits.ErrCanceled):
		// Client went away or drain canceled us; the body likely goes
		// nowhere, but a retryable 503 is the honest answer either way.
		return http.StatusServiceUnavailable
	default:
		// Internal errors, retries-exhausted injected faults, and any budget
		// error that somehow escaped graceful degradation.
		return http.StatusInternalServerError
	}
}

// fail writes a non-200 taxonomy error body; a 503 carries a retry hint, and
// primary, when set, the address a write-refusing replica sends clients to.
// Server faults (500/504) also bump the aggregate serve.errors counter — the
// numerator of the error-rate SLO; client errors and sheds do not burn that
// budget.
func (s *Server) fail(w http.ResponseWriter, status int, err error, primary string) {
	if status == http.StatusInternalServerError || status == http.StatusGatewayTimeout {
		s.count("serve.errors")
	}
	f := Failure{WireError: limits.ToWire(err), Primary: primary}
	if primary != "" {
		w.Header().Set("X-Triq-Primary", primary)
	}
	if status == http.StatusServiceUnavailable {
		retryAfter := time.Second
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
		f.RetryAfterMS = retryAfter.Milliseconds()
	}
	writeJSON(w, status, f)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = EncodeJSON(w, body)
}

// EncodeJSON writes v as one line of JSON, the form of every body triqd
// sends and of `triq -json`. '<', '>' and '&' are written as themselves, not
// as the \u003c escapes that make JSON safe to embed in HTML: a body is
// application/json, and a row of IRIs would otherwise be half escapes (a
// 3 240-row answer is 135 KB escaped, 70 KB not).
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}
