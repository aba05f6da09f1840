package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// loadgen drives a running triqd from N parallel clients and reports
// throughput and latency quantiles. cmd/triqbench wraps
// RunLoad; the serve tests use it as a miniature soak client.

// LoadConfig describes one load run.
type LoadConfig struct {
	// URL is the endpoint to POST, e.g. http://127.0.0.1:8471/query.
	URL string
	// Body is the JSON request body every client sends.
	Body []byte
	// Parallel is the number of concurrent clients (default 4).
	Parallel int
	// Requests is the total number of requests across all clients
	// (default 100).
	Requests int
	// Timeout bounds each individual HTTP request (default 30s).
	Timeout time.Duration
	// Trace sends a W3C traceparent header with each request so the server
	// joins the client's trace; TraceSample sets the fraction of requests
	// sent with the sampled flag (default 0.1 when Trace is set).
	Trace       bool
	TraceSample float64
	// Seed seeds trace-id generation (0 derives from the clock).
	Seed int64
	// WritePct is the percentage (0–100) of requests sent as mutations
	// instead of Body: alternating /insert and /delete batches of generated
	// triples against MutateBase. Zero keeps the run read-only.
	WritePct float64
	// MutateBase is the server base URL for the write mix, e.g.
	// http://127.0.0.1:8471 (required when WritePct > 0).
	MutateBase string
	// WriteBatch is the triples per mutation batch (default 8).
	WriteBatch int
	// RetryBudget is the total number of 503 retries the whole run may
	// spend. A shed response carrying Retry-After is retried after honoring
	// the hint (capped at maxRetryWait, at most maxRetriesPerReq attempts
	// per request) while budget remains; exhausted budget counts the 503 as
	// shed, as before. Zero disables retrying.
	RetryBudget int
	// ReadYourWrites makes every read demand the highest epoch any write in
	// the run has acknowledged so far (X-Triq-Min-Epoch), exercising the
	// bounded-staleness path; the observed waits (from the server's
	// X-Triq-Staleness-Wait-US header) come back in the result.
	ReadYourWrites bool
	// StatusBase, when set, is a server base URL whose /readyz is sampled at
	// the end of the run to report the node's replication lag (epochs and
	// wall-clock seconds behind the primary; zero on a primary).
	StatusBase string
}

// LoadResult aggregates a load run.
type LoadResult struct {
	// Total / OK / Shed / Failed partition the requests: 200s, 503s, and
	// everything else (including transport errors).
	Total, OK, Shed, Failed int
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration
	// Throughput is requests per second over the run.
	Throughput float64
	// P50/P95/P99 are latency quantiles over all requests.
	P50, P95, P99 time.Duration
	// TraceEchoed counts responses whose traceparent header echoed the
	// request's trace id (only with LoadConfig.Trace).
	TraceEchoed int
	// SampledTraceIDs holds up to 64 trace ids that were sent with the
	// sampled flag — look them up at /debug/trace?id= on the server.
	SampledTraceIDs []string
	// Writes / WriteOK count the mutation requests in the mix and their 200s
	// (both are also included in Total / OK).
	Writes, WriteOK int
	// LastEpoch is the highest store epoch any mutation acknowledged.
	LastEpoch uint64
	// Retried counts 503 responses that were retried out of the budget;
	// RetriedOK counts requests that succeeded on a retry.
	Retried, RetriedOK int
	// StalenessWaits counts reads the server stalled for a min-epoch floor
	// (bounded staleness) and StalenessWait sums the observed waits — both
	// from the X-Triq-Staleness-Wait-US response header.
	StalenessWaits int
	StalenessWait  time.Duration
	// ReplicaLagEpochs / ReplicaLagSeconds are the serving node's
	// replication lag sampled from /readyz at the end of the run (zero on a
	// primary or when LoadConfig.StatusBase is unset) — the epoch lag and
	// the wall-clock time-lag behind the primary.
	ReplicaLagEpochs  uint64
	ReplicaLagSeconds float64
}

func (r *LoadResult) String() string {
	s := fmt.Sprintf("total=%d ok=%d shed=%d failed=%d elapsed=%s throughput=%.1f req/s p50=%s p95=%s p99=%s",
		r.Total, r.OK, r.Shed, r.Failed, r.Elapsed.Round(time.Millisecond), r.Throughput,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	if r.TraceEchoed > 0 || len(r.SampledTraceIDs) > 0 {
		s += fmt.Sprintf(" trace_echoed=%d sampled_traces=%d", r.TraceEchoed, len(r.SampledTraceIDs))
	}
	if r.Writes > 0 {
		s += fmt.Sprintf(" writes=%d write_ok=%d last_epoch=%d", r.Writes, r.WriteOK, r.LastEpoch)
	}
	if r.Retried > 0 {
		s += fmt.Sprintf(" retried=%d retried_ok=%d", r.Retried, r.RetriedOK)
	}
	if r.StalenessWaits > 0 {
		s += fmt.Sprintf(" staleness_waits=%d staleness_wait_total=%s",
			r.StalenessWaits, r.StalenessWait.Round(time.Microsecond))
	}
	if r.ReplicaLagEpochs > 0 || r.ReplicaLagSeconds > 0 {
		s += fmt.Sprintf(" replica_lag_epochs=%d replica_lag_seconds=%.3f",
			r.ReplicaLagEpochs, r.ReplicaLagSeconds)
	}
	return s
}

// maxSampledTraceIDs caps the trace ids retained in a LoadResult.
const maxSampledTraceIDs = 64

// maxRetryWait caps how long a client sleeps on one Retry-After hint, and
// maxRetriesPerReq caps how much of the budget a single request may burn
// (a persistently-shedding server should fail the request, not stall the
// run).
const (
	maxRetryWait     = 2 * time.Second
	maxRetriesPerReq = 3
)

// retryBudget is the shared pool of 503 retries one run may spend.
type retryBudget struct{ left atomic.Int64 }

func newRetryBudget(n int) *retryBudget {
	b := &retryBudget{}
	b.left.Store(int64(n))
	return b
}

// take spends one retry; it reports false when the pool is dry.
func (b *retryBudget) take() bool { return b.left.Add(-1) >= 0 }

// RunLoad fires cfg.Requests POSTs at cfg.URL from cfg.Parallel goroutines
// and aggregates outcomes. Shed (503) responses are expected under overload
// and counted separately from failures.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	if cfg.Parallel <= 0 {
		cfg.Parallel = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 100
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	client := &http.Client{Timeout: cfg.Timeout}

	var ids *obs.IDSource
	var sampler *obs.Sampler
	if cfg.Trace {
		if cfg.TraceSample == 0 {
			cfg.TraceSample = 0.1
		}
		ids = obs.NewIDSource(cfg.Seed)
		sampler = obs.NewSampler(cfg.TraceSample, cfg.Seed)
	}

	// The write mix is decided up front from the seed so a run is
	// reproducible regardless of worker interleaving. Batches alternate
	// insert of a fresh generated batch and delete of the previous one, so a
	// long soak doesn't grow the store without bound.
	writes := make([]loadMutation, cfg.Requests)
	if cfg.WritePct > 0 {
		if cfg.MutateBase == "" {
			return nil, fmt.Errorf("loadgen: WritePct set without MutateBase")
		}
		if cfg.WriteBatch <= 0 {
			cfg.WriteBatch = 8
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 17))
		batch := 0
		for i := range writes {
			if rng.Float64()*100 >= cfg.WritePct {
				continue
			}
			if batch%2 == 0 || batch == 1 {
				writes[i] = mutationJob(cfg.MutateBase+"/insert", batch/2, cfg.WriteBatch)
			} else {
				writes[i] = mutationJob(cfg.MutateBase+"/delete", batch/2-1, cfg.WriteBatch)
			}
			batch++
		}
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		res       LoadResult
		// lastEpoch is the read-your-writes floor: the highest epoch any
		// write has acknowledged, demanded by subsequent reads.
		lastEpoch atomic.Uint64
	)
	budget := newRetryBudget(cfg.RetryBudget)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				url, body, isWrite := cfg.URL, cfg.Body, false
				if writes[i].body != nil {
					url, body, isWrite = writes[i].url, writes[i].body, true
				}
				var traceparent string
				var tid obs.TraceID
				sampled := false
				if ids != nil {
					tid = ids.TraceID()
					sampled = sampler.Sampled(tid)
					var flags byte
					if sampled {
						flags = obs.FlagSampled
					}
					traceparent = obs.FormatTraceparent(tid, ids.SpanID(), flags)
				}
				var minEpoch uint64
				if cfg.ReadYourWrites && !isWrite {
					minEpoch = lastEpoch.Load()
				}
				var (
					status    int
					respBody  []byte
					echoed    bool
					err       error
					lat       time.Duration
					staleWait time.Duration
				)
				retries := 0
				for {
					t0 := time.Now()
					var retryAfter time.Duration
					status, respBody, echoed, retryAfter, staleWait, err = post(ctx, client, url, body, traceparent, tid, minEpoch, isWrite)
					lat = time.Since(t0)
					// A shed response is retried after honoring its
					// Retry-After hint while budget remains; with the pool
					// dry (or per-request retries spent) it stays a shed.
					if err != nil || status != http.StatusServiceUnavailable ||
						retries >= maxRetriesPerReq || !budget.take() {
						break
					}
					if retryAfter <= 0 {
						retryAfter = 50 * time.Millisecond
					}
					if retryAfter > maxRetryWait {
						retryAfter = maxRetryWait
					}
					retries++
					select {
					case <-time.After(retryAfter):
					case <-ctx.Done():
					}
					if ctx.Err() != nil {
						break
					}
				}
				var epoch uint64
				if isWrite && err == nil && status == http.StatusOK {
					var mr MutationResponse
					if json.Unmarshal(respBody, &mr) == nil {
						epoch = mr.Epoch
					}
					for { // publish the read-your-writes floor (max wins)
						cur := lastEpoch.Load()
						if epoch <= cur || lastEpoch.CompareAndSwap(cur, epoch) {
							break
						}
					}
				}
				mu.Lock()
				res.Total++
				latencies = append(latencies, lat)
				switch {
				case err == nil && status == http.StatusOK:
					res.OK++
				case err == nil && status == http.StatusServiceUnavailable:
					res.Shed++
				default:
					res.Failed++
				}
				if isWrite {
					res.Writes++
					if err == nil && status == http.StatusOK {
						res.WriteOK++
					}
					if epoch > res.LastEpoch {
						res.LastEpoch = epoch
					}
				}
				res.Retried += retries
				if retries > 0 && err == nil && status == http.StatusOK {
					res.RetriedOK++
				}
				if staleWait > 0 {
					res.StalenessWaits++
					res.StalenessWait += staleWait
				}
				if echoed {
					res.TraceEchoed++
				}
				if sampled && len(res.SampledTraceIDs) < maxSampledTraceIDs {
					res.SampledTraceIDs = append(res.SampledTraceIDs, tid.String())
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < cfg.Requests; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			i = cfg.Requests
		}
	}
	close(jobs)
	wg.Wait()

	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Total) / res.Elapsed.Seconds()
	}
	if cfg.StatusBase != "" {
		res.ReplicaLagEpochs, res.ReplicaLagSeconds = fetchReadyLag(ctx, client, cfg.StatusBase)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50 = quantileDur(latencies, 0.50)
	res.P95 = quantileDur(latencies, 0.95)
	res.P99 = quantileDur(latencies, 0.99)
	if res.Total == 0 {
		return &res, ctx.Err()
	}
	return &res, nil
}

// loadMutation is one precomputed write of the mix; a nil body means the
// request slot stays a read.
type loadMutation struct {
	url  string
	body []byte
}

// mutationJob renders the JSON body for generated batch b of n triples. The
// triples are deterministic in b, so a delete of batch b removes exactly
// what its insert added.
func mutationJob(url string, b, n int) loadMutation {
	var nt bytes.Buffer
	for j := 0; j < n; j++ {
		fmt.Fprintf(&nt, "lg-b%d-s%d lg-p lg-o%d .\n", b, j, j)
	}
	body, _ := json.Marshal(MutationRequest{Triples: nt.String()})
	return loadMutation{url: url, body: body}
}

// fetchReadyLag samples /readyz for the node's replication lag. Decoding is
// best-effort and status-agnostic (a catching-up replica answers 503 with
// the same body shape); a primary has no lag fields and reports zeros.
func fetchReadyLag(ctx context.Context, client *http.Client, base string) (lagEpochs uint64, lagSeconds float64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return 0, 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var ready struct {
		LagEpochs  uint64  `json:"lag_epochs"`
		LagSeconds float64 `json:"lag_seconds"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ready) != nil {
		return 0, 0
	}
	return ready.LagEpochs, ready.LagSeconds
}

// post sends one request; echoed reports whether the response traceparent
// carried the same trace id the request sent. The body is returned only
// when capture is set (mutations need the acknowledged epoch). On a 503
// the server's retry hint comes back too — Failure.RetryAfterMS when the
// body has it (millisecond granularity), the Retry-After header otherwise.
// A non-zero minEpoch rides X-Triq-Min-Epoch (bounded staleness), and any
// observed X-Triq-Staleness-Wait-US comes back as staleWait.
func post(ctx context.Context, client *http.Client, url string, body []byte, traceparent string, tid obs.TraceID, minEpoch uint64, capture bool) (int, []byte, bool, time.Duration, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, false, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	if minEpoch > 0 {
		req.Header.Set("X-Triq-Min-Epoch", strconv.FormatUint(minEpoch, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, false, 0, 0, err
	}
	defer resp.Body.Close()
	var respBody []byte
	if capture || resp.StatusCode == http.StatusServiceUnavailable {
		respBody, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	var retryAfter time.Duration
	if resp.StatusCode == http.StatusServiceUnavailable {
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs >= 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		var f Failure
		if json.Unmarshal(respBody, &f) == nil && f.RetryAfterMS > 0 {
			retryAfter = time.Duration(f.RetryAfterMS) * time.Millisecond
		}
	}
	echoed := false
	if traceparent != "" {
		if rtid, _, _, perr := obs.ParseTraceparent(resp.Header.Get("traceparent")); perr == nil {
			echoed = rtid == tid
		}
	}
	var staleWait time.Duration
	if h := resp.Header.Get("X-Triq-Staleness-Wait-US"); h != "" {
		if us, werr := strconv.ParseInt(h, 10, 64); werr == nil && us > 0 {
			staleWait = time.Duration(us) * time.Microsecond
		}
	}
	return resp.StatusCode, respBody, echoed, retryAfter, staleWait, nil
}

// quantileDur picks the q-th quantile of a sorted slice (nearest-rank).
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
