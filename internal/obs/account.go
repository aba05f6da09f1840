// Per-request resource accounting. An Account rides on the request's Trace
// (recording or not — every request is accounted), is filled in by the layer
// that owns each number, and is surfaced on the wire response, the slow-query
// log, EXPLAIN output, and the exported trace.
//
// Ownership of the fields:
//
//   - serve fills the wall/queue/exec times and the heap-allocation delta;
//   - triq.EvalCtx sets the chase counters from the final evaluation's
//     chase.Stats — the same snapshot EXPLAIN reports, so the account and
//     Stats agree exactly;
//   - the prover adds memo hit/miss deltas per proof search;
//   - the trace itself maintains the span counts.
package obs

import (
	"runtime/metrics"
	"sync"
)

// Account is the per-request resource bill.
type Account struct {
	// Wall/queue/exec time, microseconds. Wall covers the request end to
	// end (queue wait + evaluation + response assembly).
	WallUS  int64 `json:"wall_us"`
	QueueUS int64 `json:"queue_us"`
	ExecUS  int64 `json:"exec_us"`

	// Chase work, from the latest evaluation's chase.Stats.
	ChaseRuns         int64 `json:"chase_runs,omitempty"`
	Rounds            int64 `json:"rounds,omitempty"`
	TriggersAttempted int64 `json:"triggers_attempted,omitempty"`
	TriggersFired     int64 `json:"triggers_fired,omitempty"`
	FactsDerived      int64 `json:"facts_derived,omitempty"`
	NullsInvented     int64 `json:"nulls_invented,omitempty"`

	// Proof-search memoization, summed over the request's proof searches.
	ProverProofs     int64 `json:"prover_proofs,omitempty"`
	ProverMemoHits   int64 `json:"prover_memo_hits,omitempty"`
	ProverMemoMisses int64 `json:"prover_memo_misses,omitempty"`

	// Heap bytes allocated process-wide while the request executed
	// (from runtime/metrics /gc/heap/allocs:bytes). Approximate under
	// concurrency: concurrent requests' allocations are not separable.
	HeapAllocBytes int64 `json:"heap_alloc_bytes,omitempty"`

	// Span-tree bookkeeping (recording traces only).
	Spans        int64 `json:"spans,omitempty"`
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// Account returns a copy of the trace's resource account.
func (t *Trace) Account() Account {
	if t == nil {
		return Account{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.account
}

// SetTimes fills the timing fields (microseconds).
func (t *Trace) SetTimes(wallUS, queueUS, execUS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.account.WallUS = wallUS
	t.account.QueueUS = queueUS
	t.account.ExecUS = execUS
	t.mu.Unlock()
}

// SetChaseWork records the chase counters of one completed evaluation.
// Values are stored, not summed, so the account mirrors the chase.Stats of
// the latest evaluation — the same snapshot Result.Stats and EXPLAIN carry,
// cumulative over that evaluation's depth steps; ChaseRuns counts how many
// evaluations wrote here (triq.EvalCtx writes once, whatever the number of
// steps).
func (t *Trace) SetChaseWork(rounds, attempted, fired, facts, nulls int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.account.ChaseRuns++
	t.account.Rounds = rounds
	t.account.TriggersAttempted = attempted
	t.account.TriggersFired = fired
	t.account.FactsDerived = facts
	t.account.NullsInvented = nulls
	t.mu.Unlock()
}

// AddProver accumulates one proof search's memoization deltas.
func (t *Trace) AddProver(hits, misses int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.account.ProverProofs++
	t.account.ProverMemoHits += hits
	t.account.ProverMemoMisses += misses
	t.mu.Unlock()
}

// SetHeapAlloc records the request's heap-allocation delta in bytes.
func (t *Trace) SetHeapAlloc(bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.account.HeapAllocBytes = bytes
	t.mu.Unlock()
}

// heapAllocSample is reused under heapAllocMu; metrics.Read is cheap (no
// stop-the-world) but the sample slice should not be reallocated per call.
var (
	heapAllocMu     sync.Mutex
	heapAllocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
)

// HeapAllocBytes returns the process's cumulative heap-allocation counter.
// Subtract two readings to bill an interval. Returns 0 if the runtime does
// not expose the metric.
func HeapAllocBytes() int64 {
	heapAllocMu.Lock()
	defer heapAllocMu.Unlock()
	metrics.Read(heapAllocSample)
	if heapAllocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(heapAllocSample[0].Value.Uint64())
}
