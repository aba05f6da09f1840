package serve

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro"
	"repro/internal/limits"
	"repro/internal/obs"
)

// SlowLogConfig configures the slow-query log: every evaluated request
// whose wall time meets Threshold is recorded exactly once in an in-memory
// ring of the last slowLogCapacity entries, served at /debug/slowlog, and —
// when a Sink is attached — appended to it as one JSON line.
type SlowLogConfig struct {
	// Threshold is the minimum request wall time to record; 0 disables the
	// log entirely. The same threshold marks a request's trace slow and
	// trips the auto-profiler.
	Threshold time.Duration
	// Sink, when non-nil, receives one JSON line per slow entry (JSONL). The
	// caller owns its lifetime.
	Sink io.Writer
}

const (
	// slowLogCapacity bounds the in-memory ring.
	slowLogCapacity = 128
	// maxSlowQueryLen caps the query text captured per entry.
	maxSlowQueryLen = 2048
)

// SlowEntry is one recorded slow query.
type SlowEntry struct {
	// Time is when the request finished.
	Time time.Time `json:"time"`
	// Endpoint is "query" or "sparql".
	Endpoint string `json:"endpoint"`
	// Query is the program or SPARQL text, truncated to a bounded length.
	Query string `json:"query"`
	// QueryTruncated is true when Query was cut at the capture limit.
	QueryTruncated bool `json:"query_truncated,omitempty"`
	// Status is the HTTP status the request got.
	Status int `json:"status"`
	// QueueWaitUS is the time spent waiting for an admission slot.
	QueueWaitUS int64 `json:"queue_wait_us"`
	// ExecUS is the evaluation time (parse + chase + decode).
	ExecUS int64 `json:"exec_us"`
	// TotalUS is the whole request: its wall time, queue wait and execution
	// included.
	TotalUS int64 `json:"total_us"`
	// Incomplete / Truncation report a budget-truncated answer set.
	Incomplete bool               `json:"incomplete,omitempty"`
	Truncation *limits.Truncation `json:"truncation,omitempty"`
	// Error carries the failure message of non-200 outcomes.
	Error string `json:"error,omitempty"`
	// Explain is the per-query telemetry report, present when the server
	// computed one for this request (slowlog enabled or explain requested).
	Explain *repro.ExplainReport `json:"explain,omitempty"`
	// TraceID links the entry to its request trace (/debug/trace?id=...),
	// present when tracing is enabled.
	TraceID string `json:"trace_id,omitempty"`
	// Resources is the request's resource account (wall/queue/exec time,
	// chase and prover work, heap allocation delta).
	Resources *obs.Account `json:"resources,omitempty"`
	// ProfileCPU / ProfileHeap name pprof files captured by the slow-query
	// auto-profiler for this request, when it tripped.
	ProfileCPU  string `json:"profile_cpu,omitempty"`
	ProfileHeap string `json:"profile_heap,omitempty"`
	// Epoch, Batch, and WALSyncWaitUS describe mutation entries: the epoch
	// the batch committed, the triples in the batch, and how long the commit
	// waited on the WAL fsync (from the store's epoch timeline; absent under
	// interval/none sync).
	Epoch         uint64 `json:"epoch,omitempty"`
	Batch         int    `json:"batch,omitempty"`
	WALSyncWaitUS int64  `json:"wal_sync_wait_us,omitempty"`
}

// slowLog is the ring + sink behind /debug/slowlog.
type slowLog struct {
	cfg SlowLogConfig

	mu    sync.Mutex
	ring  []SlowEntry
	next  int
	total int64
}

func newSlowLog(cfg SlowLogConfig) *slowLog {
	if cfg.Threshold <= 0 {
		return nil
	}
	return &slowLog{cfg: cfg, ring: make([]SlowEntry, 0, slowLogCapacity)}
}

// enabled is nil-safe.
func (l *slowLog) enabled() bool { return l != nil }

// record files one entry. Server.handle calls it at most once per request,
// after deciding the request was slow, so a slow query produces exactly one
// entry.
func (l *slowLog) record(e SlowEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % cap(l.ring)
	}
	if l.cfg.Sink != nil {
		b, err := json.Marshal(e)
		if err == nil {
			b = append(b, '\n')
			_, _ = l.cfg.Sink.Write(b)
		}
	}
}

// entries returns the retained entries oldest-first plus the all-time count
// (which exceeds len(entries) once the ring has wrapped).
func (l *slowLog) entries() ([]SlowEntry, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		out = append(out, l.ring...)
	} else {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	}
	return out, l.total
}

// truncateQuery bounds the captured query text.
func truncateQuery(q string) (string, bool) {
	if len(q) <= maxSlowQueryLen {
		return q, false
	}
	return q[:maxSlowQueryLen], true
}
