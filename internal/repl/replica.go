package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/store"
)

// Replica states, as reported by State.State and /readyz.
const (
	StateConnecting = "connecting"  // no live stream to the primary
	StateCatchingUp = "catching-up" // installing a snapshot transfer
	StateReplica    = "replica"     // streaming, serving reads
	StatePromoted   = "promoted"    // now a writable primary
)

// DefaultPromoteGrace is how long a promote-on-loss replica tolerates
// silence from the primary before promoting itself.
const DefaultPromoteGrace = 5 * time.Second

// Config assembles a Replica.
type Config struct {
	// Primary is the primary's base URL, e.g. "http://10.0.0.1:8080".
	Primary string
	// Store is the local store records are applied into.
	Store *store.Store
	// Obs receives the repl.* gauges and counters (nil is fine).
	Obs *obs.Obs
	// Client performs the stream requests (default: a client with no
	// timeout — the stream is long-lived).
	Client *http.Client
	// Faults arms "repl.recv" / "repl.apply" (default: the store's plan).
	Faults *limits.Plan
	// PromoteOnLoss promotes the replica automatically once the primary has
	// been silent for PromoteGrace.
	PromoteOnLoss bool
	// PromoteGrace is the silence tolerance (default DefaultPromoteGrace).
	PromoteGrace time.Duration
	// Backoff is the reconnect backoff floor (default 50ms, doubling to 1s).
	Backoff time.Duration
	// Traces, when set, receives a replica-apply trace for every shipped
	// record that carried a sampled trace-context sidecar (OpTrace frame):
	// the apply span joins the client's trace id with the primary's span as
	// remote parent, so /debug/trace on the replica shows the distributed
	// tail of the mutation.
	Traces *obs.TraceStore
	// TraceSeed seeds the replica's span-id generator (0 = clock-derived).
	TraceSeed int64
}

// State is a point-in-time snapshot of the replica for /readyz and metrics.
type State struct {
	// State is one of the State* constants.
	State string `json:"state"`
	// Primary is the configured primary address.
	Primary string `json:"primary"`
	// Epoch is the local store epoch.
	Epoch uint64 `json:"epoch"`
	// PrimaryEpoch is the primary's last advertised epoch.
	PrimaryEpoch uint64 `json:"primary_epoch"`
	// LagEpochs is max(PrimaryEpoch-Epoch, 0).
	LagEpochs uint64 `json:"lag_epochs"`
	// LagSeconds is the replica's wall-clock staleness: local now minus the
	// primary clock carried by the last heartbeat. It keeps growing while
	// the primary is unreachable — exactly the signal an operator (and the
	// replica-lag SLO) needs during a partition. Zero before the first
	// wall-clock heartbeat.
	LagSeconds float64 `json:"lag_seconds"`
	// Connected reports a live stream.
	Connected bool `json:"connected"`
}

// Replica tails a primary's record stream into a local store, tracks lag,
// and handles promotion. Safe for concurrent use.
type Replica struct {
	cfg Config

	mu           sync.Mutex
	state        string
	primaryEpoch uint64
	connected    bool
	lastContact  time.Time
	promoted     bool
	promoteOnce  sync.Once
	primaryClock time.Time // primary wall clock from the last heartbeat

	// pendingTrace is the traceparent from the last OpTrace sidecar, keyed
	// by the epoch it annotates; it is consumed by the next mutation frame.
	pendingTrace      string
	pendingTraceEpoch uint64

	ids *obs.IDSource

	cancel context.CancelFunc
	done   chan struct{}
}

// New builds a replica; Start begins streaming.
func New(cfg Config) *Replica {
	if cfg.Client == nil {
		cfg.Client = &http.Client{} // no timeout: the stream is long-lived
	}
	if cfg.Faults == nil {
		cfg.Faults = cfg.Store.Faults()
	}
	if cfg.PromoteGrace <= 0 {
		cfg.PromoteGrace = DefaultPromoteGrace
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	return &Replica{cfg: cfg, state: StateConnecting, done: make(chan struct{}), ids: obs.NewIDSource(cfg.TraceSeed)}
}

// Start launches the streaming loop. It returns immediately.
func (r *Replica) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	r.mu.Lock()
	r.cancel = cancel
	r.lastContact = time.Now() // the grace clock starts now, not at zero
	r.mu.Unlock()
	go r.loop(ctx)
}

// Stop ends streaming and waits for the loop to exit.
func (r *Replica) Stop() {
	r.mu.Lock()
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	<-r.done
}

// Promote turns the replica into a writable primary: the stream stops and
// the serve layer (watching IsPromoted) opens the write path over the
// replicated, WAL-recovered state. Idempotent.
func (r *Replica) Promote() {
	r.promoteOnce.Do(func() {
		r.mu.Lock()
		r.promoted = true
		r.state = StatePromoted
		cancel := r.cancel
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		r.cfg.Obs.Count("repl.promotions", 1)
	})
}

// IsPromoted reports whether Promote has run.
func (r *Replica) IsPromoted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoted
}

// State snapshots the replica for /readyz and the metrics registry.
func (r *Replica) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch := r.cfg.Store.Current().Seq
	st := State{
		State:        r.state,
		Primary:      r.cfg.Primary,
		Epoch:        epoch,
		PrimaryEpoch: r.primaryEpoch,
		Connected:    r.connected,
	}
	if r.primaryEpoch > epoch {
		st.LagEpochs = r.primaryEpoch - epoch
	}
	if !r.primaryClock.IsZero() {
		if lag := time.Since(r.primaryClock).Seconds(); lag > 0 {
			st.LagSeconds = lag
		}
	}
	return st
}

func (r *Replica) setState(s string) {
	r.mu.Lock()
	if !r.promoted {
		r.state = s
	}
	r.mu.Unlock()
}

// touch records contact with the primary at epoch pe and refreshes the lag
// gauge.
func (r *Replica) touch(pe uint64) {
	r.mu.Lock()
	r.lastContact = time.Now()
	if pe > r.primaryEpoch {
		r.primaryEpoch = pe
	}
	pe = r.primaryEpoch
	r.mu.Unlock()
	local := r.cfg.Store.Current().Seq
	var lag uint64
	if pe > local {
		lag = pe - local
	}
	r.cfg.Obs.Gauge("repl.lag_epochs", float64(lag))
	r.cfg.Obs.Gauge("repl.primary_epoch", float64(pe))
}

// touchClock records the primary wall clock carried by a heartbeat and
// refreshes the seconds-lag gauge.
func (r *Replica) touchClock(primaryNow time.Time) {
	r.mu.Lock()
	if primaryNow.After(r.primaryClock) {
		r.primaryClock = primaryNow
	}
	pc := r.primaryClock
	r.mu.Unlock()
	lag := time.Since(pc).Seconds()
	if lag < 0 {
		lag = 0
	}
	r.cfg.Obs.Gauge("repl.lag_seconds", lag)
}

// loop reconnects with backoff until the context ends or the replica is
// promoted; with PromoteOnLoss it promotes itself after PromoteGrace of
// silence.
func (r *Replica) loop(ctx context.Context) {
	defer close(r.done)
	backoff := r.cfg.Backoff
	for {
		if ctx.Err() != nil || r.IsPromoted() {
			return
		}
		_ = r.stream(ctx) // why the link dropped is not kept: repl.reconnects counts it
		r.mu.Lock()
		r.connected = false
		silent := time.Since(r.lastContact)
		r.mu.Unlock()
		r.cfg.Obs.Gauge("repl.connected", 0)
		if ctx.Err() != nil || r.IsPromoted() {
			return
		}
		r.setState(StateConnecting)
		r.cfg.Obs.Count("repl.reconnects", 1)
		if r.cfg.PromoteOnLoss && silent >= r.cfg.PromoteGrace {
			r.Promote()
			return
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// stream runs one connection lifetime: request, read frames, dispatch.
func (r *Replica) stream(ctx context.Context) error {
	from := r.cfg.Store.Current().Seq
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/repl/stream?from=%d", r.cfg.Primary, from), nil)
	if err != nil {
		return err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: primary returned %s", resp.Status)
	}
	r.mu.Lock()
	r.connected = true
	r.lastContact = time.Now()
	r.mu.Unlock()
	r.setState(StateReplica)
	r.cfg.Obs.Gauge("repl.connected", 1)

	br := bufio.NewReader(resp.Body)
	for {
		dup := false
		if err := limits.Hit(r.cfg.Faults, "repl.recv"); err != nil {
			var ne *limits.NetError
			if errors.As(err, &ne) && ne.Kind == limits.NetDup {
				dup = true // deliver the next frame twice
			} else {
				return err // partition / torn / anything else: drop the link
			}
		}
		rec, err := store.ReadRecord(br)
		if err != nil {
			return err // EOF, torn tail, or checksum failure: reconnect
		}
		if err := r.handle(rec); err != nil {
			return err
		}
		if dup {
			// Receiver-side duplicate delivery; ApplyReplicated's dup-skip
			// must make this a no-op.
			if err := r.handle(rec); err != nil {
				return err
			}
		}
	}
}

// applyTraceStart opens the replica-apply span when the record was preceded
// by a trace sidecar with a sampled traceparent: the span joins the client's
// trace id with the primary's span as remote parent, so the distributed
// trace ends on the replica.
func (r *Replica) applyTraceStart(rec store.Record) (*obs.Trace, *obs.Span) {
	r.mu.Lock()
	tp := ""
	if r.pendingTrace != "" && r.pendingTraceEpoch == rec.Epoch {
		tp = r.pendingTrace
		r.pendingTrace, r.pendingTraceEpoch = "", 0
	}
	r.mu.Unlock()
	if tp == "" || r.cfg.Traces == nil {
		return nil, nil
	}
	tid, sid, flags, err := obs.ParseTraceparent(tp)
	if err != nil || flags&obs.FlagSampled == 0 {
		return nil, nil
	}
	t := obs.NewTrace(tid, r.ids, true)
	t.SetRemoteParent(sid)
	op := "insert"
	if rec.Op == store.OpDelete {
		op = "delete"
	}
	ctx := obs.ContextWithTrace(context.Background(), t)
	_, sp := obs.StartSpan(ctx, r.cfg.Obs, "repl.apply",
		obs.F("repl.epoch", int64(rec.Epoch)), obs.F("repl.op", op), obs.F("repl.primary", r.cfg.Primary))
	return t, sp
}

// applyTraceEnd closes and stores the replica-apply trace.
func (r *Replica) applyTraceEnd(t *obs.Trace, sp *obs.Span, applied bool, err error) {
	if t == nil {
		return
	}
	attrs := []obs.KV{obs.F("repl.applied", applied)}
	if err != nil {
		attrs = append(attrs, obs.F("error", err.Error()))
	}
	sp.End(attrs...)
	t.Finish()
	r.cfg.Traces.Add(t)
}

// handle dispatches one frame.
func (r *Replica) handle(rec store.Record) error {
	switch rec.Op {
	case store.OpHeartbeat:
		if len(rec.Text) > 0 {
			if ns, err := strconv.ParseInt(string(rec.Text), 10, 64); err == nil {
				r.touchClock(time.Unix(0, ns))
			}
		}
		r.touch(rec.Epoch)
		return nil
	case store.OpTrace:
		r.mu.Lock()
		r.pendingTrace = string(rec.Text)
		r.pendingTraceEpoch = rec.Epoch
		r.mu.Unlock()
		return nil
	case store.OpSnapshot:
		r.setState(StateCatchingUp)
		epoch, g, err := store.DecodeSnapshot(rec)
		if err != nil {
			return err
		}
		if _, err := r.cfg.Store.InstallSnapshot(epoch, g); err != nil {
			return err
		}
		r.setState(StateReplica)
		r.cfg.Obs.Count("repl.snapshots_installed", 1)
		r.touch(epoch)
		return nil
	case store.OpInsert, store.OpDelete:
		if err := limits.Hit(r.cfg.Faults, "repl.apply"); err != nil {
			var ne *limits.NetError
			if errors.As(err, &ne) && ne.Kind == limits.NetDup {
				// Apply-side duplication: fold the record in twice; the
				// second pass must dup-skip.
				defer func() { _, _, _ = r.cfg.Store.ApplyReplicated(rec) }()
			} else {
				return err
			}
		}
		tr, sp := r.applyTraceStart(rec)
		start := time.Now()
		_, applied, err := r.cfg.Store.ApplyReplicated(rec)
		r.applyTraceEnd(tr, sp, applied, err)
		if err != nil {
			// An epoch gap means the stream skipped records (e.g. after an
			// injected duplicate-connection shuffle): reconnect and resync
			// from the local epoch.
			return err
		}
		r.cfg.Obs.Observe("repl.apply_us", float64(time.Since(start).Microseconds()))
		if applied {
			r.cfg.Obs.Count("repl.records_applied", 1)
		} else {
			r.cfg.Obs.Count("repl.dup_skipped", 1)
		}
		r.touch(rec.Epoch)
		return nil
	default:
		return fmt.Errorf("repl: unexpected opcode %d", rec.Op)
	}
}
