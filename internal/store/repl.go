package store

// The replication-facing surface of the store. A primary exposes its commit
// stream through Subscribe; internal/repl ships the records over HTTP and a
// replica folds them back in through ApplyReplicated / InstallSnapshot.
// Epoch numbering is the correctness contract end to end: a replica at
// epoch E holds bit-identical triples to the primary at epoch E, so the
// paper's certain-answer semantics gives identical query answers at equal
// epochs.
//
// This file also owns the read-only degrade path (satellite of the same
// PR): a real WAL append/fsync I/O error — ENOSPC-class, as opposed to an
// injected crash — must not take reads down with the writes. The store
// latches readonly, keeps serving the last committed epoch, and fails
// further writes with a *StorageError wrapping limits.ErrStorage, which the
// serve layer maps to 503 + Retry-After.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/limits"
	"repro/internal/rdf"
)

// subBuf is the live-tail channel capacity a subscription gets beyond its
// catch-up backlog. A subscriber that falls further behind than this without
// draining is dropped (Overflowed) and must resubscribe.
const subBuf = 256

// Replication errors.
var (
	// ErrEpochGap reports an ApplyReplicated record that is neither a
	// duplicate nor the next epoch: the stream skipped records and the
	// replica must resynchronize.
	ErrEpochGap = errors.New("store: replication epoch gap")
	// ErrFutureEpoch reports a Subscribe from an epoch the store has not
	// reached.
	ErrFutureEpoch = errors.New("store: subscribe from future epoch")
)

// GapError carries the epochs around a replication gap.
type GapError struct {
	// Want is the next epoch the store can apply (current + 1).
	Want uint64
	// Got is the record epoch that arrived instead.
	Got uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("store: replication epoch gap: want %d, got %d", e.Want, e.Got)
}

func (e *GapError) Unwrap() error { return ErrEpochGap }

// StorageError is a durable-write failure: a real WAL append or fsync I/O
// error (as opposed to an injected crash or network fault). It wraps
// limits.ErrStorage. A nil Cause means the store was already latched
// read-only by an earlier failure.
type StorageError struct {
	// Op is the failed operation, e.g. "wal append".
	Op string
	// Cause is the underlying I/O error; nil on the latched path.
	Cause error
}

func (e *StorageError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("store: %s failed, store is now read-only: %v", e.Op, e.Cause)
	}
	return "store: read-only (an earlier WAL write failed); reads keep serving"
}

func (e *StorageError) Unwrap() error { return limits.ErrStorage }

// writeFailed classifies a WAL write error. Injected crashes latch the
// crashed state (simulated process death: nothing works until reopen);
// injected transient and network faults pass through untouched; anything
// else is a real I/O failure that degrades the store to read-only.
func (s *Store) writeFailed(op string, err error) error {
	s.noteCrash(err)
	if errors.Is(err, limits.ErrCrash) || errors.Is(err, limits.ErrInjected) || errors.Is(err, limits.ErrNet) {
		return err
	}
	s.readonly.Store(true)
	return &StorageError{Op: op, Cause: err}
}

// ReadOnly reports whether a WAL I/O failure degraded the store to
// read-only. Reads keep serving; restart the process (with the underlying
// condition fixed, e.g. disk space freed) to recover writes.
func (s *Store) ReadOnly() bool { return s.readonly.Load() }

// Faults exposes the store's fault plan so the replication layer can arm
// its own points ("repl.send") from the same plan.
func (s *Store) Faults() *limits.Plan { return s.cfg.Faults }

// Sub is a live subscription to the commit stream. Records arrive on
// Records() in epoch order; the channel closes when the subscriber falls
// too far behind (Overflowed reports true — resubscribe), on
// InstallSnapshot (stream continuity is broken), or when the store closes.
type Sub struct {
	st   *Store
	ch   chan Record
	once sync.Once
	over atomic.Bool
}

// Records is the subscription's record channel.
func (u *Sub) Records() <-chan Record { return u.ch }

// Overflowed reports whether the store dropped this subscription because
// the subscriber did not keep up.
func (u *Sub) Overflowed() bool { return u.over.Load() }

// Close detaches the subscription and closes its channel.
func (u *Sub) Close() {
	u.st.mu.Lock()
	defer u.st.mu.Unlock()
	u.st.dropSubLocked(u)
}

// Subscribe attaches a commit-stream subscription resuming after epoch
// `from` (i.e. the first record delivered is epoch from+1). When `from` is
// older than the retained changelog, record-by-record catch-up is not
// possible: the returned *Epoch is non-nil and holds the current state the
// subscriber must install first, with the subscription resuming after it.
// Records already committed are pre-buffered, so they are never missed
// between the Subscribe and the first channel read.
func (s *Store) Subscribe(from uint64) (*Sub, *Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return nil, nil, err
	}
	cur := s.cur.Load()
	if from > cur.Seq {
		return nil, nil, fmt.Errorf("%w: %d > %d", ErrFutureEpoch, from, cur.Seq)
	}
	var snapshot *Epoch
	var backlog []Record
	if from < s.clFloor {
		snapshot = cur // too far behind: full state transfer, resume at cur
	} else {
		backlog = s.changelog[from-s.clFloor:]
	}
	u := &Sub{st: s, ch: make(chan Record, len(backlog)+subBuf)}
	for _, r := range backlog {
		u.ch <- r
	}
	s.subs[u] = struct{}{}
	return u, snapshot, nil
}

// noteCommitLocked records a committed mutation in the changelog, fans it
// out to live subscriptions, and wakes epoch waiters. Caller holds s.mu and
// has already swapped the epoch in.
func (s *Store) noteCommitLocked(r Record) {
	if s.cfg.ReplLog > 0 {
		s.changelog = append(s.changelog, r)
		if over := len(s.changelog) - s.cfg.ReplLog; over > 0 {
			s.clFloor += uint64(over)
			s.changelog = append(s.changelog[:0:0], s.changelog[over:]...)
		}
	} else {
		s.clFloor = r.Epoch
	}
	for u := range s.subs {
		select {
		case u.ch <- r:
		default:
			u.over.Store(true)
			s.dropSubLocked(u)
		}
	}
	s.wakeWaitersLocked()
}

func (s *Store) dropSubLocked(u *Sub) {
	if _, ok := s.subs[u]; ok {
		delete(s.subs, u)
	}
	u.once.Do(func() { close(u.ch) })
}

func (s *Store) dropAllSubsLocked() {
	for u := range s.subs {
		s.dropSubLocked(u)
	}
}

func (s *Store) wakeWaitersLocked() {
	close(s.watch)
	s.watch = make(chan struct{})
}

// WaitEpoch blocks until the store's epoch reaches seq, the context ends,
// or the store closes. It is the bounded-staleness primitive: a replica
// holding a client's min-epoch token waits here up to the staleness
// deadline. Context expiry returns a typed limits error (ErrDeadline /
// ErrCanceled).
func (s *Store) WaitEpoch(ctx context.Context, seq uint64) error {
	for {
		if s.cur.Load().Seq >= seq {
			return nil
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		ch := s.watch
		reached := s.cur.Load().Seq >= seq
		s.mu.Unlock()
		if reached {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			if kind := limits.CtxKind(ctx); kind != nil {
				return limits.NewError(kind, limits.Truncation{})
			}
			return ctx.Err()
		}
	}
}

// ApplyReplicated folds one primary-shipped mutation record into the store.
// A record at or below the current epoch is a duplicate and is skipped
// idempotently (applied=false) — receiver-side dedup is what makes injected
// NetDup faults harmless. A record more than one epoch ahead is a *GapError
// and the replica must resynchronize. The record is WAL-appended locally
// (replica durability: promotion serves from the recovered WAL), and unlike
// Insert/Delete the epoch advances even for a no-op batch, because the
// replica must track the primary's epoch numbering exactly.
func (s *Store) ApplyReplicated(r Record) (Epoch, bool, error) {
	start := time.Now()
	if r.Op != OpInsert && r.Op != OpDelete {
		return Epoch{}, false, fmt.Errorf("store: apply replicated: opcode %d is not a mutation", r.Op)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableWrite(); err != nil {
		return Epoch{}, false, err
	}
	cur := s.cur.Load()
	if r.Epoch <= cur.Seq {
		return *cur, false, nil
	}
	if r.Epoch != cur.Seq+1 {
		return Epoch{}, false, &GapError{Want: cur.Seq + 1, Got: r.Epoch}
	}
	batch, err := rdf.ParseNTriplesString(string(r.Text))
	if err != nil {
		return Epoch{}, false, fmt.Errorf("store: apply replicated: bad record payload: %w", err)
	}
	triples := batch.Triples()
	next, _ := applyBatch(cur.Graph, r.Op, triples, false)
	e, err := s.commitLocked(r, next, triples, StageApply, start)
	return e, e.Graph != nil, err
}

// InstallSnapshot replaces the store's state wholesale with g at the given
// epoch — the replica-side counterpart of a stream snapshot frame. The
// changelog is cleared and live subscriptions are dropped (their stream
// continuity is gone); when durable, the state is checkpointed so the
// snapshot survives a restart without the shipped records.
func (s *Store) InstallSnapshot(epoch uint64, g *rdf.Graph) (Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableWrite(); err != nil {
		return Epoch{}, err
	}
	return s.installLocked(&Epoch{Seq: epoch, Graph: g.Clone()})
}

// SnapshotRecord renders an epoch as a stream snapshot frame (OpSnapshot,
// payload = the full graph in sorted N-Triples).
func SnapshotRecord(e Epoch) Record {
	return Record{Op: OpSnapshot, Epoch: e.Seq, Text: []byte(e.Graph.String())}
}

// DecodeSnapshot parses a stream snapshot frame back into its graph.
func DecodeSnapshot(r Record) (uint64, *rdf.Graph, error) {
	if r.Op != OpSnapshot {
		return 0, nil, fmt.Errorf("store: decode snapshot: opcode %d is not a snapshot", r.Op)
	}
	g, err := rdf.ParseNTriplesString(string(r.Text))
	if err != nil {
		return 0, nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	return r.Epoch, g, nil
}
