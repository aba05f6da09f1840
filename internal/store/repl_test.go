// Tests for the store's replication surface (Subscribe / ApplyReplicated /
// InstallSnapshot / WaitEpoch) and the read-only degrade path for real WAL
// I/O failures.
package store_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/limits"
	"repro/internal/rdf"
	"repro/internal/store"
)

func mustInsert(t *testing.T, s *store.Store, triples ...rdf.Triple) store.Epoch {
	t.Helper()
	e, _, err := s.Insert(triples)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	return e
}

func memStore(t *testing.T, cfg store.Config) *store.Store {
	t.Helper()
	s, _, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// A real (non-injected, non-crash) WAL append error must degrade the store
// to read-only: the failed write and all later writes report a typed
// limits.ErrStorage, reads keep serving the last epoch, and reopening the
// directory recovers.
func TestReadOnlyDegradeOnWALError(t *testing.T) {
	dir := t.TempDir()
	enospc := errors.New("write wal.log: no space left on device")
	plan := limits.NewPlan(limits.Fault{Point: "wal.append", After: 1, Err: enospc})
	s, _, err := store.Open(store.Config{Dir: dir, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	e1 := mustInsert(t, s, rdf.T("a", "p", "b"))

	_, _, err = s.Insert([]rdf.Triple{rdf.T("c", "p", "d")})
	if !errors.Is(err, limits.ErrStorage) {
		t.Fatalf("failed write must wrap limits.ErrStorage, got %v", err)
	}
	var se *store.StorageError
	if !errors.As(err, &se) || !errors.Is(se.Cause, enospc) {
		t.Fatalf("want *StorageError carrying the I/O cause, got %v", err)
	}
	if !s.ReadOnly() {
		t.Fatal("store must latch read-only after a WAL I/O failure")
	}

	// Later writes hit the latch (typed the same way), reads keep serving.
	if _, _, err := s.Insert([]rdf.Triple{rdf.T("e", "p", "f")}); !errors.Is(err, limits.ErrStorage) {
		t.Fatalf("latched write = %v, want ErrStorage", err)
	}
	if cur := s.Current(); cur.Seq != e1.Seq || !cur.Graph.Has(rdf.T("a", "p", "b")) {
		t.Fatalf("reads must keep serving the last committed epoch, got seq %d", cur.Seq)
	}
	s.Close()

	// A restart (with the condition fixed) recovers writes.
	s2, rec, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Epoch != e1.Seq || s2.ReadOnly() {
		t.Fatalf("reopen: epoch=%d readonly=%v", rec.Epoch, s2.ReadOnly())
	}
	mustInsert(t, s2, rdf.T("c", "p", "d"))
}

// An injected transient fault (plain ActError) is not an I/O failure and
// must not latch read-only — the retry layer upstream absorbs it.
func TestInjectedTransientDoesNotLatchReadOnly(t *testing.T) {
	plan := limits.NewPlan(limits.Fault{Point: "wal.append", Times: 1, Action: limits.ActError})
	s := memStore(t, store.Config{Dir: t.TempDir(), Faults: plan})
	_, _, err := s.Insert([]rdf.Triple{rdf.T("a", "p", "b")})
	if !errors.Is(err, limits.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if s.ReadOnly() {
		t.Fatal("injected transient must not latch read-only")
	}
	mustInsert(t, s, rdf.T("a", "p", "b"))
}

// Subscribe pre-buffers the retained backlog and then delivers live
// commits in epoch order.
func TestSubscribeTail(t *testing.T) {
	s := memStore(t, store.Config{})
	mustInsert(t, s, rdf.T("a", "p", "b"))
	mustInsert(t, s, rdf.T("b", "p", "c"))

	sub, snap, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if snap != nil {
		t.Fatalf("backlog within retention must not need a snapshot (got seq %d)", snap.Seq)
	}
	mustInsert(t, s, rdf.T("c", "p", "d"))

	for want := uint64(1); want <= 3; want++ {
		select {
		case r := <-sub.Records():
			if r.Epoch != want || r.Op != store.OpInsert {
				t.Fatalf("record %d: epoch=%d op=%d", want, r.Epoch, r.Op)
			}
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for record %d", want)
		}
	}

	// Subscribing from a future epoch is an error.
	if _, _, err := s.Subscribe(99); !errors.Is(err, store.ErrFutureEpoch) {
		t.Fatalf("future subscribe = %v, want ErrFutureEpoch", err)
	}
}

// A subscriber older than the retained changelog gets a snapshot to
// install, and its record stream resumes after the snapshot epoch.
func TestSubscribeSnapshotFallback(t *testing.T) {
	s := memStore(t, store.Config{ReplLog: 2})
	for i := 0; i < 5; i++ {
		mustInsert(t, s, rdf.T(fmt.Sprintf("s%d", i), "p", "o"))
	}
	sub, snap, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if snap == nil || snap.Seq != 5 || snap.Graph.Len() != 5 {
		t.Fatalf("want full snapshot at epoch 5, got %+v", snap)
	}
	select {
	case r := <-sub.Records():
		t.Fatalf("no backlog expected after a snapshot handoff, got epoch %d", r.Epoch)
	default:
	}

	// Within retention: records, no snapshot.
	sub2, snap2, err := s.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if snap2 != nil {
		t.Fatal("epoch 4 is within retention; no snapshot expected")
	}
	if r := <-sub2.Records(); r.Epoch != 5 {
		t.Fatalf("backlog must resume at epoch 5, got %d", r.Epoch)
	}
}

// A subscriber that stops draining is dropped with Overflowed set rather
// than stalling writers.
func TestSubscribeOverflow(t *testing.T) {
	s := memStore(t, store.Config{})
	sub, _, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		mustInsert(t, s, rdf.T(fmt.Sprintf("s%d", i), "p", "o"))
	}
	deadline := time.After(time.Second)
	for !sub.Overflowed() {
		select {
		case <-deadline:
			t.Fatal("sub never overflowed")
		case <-time.After(time.Millisecond):
		}
	}
	// The channel must be closed (drain whatever was buffered first).
	for range sub.Records() {
	}
}

// ApplyReplicated replays a primary's stream: duplicates skip idempotently,
// gaps are typed errors, and the replica converges to the same graph at the
// same epoch.
func TestApplyReplicatedStream(t *testing.T) {
	primary := memStore(t, store.Config{})
	sub, _, err := primary.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	mustInsert(t, primary, rdf.T("a", "p", "b"), rdf.T("b", "p", "c"))
	if _, _, err := primary.Delete([]rdf.Triple{rdf.T("a", "p", "b")}); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, primary, rdf.T("c", "p", "d"))

	var recs []store.Record
	for len(recs) < 3 {
		recs = append(recs, <-sub.Records())
	}

	replica := memStore(t, store.Config{})
	for _, r := range recs {
		e, applied, err := replica.ApplyReplicated(r)
		if err != nil || !applied || e.Seq != r.Epoch {
			t.Fatalf("apply epoch %d: e=%d applied=%v err=%v", r.Epoch, e.Seq, applied, err)
		}
	}
	if !replica.Current().Graph.Equal(primary.Current().Graph) {
		t.Fatal("replica must converge to the primary's graph")
	}

	// Duplicate: skipped, epoch unchanged — NetDup faults are harmless.
	e, applied, err := replica.ApplyReplicated(recs[1])
	if err != nil || applied || e.Seq != 3 {
		t.Fatalf("dup apply: e=%d applied=%v err=%v", e.Seq, applied, err)
	}
	// Gap: typed error, state unchanged.
	_, _, err = replica.ApplyReplicated(store.Record{Op: store.OpInsert, Epoch: 9, Text: []byte("x p y .\n")})
	var ge *store.GapError
	if !errors.Is(err, store.ErrEpochGap) || !errors.As(err, &ge) || ge.Want != 4 || ge.Got != 9 {
		t.Fatalf("gap apply = %v", err)
	}

	// A no-op batch still advances the epoch: replicas track the primary's
	// numbering exactly.
	e, applied, err = replica.ApplyReplicated(store.Record{Op: store.OpInsert, Epoch: 4, Text: []byte(`<c> <p> <d> .` + "\n")})
	if err != nil || !applied || e.Seq != 4 {
		t.Fatalf("no-op apply: e=%d applied=%v err=%v", e.Seq, applied, err)
	}
}

// InstallSnapshot clobbers replica state, and a durable replica checkpoints
// it so the installed state survives a restart.
func TestInstallSnapshotDurable(t *testing.T) {
	primary := memStore(t, store.Config{})
	mustInsert(t, primary, rdf.T("a", "p", "b"), rdf.T("b", "p", "c"))
	mustInsert(t, primary, rdf.T("c", "p", "d"))
	frame := store.SnapshotRecord(primary.Current())
	epoch, g, err := store.DecodeSnapshot(frame)
	if err != nil || epoch != 2 || g.Len() != 3 {
		t.Fatalf("snapshot round-trip: epoch=%d len=%d err=%v", epoch, g.Len(), err)
	}

	dir := t.TempDir()
	replica, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, replica, rdf.T("stale", "p", "state")) // diverged state to clobber
	if _, err := replica.InstallSnapshot(epoch, g); err != nil {
		t.Fatal(err)
	}
	if cur := replica.Current(); cur.Seq != 2 || !cur.Graph.Equal(g) {
		t.Fatalf("installed state: seq=%d len=%d", cur.Seq, cur.Graph.Len())
	}
	replica.Close()

	re, rec, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec.Epoch != 2 || !re.Current().Graph.Equal(g) {
		t.Fatalf("reopen after install: epoch=%d triples=%d", rec.Epoch, rec.Triples)
	}
}

// A checkpoint that fails after the installed epoch is already being served
// must not leave WaitEpoch callers asleep: a bounded-staleness read would
// shed for an epoch the store holds.
func TestInstallSnapshotWakesWaitersBeforeCheckpoint(t *testing.T) {
	plan := limits.NewPlan(limits.Fault{Point: "wal.checkpoint", Action: limits.ActError})
	s := memStore(t, store.Config{Dir: t.TempDir(), Faults: plan})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.WaitEpoch(ctx, 5) }()
	time.Sleep(20 * time.Millisecond) // let the waiter park on the watch channel
	g := rdf.NewGraph()
	g.Add(rdf.T("a", "p", "b"))
	if _, err := s.InstallSnapshot(5, g); err == nil {
		t.Fatal("install with a failing checkpoint returned no error")
	}
	if seq := s.Current().Seq; seq != 5 {
		t.Fatalf("current epoch = %d, want the installed 5", seq)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitEpoch(5) = %v with epoch 5 installed", err)
	}
}

// WaitEpoch is the bounded-staleness primitive: it returns when the epoch
// arrives, types a deadline miss, and fails fast on a closed store.
func TestWaitEpoch(t *testing.T) {
	s := memStore(t, store.Config{})
	done := make(chan error, 1)
	go func() { done <- s.WaitEpoch(context.Background(), 2) }()
	mustInsert(t, s, rdf.T("a", "p", "b"))
	mustInsert(t, s, rdf.T("b", "p", "c"))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait for reached epoch: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitEpoch never returned")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.WaitEpoch(ctx, 99); !errors.Is(err, limits.ErrDeadline) {
		t.Fatalf("deadline wait = %v, want ErrDeadline", err)
	}

	s.Close()
	if err := s.WaitEpoch(context.Background(), 99); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("closed wait = %v, want ErrClosed", err)
	}
}

// A bootstrap produces no changelog record, so subscribers from before it
// must be dropped (they resubscribe and get the snapshot path) and
// subscribers from after it must resync via snapshot rather than wait for
// an epoch-1 record that never comes.
func TestSubscribeAcrossBootstrap(t *testing.T) {
	s := memStore(t, store.Config{})
	early, _, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	g.Add(rdf.T("a", "p", "b"))
	if _, err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-early.Records():
		if ok {
			t.Fatal("pre-bootstrap subscriber received a record")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pre-bootstrap subscriber was not dropped")
	}
	sub, snap, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if snap == nil || snap.Seq != 1 || !snap.Graph.Has(rdf.T("a", "p", "b")) {
		t.Fatalf("post-bootstrap subscribe = %+v, want snapshot at epoch 1", snap)
	}
	// WaitEpoch observers see the bootstrap too.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.WaitEpoch(ctx, 1); err != nil {
		t.Fatal(err)
	}
}
