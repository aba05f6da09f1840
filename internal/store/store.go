// Package store is the durable live write path of the engine: an
// epoch-versioned, copy-on-write RDF fact store in front of a length-
// prefixed, CRC32-checksummed write-ahead log with snapshot checkpoints and
// crash recovery.
//
// Readers call Current and get an immutable Epoch — a sequence number plus
// an rdf.Graph that is never mutated again — so any number of in-flight
// queries keep a consistent snapshot while writers commit. Writers
// (Insert/Delete) serialize on an internal lock: each batch is logged to
// the WAL, made durable per the sync policy, applied to a copy of the
// current graph, and only then swapped in as the next epoch. A batch is
// atomic: it is entirely visible from its epoch on, or not at all.
//
// Durability contract: with SyncAlways, a batch whose call returned is on
// stable storage before it is acknowledged, so an acknowledged write
// survives kill -9. With SyncInterval/SyncNone the acknowledgment races
// the flush and a crash may lose the tail — but recovery still never
// surfaces a torn batch: the WAL reader accepts the longest prefix of
// whole, checksum-valid records and truncates the file at the first bad
// byte (see wal.go). Checkpoints write the current graph as an N-Triples
// snapshot via an atomic rename, then reset the WAL; a crash between the
// two leaves stale records that recovery skips by epoch.
//
// The fault points "wal.append", "wal.sync", "wal.checkpoint", and
// "store.swap" (internal/limits, TRIQ_FAULTS) let tests kill the store at
// every stage of a commit, with torn-write and bit-flip corruption modes;
// after an injected crash the store refuses all further work and the test
// reopens the directory, exactly like a restarted process.
package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// SyncPolicy says when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before it is acknowledged: acknowledged
	// writes survive kill -9.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background cadence (Config.SyncInterval); a
	// crash may lose the unsynced tail, never a torn batch.
	SyncInterval
	// SyncNone never fsyncs; the OS decides. Fastest, weakest.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the -wal-sync flag values to a policy.
func ParseSyncPolicy(name string) (SyncPolicy, error) {
	switch name {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("store: unknown sync policy %q (want always, interval, or none)", name)
	}
}

// Config assembles a Store.
type Config struct {
	// Dir is the durability directory (WAL + snapshot). Empty means a pure
	// in-memory epoch store: mutations work, nothing survives the process.
	Dir string
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the background flush cadence under SyncInterval
	// (default 100ms).
	SyncInterval time.Duration
	// CheckpointEvery triggers a snapshot checkpoint after this many
	// committed batches (default 1024; negative disables count-triggered
	// checkpoints).
	CheckpointEvery int
	// CheckpointBytes triggers a checkpoint once the WAL exceeds this size
	// (default 64 MiB; negative disables size-triggered checkpoints).
	CheckpointBytes int64
	// ReplLog is how many committed records the in-memory changelog retains
	// for replication catch-up (default 4096; negative disables retention, so
	// every reconnecting replica gets a full snapshot).
	ReplLog int
	// Faults arms the store's crash/corruption points for tests; the
	// process-global TRIQ_FAULTS plan is always consulted as well.
	Faults *limits.Plan
	// OnCommit, when set, observes every epoch swap: committed mutation
	// batches (OpInsert/OpDelete with the batch's triples) and wholesale
	// state replacements (OpSnapshot from Bootstrap/InstallSnapshot, no
	// triples — downstream state must be rebuilt from the graph). It runs
	// synchronously under the store's write lock, before the mutation is
	// acknowledged, so an incremental materialization folded here is never
	// behind an acknowledged write; it must be fast and must not call back
	// into the store. No-op primary batches commit no epoch and are not
	// reported; replicated no-op records are (the replica's epoch advances).
	OnCommit func(CommitEvent)
	// Obs, when set, receives the commit-pipeline telemetry: the per-stage
	// histograms wal.sync_us and store.commit_visible_us. Stage stamps in
	// the epoch Timeline are recorded regardless.
	Obs *obs.Obs
	// TimelineCap bounds the epoch timeline ring (default 512 recent
	// epochs).
	TimelineCap int
}

// CommitEvent describes one epoch swap for Config.OnCommit.
type CommitEvent struct {
	// Epoch is the sequence number just swapped in.
	Epoch uint64
	// Op is OpInsert or OpDelete for a mutation batch, OpSnapshot for a
	// wholesale state replacement (bootstrap or replica snapshot install).
	Op byte
	// Triples is the mutation batch as submitted (inserts may contain
	// duplicates of present triples, deletes may name absent ones — both are
	// no-ops at the graph level and folding them must tolerate that). Nil
	// for OpSnapshot events.
	Triples []rdf.Triple
}

func (c Config) withDefaults() Config {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 100 * time.Millisecond
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1024
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 64 << 20
	}
	if c.ReplLog == 0 {
		c.ReplLog = 4096
	}
	return c
}

// Epoch is one committed version of the store: a sequence number and the
// immutable graph that version holds. Readers may keep an Epoch arbitrarily
// long; its Graph never changes.
type Epoch struct {
	// Seq is the commit sequence number, 0 for the empty pre-bootstrap store.
	Seq uint64
	// Graph is this epoch's triple set. It must not be mutated.
	Graph *rdf.Graph
}

// Recovery reports what Open found and did.
type Recovery struct {
	// SnapshotEpoch is the checkpoint the replay started from (0 = none).
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	// Epoch is the recovered store epoch after replay.
	Epoch uint64 `json:"epoch"`
	// Triples is the recovered graph size.
	Triples int `json:"triples"`
	// Records is the number of WAL records replayed onto the snapshot.
	Records int `json:"records_replayed"`
	// Skipped counts stale pre-snapshot records (a crash between a
	// checkpoint's snapshot rename and its WAL reset leaves them behind).
	Skipped int `json:"records_skipped,omitempty"`
	// DamagedTail is true when the WAL ended in a torn or corrupt record;
	// the file was truncated at TruncatedAt and the tail discarded.
	DamagedTail bool `json:"damaged_tail,omitempty"`
	// TruncatedAt is the byte offset the WAL was cut back to when
	// DamagedTail is set.
	TruncatedAt int64 `json:"truncated_at,omitempty"`
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Store errors.
var (
	// ErrCrashed reports that an injected crash point fired; the store
	// refuses all further work until reopened, like a dead process.
	ErrCrashed = errors.New("store: crashed by fault injection; reopen to recover")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("store: closed")
	// ErrNotEmpty reports a Bootstrap against a store that already has data.
	ErrNotEmpty = errors.New("store: bootstrap requires an empty store")
)

const (
	snapshotName = "snapshot.nt"
	walName      = "wal.log"
)

// Store is the epoch-versioned durable fact store. Safe for any number of
// concurrent readers (Current) alongside serialized writers.
type Store struct {
	cfg Config

	mu     sync.Mutex // serializes Insert/Delete/Checkpoint/Bootstrap/Close
	cur    atomic.Pointer[Epoch]
	w      *wal // nil in memory-only mode
	closed bool

	crashed  atomic.Bool
	readonly atomic.Bool // latched by a real WAL I/O failure; see repl.go
	batches  int         // committed batches since the last checkpoint

	// Replication state (repl.go): the changelog retains the last ReplLog
	// committed records — epochs clFloor+1 through cur.Seq, contiguous — so a
	// reconnecting replica can catch up without a snapshot; subs fan commits
	// out to live streams; watch is closed and remade on every epoch swap so
	// bounded-staleness readers can wait for an epoch.
	changelog []Record
	clFloor   uint64
	subs      map[*Sub]struct{}
	watch     chan struct{}

	stopSync chan struct{} // interval-syncer lifecycle
	syncWG   sync.WaitGroup

	// tl is the commit-pipeline flight recorder (timeline.go): per-epoch
	// stage stamps for /debug/epochs and the slow-mutation log.
	tl *Timeline
}

// Timeline exposes the store's epoch-stage flight recorder.
func (s *Store) Timeline() *Timeline { return s.tl }

// Open builds a Store from cfg.Dir: it loads the latest snapshot if any,
// replays the WAL past torn or corrupt tails (truncating the file at the
// first bad record), and installs the recovered epoch. A fresh or empty
// directory yields epoch 0 with an empty graph — seed it with Bootstrap.
func Open(cfg Config) (*Store, *Recovery, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:   cfg,
		subs:  make(map[*Sub]struct{}),
		watch: make(chan struct{}),
		tl:    newTimeline(cfg.TimelineCap),
	}
	rec := &Recovery{}
	start := time.Now()

	g := rdf.NewGraph()
	epoch := uint64(0)

	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("store: open: %w", err)
		}
		snapEpoch, snapGraph, err := readSnapshot(filepath.Join(cfg.Dir, snapshotName))
		if err != nil {
			return nil, nil, err
		}
		if snapGraph != nil {
			g = snapGraph
			epoch = snapEpoch
			rec.SnapshotEpoch = snapEpoch
		}

		w, err := openWAL(filepath.Join(cfg.Dir, walName), cfg.Sync, cfg.Faults, cfg.Obs)
		if err != nil {
			return nil, nil, fmt.Errorf("store: open wal: %w", err)
		}
		epoch, err = s.replay(w, g, epoch, rec)
		if err != nil {
			w.f.Close()
			return nil, nil, err
		}
		s.w = w
		if cfg.Sync == SyncInterval {
			s.stopSync = make(chan struct{})
			s.syncWG.Add(1)
			go s.syncLoop()
		}
	}

	s.cur.Store(&Epoch{Seq: epoch, Graph: g})
	s.clFloor = epoch // nothing retained yet: pre-open epochs need a snapshot
	rec.Epoch = epoch
	rec.Triples = g.Len()
	rec.Elapsed = time.Since(start)
	return s, rec, nil
}

// replay applies the WAL's valid prefix onto g in place and truncates the
// file past the first bad record. It returns the recovered epoch.
func (s *Store) replay(w *wal, g *rdf.Graph, snapEpoch uint64, rec *Recovery) (uint64, error) {
	buf, err := os.ReadFile(w.path)
	if err != nil {
		return 0, fmt.Errorf("store: read wal: %w", err)
	}
	recs, valid, damaged := scanRecords(buf)
	epoch := snapEpoch
	for _, r := range recs {
		if r.Epoch <= snapEpoch {
			// Stale record from before the snapshot: a crash interrupted a
			// checkpoint after the rename, before the WAL reset.
			rec.Skipped++
			continue
		}
		if r.Epoch != epoch+1 {
			// A gap between the snapshot and the first live record: the
			// remainder of the log is not continuable. Cut here.
			valid, damaged = int(r.off), true
			break
		}
		batch, perr := rdf.ParseNTriplesString(string(r.Text))
		if perr != nil {
			// Checksum-valid but unparseable — treat like corruption and
			// truncate; nothing after it can be trusted to apply in order.
			valid, damaged = int(r.off), true
			break
		}
		applyBatch(g, r.Op, batch.Triples(), true)
		epoch = r.Epoch
		rec.Records++
	}
	if damaged {
		rec.DamagedTail = true
		rec.TruncatedAt = int64(valid)
		if err := w.f.Truncate(int64(valid)); err != nil {
			return 0, fmt.Errorf("store: truncate damaged wal tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("store: sync truncated wal: %w", err)
		}
	}
	if _, err := w.f.Seek(int64(valid), 0); err != nil {
		return 0, fmt.Errorf("store: seek wal end: %w", err)
	}
	w.size = int64(valid)
	return epoch, nil
}

// syncLoop is the SyncInterval background flusher.
func (s *Store) syncLoop() {
	defer s.syncWG.Done()
	t := time.NewTicker(s.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !s.crashed.Load() {
				if err := s.w.sync(); err != nil {
					// A background fsync failure is a real I/O error with no
					// caller to report to: degrade to read-only (repl.go).
					s.readonly.Store(true)
				}
			}
		case <-s.stopSync:
			return
		}
	}
}

// Current returns the live epoch. The returned graph is immutable; readers
// may hold it across any number of writer commits.
func (s *Store) Current() Epoch { return *s.cur.Load() }

// Durable reports whether the store persists mutations at all.
func (s *Store) Durable() bool { return s.w != nil }

// AckDurable reports whether an acknowledged mutation is guaranteed to be on
// stable storage (durable store with SyncAlways).
func (s *Store) AckDurable() bool { return s.w != nil && s.cfg.Sync == SyncAlways }

// Crashed reports whether an injected crash point fired.
func (s *Store) Crashed() bool { return s.crashed.Load() }

// Bootstrap seeds an empty store (epoch 0, no triples) with g as epoch 1
// and, when durable, checkpoints it so the seed does not depend on the WAL.
func (s *Store) Bootstrap(g *rdf.Graph) (Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableWrite(); err != nil {
		return Epoch{}, err
	}
	cur := s.cur.Load()
	if cur.Seq != 0 || cur.Graph.Len() != 0 {
		return Epoch{}, ErrNotEmpty
	}
	return s.installLocked(&Epoch{Seq: 1, Graph: g.Clone()})
}

// installLocked is the tail the two whole-graph installs share (Bootstrap,
// InstallSnapshot). No changelog record leads to e: the retention floor
// moves to it so subscribers resync via snapshot, and live subscriptions are
// dropped (they would wait forever for a record that never comes). Waiters
// wake before the checkpoint, because e is served from the swap on whether
// or not the checkpoint then succeeds.
func (s *Store) installLocked(e *Epoch) (Epoch, error) {
	s.cur.Store(e)
	s.changelog = nil
	s.clFloor = e.Seq
	s.dropAllSubsLocked()
	s.wakeWaitersLocked()
	if s.cfg.OnCommit != nil {
		s.cfg.OnCommit(CommitEvent{Epoch: e.Seq, Op: OpSnapshot})
	}
	if err := s.checkpointLocked(); err != nil {
		return Epoch{}, err
	}
	return *e, nil
}

// Insert commits one batch of triples as a new epoch. It returns the new
// epoch and how many triples were actually new; a batch of only duplicates
// is a no-op that neither logs nor bumps the epoch. The batch is atomic:
// after a crash it is recovered entirely or not at all.
func (s *Store) Insert(triples []rdf.Triple) (Epoch, int, error) {
	return s.apply(OpInsert, triples, "")
}

// Delete commits one batch of removals as a new epoch, returning the new
// epoch and how many triples were actually removed. Missing triples are
// ignored; a batch removing nothing is a no-op.
func (s *Store) Delete(triples []rdf.Triple) (Epoch, int, error) {
	return s.apply(OpDelete, triples, "")
}

// InsertTraced is Insert with the originating W3C traceparent attached to
// the committed record, so the replication layer can propagate the trace
// context to replicas. The traceparent rides the in-memory changelog only —
// it is never written to the WAL.
func (s *Store) InsertTraced(triples []rdf.Triple, traceparent string) (Epoch, int, error) {
	return s.apply(OpInsert, triples, traceparent)
}

// DeleteTraced is Delete with the originating traceparent attached; see
// InsertTraced.
func (s *Store) DeleteTraced(triples []rdf.Triple, traceparent string) (Epoch, int, error) {
	return s.apply(OpDelete, triples, traceparent)
}

func (s *Store) apply(op byte, triples []rdf.Triple, traceparent string) (Epoch, int, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableWrite(); err != nil {
		return Epoch{}, 0, err
	}
	cur := s.cur.Load()

	next, n := applyBatch(cur.Graph, op, triples, false)
	if n == 0 {
		return *cur, 0, nil
	}

	var text bytes.Buffer
	rdf.WriteNTriples(&text, triples) // a bytes.Buffer never fails a write
	r := Record{Op: op, Epoch: cur.Seq + 1, Text: text.Bytes(), Trace: traceparent}
	e, err := s.commitLocked(r, next, triples, StageCommit, start)
	if e.Graph == nil {
		n = 0 // failed before the swap: nothing was committed
	}
	return e, n, err
}

// commitLocked is the tail every mutation shares, on the primary and on a
// follower: it logs r, swaps in next as epoch r.Epoch, and tells the
// changelog, the OnCommit hook (with batch) and the timeline, whose last
// stamp is final. A failure before the swap returns the zero Epoch. After it
// the mutation is committed and visible, so a failed checkpoint comes back
// with the new epoch: still an error the caller must see.
func (s *Store) commitLocked(r Record, next *rdf.Graph, batch []rdf.Triple, final Stage, start time.Time) (Epoch, error) {
	s.tl.StampAt(r.Epoch, StageStart, start)
	if s.w != nil {
		if err := s.w.append(r); err != nil {
			return Epoch{}, s.writeFailed("wal append", err)
		}
		s.tl.StampAt(r.Epoch, StageAppend, s.w.appendedAt)
		if !s.w.syncedAt.IsZero() {
			s.tl.StampAt(r.Epoch, StageSync, s.w.syncedAt)
		}
	} else {
		s.tl.Stamp(r.Epoch, StageAppend)
	}

	// The record is durable (per policy); the swap makes it visible. A crash
	// here loses nothing: the un-acknowledged batch is whole in the WAL and
	// recovery replays it — the allowed "unacknowledged-whole" outcome.
	if err := limits.Hit(s.cfg.Faults, "store.swap"); err != nil {
		s.noteCrash(err)
		return Epoch{}, err
	}
	e := &Epoch{Seq: r.Epoch, Graph: next}
	s.cur.Store(e)
	s.batches++
	s.noteCommitLocked(r)
	if s.cfg.OnCommit != nil {
		s.cfg.OnCommit(CommitEvent{Epoch: e.Seq, Op: r.Op, Triples: batch})
		s.tl.Stamp(e.Seq, StageMaintain)
	}
	s.tl.Stamp(e.Seq, final)
	s.cfg.Obs.Observe("store.commit_visible_us", float64(time.Since(start).Microseconds()))
	return *e, s.maybeCheckpointLocked()
}

// Checkpoint snapshots the current epoch and resets the WAL.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableWrite(); err != nil {
		return err
	}
	return s.checkpointLocked()
}

func (s *Store) maybeCheckpointLocked() error {
	if s.w == nil {
		return nil
	}
	byCount := s.cfg.CheckpointEvery > 0 && s.batches >= s.cfg.CheckpointEvery
	bySize := s.cfg.CheckpointBytes > 0 && s.w.size >= s.cfg.CheckpointBytes
	if !byCount && !bySize {
		return nil
	}
	return s.checkpointLocked()
}

// checkpointLocked writes snapshot.nt via an atomic rename, then resets the
// WAL. The "wal.checkpoint" fault point fires in the window between the two,
// so recovery's stale-record skipping is testable.
func (s *Store) checkpointLocked() error {
	if s.w == nil {
		return nil
	}
	cur := s.cur.Load()
	path := filepath.Join(s.cfg.Dir, snapshotName)
	tmp := path + ".tmp"
	if err := writeSnapshot(tmp, cur.Seq, cur.Graph); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	if err := syncDir(s.cfg.Dir); err != nil {
		return err
	}
	if err := limits.Hit(s.cfg.Faults, "wal.checkpoint"); err != nil {
		s.noteCrash(err)
		return err
	}
	if err := s.w.reset(); err != nil {
		return err
	}
	s.batches = 0
	s.tl.Stamp(cur.Seq, StageCheckpoint)
	return nil
}

// Close stops the syncer and releases the WAL after a final flush. A
// crashed store closes nothing — the simulated dead process must not get a
// parting fsync.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.dropAllSubsLocked()
	s.wakeWaitersLocked() // WaitEpoch callers recheck, see closed, and return
	if s.stopSync != nil {
		close(s.stopSync)
		s.syncWG.Wait()
	}
	if s.crashed.Load() {
		if s.w != nil {
			_ = s.w.f.Close()
		}
		return ErrCrashed
	}
	if s.w != nil {
		return s.w.close()
	}
	return nil
}

// usable gates every entry point that needs a live store.
func (s *Store) usable() error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// usableWrite additionally rejects writes once a WAL I/O failure degraded
// the store to read-only (repl.go); reads are unaffected.
func (s *Store) usableWrite() error {
	if err := s.usable(); err != nil {
		return err
	}
	if s.readonly.Load() {
		return &StorageError{Op: "write"}
	}
	return nil
}

// noteCrash latches the crashed state when err carries an injected crash.
func (s *Store) noteCrash(err error) {
	if errors.Is(err, limits.ErrCrash) {
		s.crashed.Store(true)
	}
}

// applyBatch is the one place a mutation (op, triples) meets a graph. It
// returns the resulting graph and how many triples entered or left it. A
// batch that changes nothing returns g itself, before any copy is made.
// Otherwise the batch lands on g in place when the caller owns it (recovery,
// before the graph is published) and on a copy when it does not, so every
// reader that pinned g's epoch keeps an untouched graph.
func applyBatch(g *rdf.Graph, op byte, triples []rdf.Triple, owned bool) (*rdf.Graph, int) {
	changes := func(t rdf.Triple) bool { return g.Has(t) == (op == OpDelete) }
	if !slices.ContainsFunc(triples, changes) {
		return g, 0
	}
	if !owned {
		g = g.Clone()
	}
	if op == OpDelete {
		return g, g.Remove(triples...)
	}
	return g, g.Add(triples...)
}

// writeSnapshot writes "# epoch N" plus the graph as N-Triples and fsyncs.
func writeSnapshot(path string, epoch uint64, g *rdf.Graph) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# epoch %d\n", epoch)
	rdf.WriteNTriples(w, g.Canonical()) // a bufio.Writer reports its first error at Flush
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	return nil
}

// readSnapshot loads a checkpoint; a missing file returns (0, nil, nil).
func readSnapshot(path string) (uint64, *rdf.Graph, error) {
	src, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	head, rest, _ := strings.Cut(string(src), "\n")
	epochStr, ok := strings.CutPrefix(strings.TrimSpace(head), "# epoch ")
	if !ok {
		return 0, nil, fmt.Errorf("store: snapshot %s: missing epoch header", path)
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(epochStr), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("store: snapshot %s: bad epoch header: %w", path, err)
	}
	g, err := rdf.ParseNTriplesString(rest)
	if err != nil {
		return 0, nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	return epoch, g, nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	err = d.Sync()
	closeErr := d.Close()
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return closeErr
}
