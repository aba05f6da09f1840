package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/limits"
	"repro/internal/rdf"
)

func tr(s, p, o string) rdf.Triple { return rdf.T(s, p, o) }

func openT(t *testing.T, cfg Config) (*Store, *Recovery) {
	t.Helper()
	st, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st, rec
}

func TestEncodeScanRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpInsert, Epoch: 1, Text: []byte("a p b .\n")},
		{Op: OpDelete, Epoch: 2, Text: []byte("a p b .\n")},
		{Op: OpInsert, Epoch: 3, Text: nil},
	}
	var buf []byte
	for _, r := range recs {
		buf = append(buf, EncodeRecord(r)...)
	}
	got, valid, damaged := scanRecords(buf)
	if damaged || valid != len(buf) {
		t.Fatalf("scan: valid=%d damaged=%v, want %d clean", valid, damaged, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("scan: %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Op != recs[i].Op || r.Epoch != recs[i].Epoch || !bytes.Equal(r.Text, recs[i].Text) {
			t.Fatalf("record %d: got %+v want %+v", i, r, recs[i])
		}
	}
}

func TestScanStopsAtDamage(t *testing.T) {
	whole := EncodeRecord(Record{Op: OpInsert, Epoch: 1, Text: []byte("a p b .\n")})
	cases := map[string][]byte{
		"torn header":  append(append([]byte{}, whole...), 0x01, 0x02),
		"torn payload": append(append([]byte{}, whole...), whole[:len(whole)-3]...),
		"bit flip": func() []byte {
			buf := append(append([]byte{}, whole...), whole...)
			buf[len(buf)-1] ^= 0x01
			// second record's epoch must continue the sequence
			binary.LittleEndian.PutUint64(buf[len(whole)+9:], 2)
			return buf
		}(),
		"bad opcode": func() []byte {
			second := EncodeRecord(Record{Op: 9, Epoch: 2, Text: []byte("x")})
			return append(append([]byte{}, whole...), second...)
		}(),
		"length bomb": func() []byte {
			bomb := make([]byte, recHeaderLen)
			binary.LittleEndian.PutUint32(bomb, uint32(maxRecordLen)+1)
			return append(append([]byte{}, whole...), bomb...)
		}(),
		"epoch gap": func() []byte {
			second := EncodeRecord(Record{Op: OpInsert, Epoch: 5, Text: []byte("x p y .\n")})
			return append(append([]byte{}, whole...), second...)
		}(),
	}
	for name, buf := range cases {
		recs, valid, damaged := scanRecords(buf)
		if !damaged {
			t.Errorf("%s: scan reported clean", name)
		}
		if valid != len(whole) {
			t.Errorf("%s: valid=%d, want %d", name, valid, len(whole))
		}
		if len(recs) != 1 {
			t.Errorf("%s: %d records survived, want 1", name, len(recs))
		}
	}
}

func TestBootstrapInsertDeleteEpochs(t *testing.T) {
	st, rec := openT(t, Config{Dir: t.TempDir()})
	if rec.Epoch != 0 || rec.Records != 0 {
		t.Fatalf("fresh dir recovery = %+v, want empty", rec)
	}
	base := rdf.NewGraph(tr("a", "p", "b"))
	e, err := st.Bootstrap(base)
	if err != nil || e.Seq != 1 {
		t.Fatalf("Bootstrap: epoch %d err %v", e.Seq, err)
	}
	if _, err := st.Bootstrap(base); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("second Bootstrap err = %v, want ErrNotEmpty", err)
	}

	pinned := st.Current() // a reader's snapshot at epoch 1

	e2, n, err := st.Insert([]rdf.Triple{tr("b", "p", "c"), tr("a", "p", "b")})
	if err != nil || e2.Seq != 2 || n != 1 {
		t.Fatalf("Insert: epoch %d added %d err %v", e2.Seq, n, err)
	}
	e3, n, err := st.Delete([]rdf.Triple{tr("a", "p", "b"), tr("nope", "p", "x")})
	if err != nil || e3.Seq != 3 || n != 1 {
		t.Fatalf("Delete: epoch %d removed %d err %v", e3.Seq, n, err)
	}

	// No-op batches commit nothing.
	same, n, err := st.Insert([]rdf.Triple{tr("b", "p", "c")})
	if err != nil || n != 0 || same.Seq != 3 {
		t.Fatalf("duplicate insert: epoch %d added %d err %v", same.Seq, n, err)
	}

	// The pinned epoch-1 snapshot is untouched by the later commits.
	if pinned.Seq != 1 || pinned.Graph.Len() != 1 || !pinned.Graph.Has(tr("a", "p", "b")) {
		t.Fatalf("pinned epoch mutated: %+v", pinned)
	}
	cur := st.Current()
	if cur.Graph.Has(tr("a", "p", "b")) || !cur.Graph.Has(tr("b", "p", "c")) {
		t.Fatalf("current graph wrong: %s", cur.Graph)
	}
}

// TestDeleteAbsentTripleNoOp pins the regression that deleting a triple that
// was never inserted, like inserting one already there, is a pure no-op:
// acknowledged at the current epoch with zero changes, no WAL record appended,
// and no commit event delivered to a wired OnCommit observer (the
// materializer's epoch tracking relies on no-op batches committing nothing).
func TestDeleteAbsentTripleNoOp(t *testing.T) {
	dir := t.TempDir()
	var events []CommitEvent
	st, _ := openT(t, Config{Dir: dir, OnCommit: func(ev CommitEvent) { events = append(events, ev) }})
	if _, err := st.Bootstrap(rdf.NewGraph(tr("a", "p", "b"))); err != nil {
		t.Fatal(err)
	}
	before := st.Current()
	evBefore := len(events)

	e, n, err := st.Delete([]rdf.Triple{tr("never", "p", "x")})
	if err != nil {
		t.Fatalf("delete absent: %v", err)
	}
	if n != 0 || e.Seq != before.Seq {
		t.Fatalf("delete absent: removed %d at epoch %d, want no-op ack at epoch %d", n, e.Seq, before.Seq)
	}
	// So is inserting only what the graph already holds; the ack carries the
	// current epoch's own graph.
	e, n, err = st.Insert([]rdf.Triple{tr("a", "p", "b"), tr("a", "p", "b")})
	if err != nil || n != 0 || e.Seq != before.Seq || e.Graph != before.Graph {
		t.Fatalf("insert of duplicates only: added %d at epoch %d err %v, want no-op ack at epoch %d", n, e.Seq, err, before.Seq)
	}
	// A mixed batch where only part is absent still commits, removing just
	// the present triple.
	e2, n, err := st.Delete([]rdf.Triple{tr("never", "p", "x"), tr("a", "p", "b")})
	if err != nil || n != 1 || e2.Seq != before.Seq+1 {
		t.Fatalf("mixed delete: removed %d at epoch %d err %v, want 1 at %d", n, e2.Seq, err, before.Seq+1)
	}
	if got := len(events) - evBefore; got != 1 {
		t.Fatalf("%d commit events fired, want 1 (the no-op must not be observed)", got)
	}

	// The no-op left no WAL record behind: reopening replays exactly the one
	// real delete on top of the bootstrap snapshot.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec := openT(t, Config{Dir: dir})
	if rec.Records != 1 || rec.Epoch != before.Seq+1 {
		t.Fatalf("recovery = %+v, want 1 record to epoch %d", rec, before.Seq+1)
	}
	if st2.Current().Graph.Len() != 0 {
		t.Fatalf("recovered graph not empty: %s", st2.Current().Graph)
	}
}

func TestReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, Config{Dir: dir, CheckpointEvery: -1, CheckpointBytes: -1})
	if _, err := st.Bootstrap(rdf.NewGraph(tr("a", "p", "b"))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Insert([]rdf.Triple{tr("b", "p", "c")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Delete([]rdf.Triple{tr("a", "p", "b")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec := openT(t, Config{Dir: dir})
	if rec.SnapshotEpoch != 1 || rec.Records != 2 || rec.Epoch != 3 || rec.DamagedTail {
		t.Fatalf("recovery = %+v, want snapshot 1 + 2 records to epoch 3", rec)
	}
	g := st2.Current().Graph
	if g.Len() != 1 || !g.Has(tr("b", "p", "c")) {
		t.Fatalf("recovered graph wrong: %s", g)
	}
}

func TestCheckpointResetsWALAndRecovers(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, Config{Dir: dir, CheckpointEvery: -1, CheckpointBytes: -1})
	if _, err := st.Bootstrap(rdf.NewGraph(tr("a", "p", "b"))); err != nil {
		t.Fatal(err)
	}
	for _, x := range []string{"c", "d", "e"} {
		if _, _, err := st.Insert([]rdf.Triple{tr(x, "p", "b")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after checkpoint: %v size %d, want 0", err, fi.Size())
	}
	if _, _, err := st.Insert([]rdf.Triple{tr("f", "p", "b")}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rec := openT(t, Config{Dir: dir})
	if rec.SnapshotEpoch != 4 || rec.Records != 1 || rec.Epoch != 5 {
		t.Fatalf("recovery = %+v, want snapshot 4, 1 record, epoch 5", rec)
	}
	if st2.Current().Graph.Len() != 5 {
		t.Fatalf("recovered %d triples, want 5", st2.Current().Graph.Len())
	}
}

func TestAutoCheckpointByCount(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, Config{Dir: dir, CheckpointEvery: 2, CheckpointBytes: -1})
	if _, err := st.Bootstrap(rdf.NewGraph()); err != nil {
		t.Fatal(err)
	}
	for i, x := range []string{"c", "d"} {
		if _, _, err := st.Insert([]rdf.Triple{tr(x, "p", "b")}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Two batches committed: the auto-checkpoint must have reset the WAL.
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after auto checkpoint: %v size %d, want 0", err, fi.Size())
	}
	snapEpoch, g, err := readSnapshot(filepath.Join(dir, snapshotName))
	if err != nil || snapEpoch != 3 || g.Len() != 2 {
		t.Fatalf("snapshot epoch %d len %d err %v, want epoch 3 len 2", snapEpoch, g.Len(), err)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, Config{Dir: dir, CheckpointEvery: -1, CheckpointBytes: -1})
	st.Bootstrap(rdf.NewGraph(tr("a", "p", "b")))
	st.Insert([]rdf.Triple{tr("b", "p", "c")})
	st.Close()

	// Append garbage simulating a torn write at the tail.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cleanSize, _ := f.Seek(0, 2)
	f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe})
	f.Close()

	st2, rec := openT(t, Config{Dir: dir})
	if !rec.DamagedTail || rec.TruncatedAt != cleanSize {
		t.Fatalf("recovery = %+v, want damaged tail truncated at %d", rec, cleanSize)
	}
	if fi, _ := os.Stat(walPath); fi.Size() != cleanSize {
		t.Fatalf("wal size after truncation = %d, want %d", fi.Size(), cleanSize)
	}
	if !st2.Current().Graph.Has(tr("b", "p", "c")) {
		t.Fatalf("acknowledged record lost with the torn tail")
	}

	// The truncated store keeps working and a further reopen is clean.
	if _, _, err := st2.Insert([]rdf.Triple{tr("c", "p", "d")}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, rec3 := openT(t, Config{Dir: dir})
	if rec3.DamagedTail {
		t.Fatalf("second recovery still damaged: %+v", rec3)
	}
	if !st3.Current().Graph.Has(tr("c", "p", "d")) {
		t.Fatalf("post-truncation insert lost")
	}
}

func TestCrashPointsLatchStore(t *testing.T) {
	for _, tc := range []struct {
		point string
		mode  limits.CrashMode
	}{
		{"wal.append", limits.CrashClean},
		{"wal.append", limits.CrashTorn},
		{"wal.append", limits.CrashFlip},
		{"wal.sync", limits.CrashClean},
		{"store.swap", limits.CrashClean},
	} {
		t.Run(tc.point+"/"+tc.mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			seed, _, _ := Open(Config{Dir: dir})
			seed.Bootstrap(rdf.NewGraph(tr("a", "p", "b")))
			seed.Close()

			plan := limits.NewPlan(limits.Fault{Point: tc.point, Action: limits.ActCrash, Mode: tc.mode})
			st, _ := openT(t, Config{Dir: dir, Faults: plan})
			_, _, err := st.Insert([]rdf.Triple{tr("b", "p", "c")})
			if !errors.Is(err, limits.ErrCrash) {
				t.Fatalf("Insert err = %v, want ErrCrash", err)
			}
			if !st.Crashed() {
				t.Fatal("store not latched crashed")
			}
			if _, _, err := st.Insert([]rdf.Triple{tr("c", "p", "d")}); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-crash Insert err = %v, want ErrCrashed", err)
			}
			if err := st.Close(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-crash Close err = %v, want ErrCrashed", err)
			}

			// Restart: recovery must never error, never panic, and must hold
			// the acknowledged base; the crashed batch is absent or whole.
			st2, rec := openT(t, Config{Dir: dir})
			g := st2.Current().Graph
			if !g.Has(tr("a", "p", "b")) {
				t.Fatalf("%s: acknowledged triple lost", tc.point)
			}
			switch tc.point {
			case "wal.append":
				// Died before/during the record write: the batch must be gone
				// and any torn/flipped bytes truncated away.
				if g.Has(tr("b", "p", "c")) {
					t.Fatalf("unacknowledged torn batch surfaced")
				}
				if tc.mode != limits.CrashClean && !rec.DamagedTail {
					t.Fatalf("recovery = %+v, want damaged tail", rec)
				}
			case "wal.sync", "store.swap":
				// Record fully written before the crash: whole-or-absent, and
				// with the bytes in the OS cache it is recovered whole here.
				if !g.Has(tr("b", "p", "c")) {
					t.Fatalf("whole logged batch lost")
				}
			}
		})
	}
}

func TestCrashDuringCheckpointSkipsStaleRecords(t *testing.T) {
	dir := t.TempDir()
	seed, _, _ := Open(Config{Dir: dir, CheckpointEvery: -1, CheckpointBytes: -1})
	seed.Bootstrap(rdf.NewGraph(tr("a", "p", "b")))
	seed.Insert([]rdf.Triple{tr("b", "p", "c")})
	seed.Insert([]rdf.Triple{tr("c", "p", "d")})
	seed.Close()

	// Crash between the snapshot rename and the WAL reset: the snapshot is
	// new but the WAL still holds the (now stale) records.
	plan := limits.NewPlan(limits.Fault{Point: "wal.checkpoint", Action: limits.ActCrash})
	st, _ := openT(t, Config{Dir: dir, Faults: plan, CheckpointEvery: -1, CheckpointBytes: -1})
	if err := st.Checkpoint(); !errors.Is(err, limits.ErrCrash) {
		t.Fatalf("Checkpoint err = %v, want ErrCrash", err)
	}
	if fi, _ := os.Stat(filepath.Join(dir, walName)); fi.Size() == 0 {
		t.Fatal("crash point fired after WAL reset; want before")
	}

	st2, rec := openT(t, Config{Dir: dir})
	if rec.SnapshotEpoch != 3 || rec.Skipped != 2 || rec.Records != 0 {
		t.Fatalf("recovery = %+v, want snapshot 3 with 2 stale records skipped", rec)
	}
	g := st2.Current().Graph
	if g.Len() != 3 || !g.Has(tr("c", "p", "d")) {
		t.Fatalf("recovered graph wrong: %s", g)
	}
}

func TestInMemoryStore(t *testing.T) {
	st, rec := openT(t, Config{})
	if st.Durable() || st.AckDurable() || rec.Epoch != 0 {
		t.Fatalf("in-memory store claims durability")
	}
	st.Bootstrap(rdf.NewGraph(tr("a", "p", "b")))
	e, n, err := st.Insert([]rdf.Triple{tr("b", "p", "c")})
	if err != nil || e.Seq != 2 || n != 1 {
		t.Fatalf("in-memory insert: %v %d %v", e, n, err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openT(t, Config{Dir: dir, Sync: pol, SyncInterval: 5 * time.Millisecond})
			st.Bootstrap(rdf.NewGraph())
			for i, x := range []string{"a", "b", "c"} {
				if _, _, err := st.Insert([]rdf.Triple{tr(x, "p", "o")}); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if pol == SyncInterval {
				time.Sleep(20 * time.Millisecond) // let the syncer tick
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, rec := openT(t, Config{Dir: dir})
			if st2.Current().Graph.Len() != 3 {
				t.Fatalf("policy %s: recovered %d triples, want 3 (%+v)", pol, st2.Current().Graph.Len(), rec)
			}
			if got := st2.AckDurable(); got != (pol == SyncAlways) && st2.cfg.Sync == pol {
				t.Fatalf("AckDurable = %v for policy %s", got, pol)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for name, want := range map[string]SyncPolicy{"": SyncAlways, "always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncPolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted junk")
	}
}

func TestConcurrentReadersDuringCommits(t *testing.T) {
	st, _ := openT(t, Config{Dir: t.TempDir(), CheckpointEvery: 8})
	st.Bootstrap(rdf.NewGraph(tr("a", "p", "b")))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := st.Current()
				// Epoch graphs are immutable: length is stable across reads.
				n := e.Graph.Len()
				for i := 0; i < 3; i++ {
					if e.Graph.Len() != n {
						t.Error("pinned epoch changed size")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 64; i++ {
		if _, _, err := st.Insert([]rdf.Triple{tr(fmt6(i), "p", "b")}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := st.Current().Graph.Len(); got != 65 {
		t.Fatalf("final graph %d triples, want 65", got)
	}
}

func fmt6(i int) string { return "s" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }
