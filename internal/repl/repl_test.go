// Unit tests for the replication layer: stream + apply end-to-end over
// real HTTP, snapshot fallback, promotion, and each injected network fault
// in isolation. The randomized differential suite is in chaos_test.go.
package repl_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/store"
)

const testHeartbeat = 10 * time.Millisecond

func newStore(t *testing.T, cfg store.Config) *store.Store {
	t.Helper()
	s, _, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func insert(t *testing.T, s *store.Store, triples ...rdf.Triple) store.Epoch {
	t.Helper()
	e, _, err := s.Insert(triples)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	return e
}

// startServer serves h and closes it after any replicas registered later
// have stopped (t.Cleanup runs LIFO; httptest's Close waits for the open
// stream request, so the replica must disconnect first).
func startServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// startReplica wires a replica to a primary URL and cleans it up.
func startReplica(t *testing.T, cfg repl.Config) *repl.Replica {
	t.Helper()
	if cfg.Backoff == 0 {
		cfg.Backoff = 5 * time.Millisecond
	}
	r := repl.New(cfg)
	r.Start(context.Background())
	t.Cleanup(r.Stop)
	return r
}

// waitConverged blocks until the replica store reaches the primary's
// current epoch and the graphs match.
func waitConverged(t *testing.T, primary, replica *store.Store) {
	t.Helper()
	want := primary.Current()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := replica.WaitEpoch(ctx, want.Seq); err != nil {
		t.Fatalf("replica stuck at epoch %d waiting for %d: %v",
			replica.Current().Seq, want.Seq, err)
	}
	got := replica.Current()
	if got.Seq == want.Seq && !got.Graph.Equal(want.Graph) {
		t.Fatalf("epoch %d: replica graph (%d triples) != primary graph (%d triples)",
			got.Seq, got.Graph.Len(), want.Graph.Len())
	}
}

func TestStreamAndApply(t *testing.T) {
	primary := newStore(t, store.Config{})
	insert(t, primary, rdf.T("a", "p", "b"))
	srv := startServer(t, repl.StreamHandler(primary, nil, repl.StreamOptions{Heartbeat: testHeartbeat}))

	replica := newStore(t, store.Config{})
	o := obs.New()
	rep := startReplica(t, repl.Config{Primary: srv.URL, Store: replica, Obs: o})

	// Pre-existing and live writes both arrive.
	insert(t, primary, rdf.T("b", "p", "c"))
	if _, _, err := primary.Delete([]rdf.Triple{rdf.T("a", "p", "b")}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, primary, replica)

	st := rep.State()
	if st.State != repl.StateReplica || !st.Connected {
		t.Fatalf("state = %+v, want connected replica", st)
	}
	if st.Primary != srv.URL {
		t.Fatalf("state.Primary = %q", st.Primary)
	}

	// Heartbeats keep the lag accounting fresh while idle.
	deadline := time.After(2 * time.Second)
	for rep.State().PrimaryEpoch != primary.Current().Seq {
		select {
		case <-deadline:
			t.Fatalf("primary epoch never advertised: %+v", rep.State())
		case <-time.After(testHeartbeat):
		}
	}
	if lag := rep.State().LagEpochs; lag != 0 {
		t.Fatalf("lag = %d after convergence", lag)
	}
}

func TestSnapshotFallback(t *testing.T) {
	// Retention of 2 with 6 committed batches forces a full-state transfer
	// for a from-zero subscriber.
	primary := newStore(t, store.Config{ReplLog: 2})
	for i := 0; i < 6; i++ {
		insert(t, primary, rdf.T(fmt.Sprintf("s%d", i), "p", "o"))
	}
	srv := startServer(t, repl.StreamHandler(primary, nil, repl.StreamOptions{Heartbeat: testHeartbeat}))

	replica := newStore(t, store.Config{})
	o := obs.New()
	startReplica(t, repl.Config{Primary: srv.URL, Store: replica, Obs: o})
	waitConverged(t, primary, replica)

	// And the stream continues live after the snapshot handoff.
	insert(t, primary, rdf.T("s9", "p", "o"))
	waitConverged(t, primary, replica)
}

func TestManualPromote(t *testing.T) {
	primary := newStore(t, store.Config{})
	insert(t, primary, rdf.T("a", "p", "b"))
	srv := startServer(t, repl.StreamHandler(primary, nil, repl.StreamOptions{Heartbeat: testHeartbeat}))

	replica := newStore(t, store.Config{})
	rep := startReplica(t, repl.Config{Primary: srv.URL, Store: replica, Obs: obs.New()})
	waitConverged(t, primary, replica)

	rep.Promote()
	if !rep.IsPromoted() || rep.State().State != repl.StatePromoted {
		t.Fatalf("state after promote = %+v", rep.State())
	}
	// The promoted node owns the epoch counter now and accepts writes.
	e := insert(t, replica, rdf.T("post", "promote", "write"))
	if e.Seq != primary.Current().Seq+1 {
		t.Fatalf("promoted epoch = %d, want %d", e.Seq, primary.Current().Seq+1)
	}
	rep.Promote() // idempotent
}

func TestPromoteOnLoss(t *testing.T) {
	primary := newStore(t, store.Config{})
	insert(t, primary, rdf.T("a", "p", "b"))
	srv := startServer(t, repl.StreamHandler(primary, nil, repl.StreamOptions{Heartbeat: testHeartbeat}))

	replica := newStore(t, store.Config{})
	rep := startReplica(t, repl.Config{
		Primary: srv.URL, Store: replica, Obs: obs.New(),
		PromoteOnLoss: true, PromoteGrace: 50 * time.Millisecond,
	})
	waitConverged(t, primary, replica)

	// The primary dies (connections sever, nothing listens anymore).
	srv.CloseClientConnections()
	srv.Close()

	deadline := time.After(5 * time.Second)
	for !rep.IsPromoted() {
		select {
		case <-deadline:
			t.Fatalf("replica never promoted itself: %+v", rep.State())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The promoted node serves the replicated state and accepts writes.
	if !replica.Current().Graph.Has(rdf.T("a", "p", "b")) {
		t.Fatal("promoted node lost replicated state")
	}
	insert(t, replica, rdf.T("new", "p", "write"))
}

// Each injected network fault, in isolation, must not prevent convergence:
// partitions reconnect, torn streams resynchronize on framing, duplicates
// dup-skip. The plans are built with ParsePlan so the test exercises the
// exact TRIQ_FAULTS syntax.
func TestNetworkFaultsConverge(t *testing.T) {
	cases := []struct {
		name    string
		send    string // plan on the primary's repl.send
		receive string // plan on the replica's repl.recv / repl.apply
	}{
		{"partition-send", "repl.send@4%9=partition", ""},
		{"torn-send", "repl.send@3%11=torn", ""},
		{"dup-send", "repl.send%5=dup", ""},
		{"partition-recv", "", "repl.recv@4%9=partition"},
		{"dup-recv", "", "repl.recv%5=dup"},
		{"dup-apply", "", "repl.apply%4=dup"},
		{"slow-apply", "", "repl.apply%6=slow"},
		{"mixed", "repl.send@5%13=partition, repl.send%7=dup", "repl.recv%11=dup, repl.apply@3%17=partition"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sendPlan, err := limits.ParsePlan(tc.send)
			if err != nil {
				t.Fatal(err)
			}
			recvPlan, err := limits.ParsePlan(tc.receive)
			if err != nil {
				t.Fatal(err)
			}

			primary := newStore(t, store.Config{})
			srv := startServer(t, repl.StreamHandler(primary, nil,
				repl.StreamOptions{Heartbeat: testHeartbeat, Faults: sendPlan}))

			replica := newStore(t, store.Config{})
			o := obs.New()
			startReplica(t, repl.Config{Primary: srv.URL, Store: replica, Obs: o, Faults: recvPlan})

			for i := 0; i < 30; i++ {
				insert(t, primary, rdf.T(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i%5)))
			}
			waitConverged(t, primary, replica)
		})
	}
}

// A replica that subscribes ahead of the primary (split brain) is refused.
func TestFutureSubscriberRefused(t *testing.T) {
	primary := newStore(t, store.Config{})
	srv := startServer(t, repl.StreamHandler(primary, nil, repl.StreamOptions{Heartbeat: testHeartbeat}))

	ahead := newStore(t, store.Config{})
	for i := 0; i < 3; i++ {
		insert(t, ahead, rdf.T(fmt.Sprintf("s%d", i), "p", "o"))
	}
	rep := repl.New(repl.Config{Primary: srv.URL, Store: ahead, Obs: obs.New(), Backoff: 5 * time.Millisecond})
	rep.Start(context.Background())
	defer rep.Stop()

	// The replica must not regress: it keeps retrying (or an operator
	// promotes it), but never applies anything backwards.
	time.Sleep(100 * time.Millisecond)
	if got := ahead.Current().Seq; got != 3 {
		t.Fatalf("ahead store regressed to epoch %d", got)
	}
	if st := rep.State(); st.State == repl.StateReplica && st.Connected {
		t.Fatalf("refused subscriber must not report a live replica state: %+v", st)
	}
}
