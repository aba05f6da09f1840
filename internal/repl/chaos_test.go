// The replication chaos differential suite: random mutation schedules are
// driven into a durable primary streaming to a durable replica while
// injected network faults (partitions, torn streams, duplicated records,
// slow links — armed through the TRIQ_FAULTS syntax) disturb the link; the
// primary is killed mid-schedule (injected crash, as SIGKILL) and reopened
// at the same address; finally the primary dies for good and the replica
// promotes. After every phase the suite checks the paper's certain-answer
// contract: no acknowledged write is lost, the replica at epoch E is
// bit-identical to the primary at epoch E, and the recursive-query answers
// over the replicated state equal a fresh chase over exactly the surviving
// triples.
package repl_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/limits"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/store"
)

// chaosQuery is the recursive reachability query the oracle evaluates.
const chaosQuery = `
	triple(?X, partOf, ?Y) -> reach(?X, ?Y).
	triple(?X, partOf, ?Z), reach(?Z, ?Y) -> reach(?X, ?Y).
	reach(?X, ?Y) -> query(?X, ?Y).
`

// answers runs the recursive query over g and returns sorted rows.
func answers(t *testing.T, g *rdf.Graph) []string {
	t.Helper()
	q, err := repro.ParseQuery(chaosQuery, "query")
	if err != nil {
		t.Fatalf("parse query: %v", err)
	}
	res, err := repro.AskCtx(context.Background(), g, q, repro.TriQLite10, repro.Options{})
	if err != nil {
		t.Fatalf("ask: %v", err)
	}
	rows := res.Rows()
	sortStrings(rows)
	return rows
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chaosMutation is one schedule step.
type chaosMutation struct {
	insert bool
	batch  []rdf.Triple
}

// chaosSchedule builds n mutations over a small term universe, tracking a
// private model copy so deletes target triples that actually exist.
func chaosSchedule(rng *rand.Rand, base *rdf.Graph, n int) []chaosMutation {
	model := base.Clone()
	term := func() string { return fmt.Sprintf("s%d", rng.Intn(8)) }
	var out []chaosMutation
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.7 || model.Len() == 0 {
			k := 1 + rng.Intn(3)
			batch := make([]rdf.Triple, 0, k)
			for j := 0; j < k; j++ {
				batch = append(batch, rdf.T(term(), "partOf", term()))
			}
			model.Add(batch...)
			out = append(out, chaosMutation{insert: true, batch: batch})
		} else {
			all := model.SortedTriples()
			batch := []rdf.Triple{all[rng.Intn(len(all))]}
			model.Remove(batch...)
			out = append(out, chaosMutation{insert: false, batch: batch})
		}
	}
	return out
}

// frontDoor is a stable HTTP address whose backing handler can be swapped:
// the "primary" process behind it can die (aborted connections, refused
// requests) and come back after recovery, like a restarted node behind a
// fixed address.
type frontDoor struct {
	h   atomic.Value // http.Handler
	srv *httptest.Server
}

func newFrontDoor(t *testing.T) *frontDoor {
	t.Helper()
	fd := &frontDoor{}
	fd.down()
	fd.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fd.h.Load().(http.Handler).ServeHTTP(w, r)
	}))
	return fd
}

func (fd *frontDoor) set(h http.Handler) { fd.h.Store(h) }

// down makes the address behave like a dead process: every request (and
// every open stream) is severed at the TCP level.
func (fd *frontDoor) down() {
	fd.set(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	if fd.srv != nil {
		fd.srv.CloseClientConnections()
	}
}

// applyChaos drives ops into s, returning the acked model and, when an
// injected crash cut a mutation short, the in-flight batch (which recovery
// may surface whole — the allowed unacknowledged-whole outcome).
func applyChaos(t *testing.T, s *store.Store, base *rdf.Graph, ops []chaosMutation) (acked *rdf.Graph, inflight *chaosMutation, crashed bool) {
	t.Helper()
	acked = base.Clone()
	for i, op := range ops {
		var err error
		if op.insert {
			_, _, err = s.Insert(op.batch)
		} else {
			_, _, err = s.Delete(op.batch)
		}
		if errors.Is(err, limits.ErrCrash) {
			return acked, &ops[i], true
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if op.insert {
			acked.Add(op.batch...)
		} else {
			acked.Remove(op.batch...)
		}
	}
	return acked, nil, false
}

func TestChaosDifferential(t *testing.T) {
	plans := []struct {
		name string
		send string // primary-side repl.send plan (TRIQ_FAULTS syntax)
		recv string // replica-side repl.recv / repl.apply plan
	}{
		{"clean-link", "", ""},
		{"partition-dup", "repl.send@3%7=partition, repl.send%5=dup", "repl.recv%9=dup"},
		{"torn-slow", "repl.send@2%9=torn", "repl.apply%6=slow, repl.recv@5%11=partition"},
	}
	for _, plan := range plans {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", plan.name, seed), func(t *testing.T) {
				t.Parallel()
				runChaos(t, plan.send, plan.recv, seed)
			})
		}
	}
}

func runChaos(t *testing.T, sendSpec, recvSpec string, seed int64) {
	sendPlan, err := limits.ParsePlan(sendSpec)
	if err != nil {
		t.Fatal(err)
	}
	recvPlan, err := limits.ParsePlan(recvSpec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	base := rdf.NewGraph()

	// The primary: durable, SyncAlways (acked ⇒ on disk), with a crash armed
	// partway into the schedule — the SIGKILL.
	primaryDir := t.TempDir()
	killAfter := 5 + rng.Intn(4)
	crashPlan := limits.NewPlan(limits.Fault{Point: "wal.append", After: killAfter, Action: limits.ActCrash})
	primary, _, err := store.Open(store.Config{Dir: primaryDir, Faults: crashPlan})
	if err != nil {
		t.Fatal(err)
	}
	fd := newFrontDoor(t)
	t.Cleanup(fd.srv.Close)
	stream := func(st *store.Store) http.Handler {
		return repl.StreamHandler(st, nil, repl.StreamOptions{Heartbeat: testHeartbeat, Faults: sendPlan})
	}
	fd.set(stream(primary))

	// The replica: durable too — promotion must serve from its recovered WAL.
	replica := newStore(t, store.Config{Dir: t.TempDir()})
	rep := startReplica(t, repl.Config{Primary: fd.srv.URL, Store: replica, Faults: recvPlan})

	// Phase 1: mutate until the injected SIGKILL fires.
	acked, inflight, crashed := applyChaos(t, primary, base, chaosSchedule(rng, base, 20))
	if !crashed {
		t.Fatalf("crash after %d appends never fired", killAfter)
	}
	fd.down() // the dead process takes its connections with it

	// Recovery: reopen the directory, like a restarted process, and check
	// the acked-prefix-or-prefix-plus-whole-batch contract.
	primary.Close()
	primary2, rec, err := store.Open(store.Config{Dir: primaryDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary2.Close() })
	recovered := primary2.Current().Graph
	withBatch := acked.Clone()
	if inflight.insert {
		withBatch.Add(inflight.batch...)
	} else {
		withBatch.Remove(inflight.batch...)
	}
	if !recovered.Equal(acked) && !recovered.Equal(withBatch) {
		t.Fatalf("recovered graph (%d triples, epoch %d) is neither the acked prefix (%d) nor prefix+batch (%d)",
			recovered.Len(), rec.Epoch, acked.Len(), withBatch.Len())
	}
	// Phase 2: the primary is back at the same address; more mutations from
	// the surviving state.
	fd.set(stream(primary2))
	acked2, _, crashed2 := applyChaos(t, primary2, recovered, chaosSchedule(rng, recovered, 10))
	if crashed2 {
		t.Fatal("no crash armed in phase 2")
	}

	// The replica must converge through the restart: replica ≡ primary at
	// the equal (final) epoch, answers ≡ fresh chase over the acked triples.
	waitConverged(t, primary2, replica)
	if !replica.Current().Graph.Equal(acked2) {
		t.Fatalf("replica graph (%d triples) != acked state (%d triples)",
			replica.Current().Graph.Len(), acked2.Len())
	}
	if got, want := answers(t, replica.Current().Graph), answers(t, acked2); !equalRows(got, want) {
		t.Fatalf("replica answers %v != fresh chase %v", got, want)
	}

	// Phase 3: the primary dies for good; the caught-up replica promotes and
	// must hold every acknowledged write, then keep taking new ones.
	fd.down()
	rep.Promote()
	promotedEpoch := replica.Current()
	if promotedEpoch.Seq != primary2.Current().Seq || !promotedEpoch.Graph.Equal(acked2) {
		t.Fatalf("promoted node at epoch %d lost acked writes", promotedEpoch.Seq)
	}
	if _, _, err := replica.Insert([]rdf.Triple{rdf.T("post", "partOf", "failover")}); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	final := replica.Current().Graph
	if got, want := answers(t, final), answers(t, final.Clone()); !equalRows(got, want) {
		t.Fatalf("post-failover answers are not reproducible: %v vs %v", got, want)
	}
}

// The replica's own durability: kill the replica (injected crash on its
// store) mid-replication, reopen its directory, reconnect, and converge.
// An acked-at-the-primary write must never be double-applied or lost by
// the replica's crash-recovery cycle.
func TestChaosReplicaCrashRecovers(t *testing.T) {
	primary := newStore(t, store.Config{Dir: t.TempDir()})
	srv := startServer(t, repl.StreamHandler(primary, nil, repl.StreamOptions{Heartbeat: testHeartbeat}))

	replicaDir := t.TempDir()
	crashPlan := limits.NewPlan(limits.Fault{Point: "wal.append", After: 5, Action: limits.ActCrash, Mode: limits.CrashTorn})
	replica1, _, err := store.Open(store.Config{Dir: replicaDir, Faults: crashPlan})
	if err != nil {
		t.Fatal(err)
	}
	rep1 := repl.New(repl.Config{Primary: srv.URL, Store: replica1, Backoff: 5 * time.Millisecond})
	rep1.Start(context.Background())

	base := rdf.NewGraph()
	rng := rand.New(rand.NewSource(7))
	acked, _, crashed := applyChaos(t, primary, base, chaosSchedule(rng, base, 12))
	if crashed {
		t.Fatal("primary must not crash in this scenario")
	}

	// Wait for the replica's crash latch to trip, then "restart" it.
	deadline := time.After(5 * time.Second)
	for !replica1.Crashed() {
		select {
		case <-deadline:
			t.Fatal("replica crash point never fired")
		case <-time.After(time.Millisecond):
		}
	}
	rep1.Stop()
	replica1.Close()

	replica2, _, err := store.Open(store.Config{Dir: replicaDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica2.Close() })
	rep2 := repl.New(repl.Config{Primary: srv.URL, Store: replica2, Backoff: 5 * time.Millisecond})
	rep2.Start(context.Background())
	t.Cleanup(rep2.Stop)

	waitConverged(t, primary, replica2)
	if !replica2.Current().Graph.Equal(acked) {
		t.Fatalf("recovered replica (%d triples) != acked state (%d triples)",
			replica2.Current().Graph.Len(), acked.Len())
	}
	if got, want := answers(t, replica2.Current().Graph), answers(t, acked); !equalRows(got, want) {
		t.Fatalf("recovered replica answers %v != fresh chase %v", got, want)
	}
}
