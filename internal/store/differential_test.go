// The recovery differential suite: random mutation schedules are driven
// into a durable store with a crash point armed at every WAL/commit stage
// (and in every corruption mode), the "process" dies, the directory is
// reopened, and the recovered state is checked against the acknowledged
// writes under the paper's certain-answer oracle — the answers of a
// recursive TriQ-Lite query over the recovered store must be bit-identical
// to a fresh chase over exactly the surviving triples, and the surviving
// triple set itself must be the acknowledged prefix of the schedule
// (optionally plus the whole in-flight batch: acknowledged-durable,
// unacknowledged-absent-or-whole).
package store_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/limits"
	"repro/internal/rdf"
	"repro/internal/store"
)

// diffQuery is the recursive reachability query the oracle evaluates.
const diffQuery = `
	triple(?X, partOf, ?Y) -> reach(?X, ?Y).
	triple(?X, partOf, ?Z), reach(?Z, ?Y) -> reach(?X, ?Y).
	reach(?X, ?Y) -> query(?X, ?Y).
`

// mutation is one schedule step.
type mutation struct {
	insert bool
	batch  []rdf.Triple
}

// randomSchedule builds n mutations over a small term universe, tracking a
// model graph so deletes target triples that actually exist.
func randomSchedule(rng *rand.Rand, base *rdf.Graph, n int) []mutation {
	model := base.Clone()
	term := func() string { return fmt.Sprintf("s%d", rng.Intn(8)) }
	var out []mutation
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.7 || model.Len() == 0 {
			k := 1 + rng.Intn(3)
			batch := make([]rdf.Triple, 0, k)
			for j := 0; j < k; j++ {
				batch = append(batch, rdf.T(term(), "partOf", term()))
			}
			model.Add(batch...)
			out = append(out, mutation{insert: true, batch: batch})
		} else {
			all := model.SortedTriples()
			batch := []rdf.Triple{all[rng.Intn(len(all))]}
			model.Remove(batch...)
			out = append(out, mutation{insert: false, batch: batch})
		}
	}
	return out
}

// applyMutations replays a schedule prefix onto a fresh copy of base.
func applyMutations(base *rdf.Graph, ops []mutation) *rdf.Graph {
	g := base.Clone()
	for _, op := range ops {
		if op.insert {
			g.Add(op.batch...)
		} else {
			g.Remove(op.batch...)
		}
	}
	return g
}

// answers runs the recursive query over g and returns sorted rows.
func answers(t *testing.T, g *rdf.Graph) []string {
	t.Helper()
	q, err := repro.ParseQuery(diffQuery, "query")
	if err != nil {
		t.Fatalf("parse query: %v", err)
	}
	res, err := repro.Ask(g, q, repro.TriQLite10, repro.Options{})
	if errors.Is(err, limits.ErrInjected) {
		t.Skipf("injected fault (TRIQ_FAULTS armed)")
	}
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

func TestRecoveryDifferential(t *testing.T) {
	crashCases := []struct {
		point string
		mode  limits.CrashMode
		ckpt  int // CheckpointEvery (negative disables)
	}{
		{"wal.append", limits.CrashClean, -1},
		{"wal.append", limits.CrashTorn, -1},
		{"wal.append", limits.CrashFlip, -1},
		{"wal.sync", limits.CrashClean, -1},
		{"store.swap", limits.CrashClean, -1},
		{"wal.checkpoint", limits.CrashClean, 3},
		// Crash points with periodic checkpoints interleaved, so recovery
		// composes snapshot + stale-skip + replay + truncation.
		{"wal.append", limits.CrashTorn, 4},
		{"store.swap", limits.CrashClean, 4},
	}
	base := rdf.NewGraph(rdf.T("s0", "partOf", "s1"), rdf.T("s1", "partOf", "s2"))

	for _, cc := range crashCases {
		for seed := int64(1); seed <= 3; seed++ {
			for _, after := range []int{0, 3, 7} {
				name := fmt.Sprintf("%s/%s/ckpt%d/seed%d/after%d", cc.point, cc.mode, cc.ckpt, seed, after)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					schedule := randomSchedule(rng, base, 12)
					dir := t.TempDir()

					plan := limits.NewPlan(limits.Fault{
						Point: cc.point, Action: limits.ActCrash, Mode: cc.mode, After: after,
					})
					st, _, err := store.Open(store.Config{
						Dir: dir, Sync: store.SyncAlways,
						CheckpointEvery: cc.ckpt, CheckpointBytes: -1,
						Faults: plan,
					})
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					acked := 0
					var crashErr error
					if _, err := st.Bootstrap(base); err != nil {
						// Bootstrap itself checkpoints on durable stores, so the
						// wal.checkpoint crash can fire here; the snapshot is
						// already renamed, so recovery must still yield the base.
						if !errors.Is(err, limits.ErrCrash) {
							t.Fatalf("bootstrap: %v", err)
						}
						crashErr = err
					}
					for _, op := range schedule {
						if crashErr != nil {
							break
						}
						if op.insert {
							_, _, crashErr = st.Insert(op.batch)
						} else {
							_, _, crashErr = st.Delete(op.batch)
						}
						if crashErr != nil {
							break
						}
						acked++
					}
					if crashErr != nil && !errors.Is(crashErr, limits.ErrCrash) {
						t.Fatalf("schedule failed with non-crash error: %v", crashErr)
					}
					_ = st.Close() // a crashed store refuses the close; either way the "process" is gone

					// Restart: recovery must succeed whatever the crash left.
					st2, rec, err := store.Open(store.Config{Dir: dir})
					if err != nil {
						t.Fatalf("recovery open: %v (report %+v)", err, rec)
					}
					defer st2.Close()
					recovered := st2.Current().Graph

					// Contract: the survivors are exactly the acknowledged
					// prefix, or that prefix plus the whole in-flight batch.
					ackedG := applyMutations(base, schedule[:acked])
					candidates := []*rdf.Graph{ackedG}
					if crashErr != nil && acked < len(schedule) {
						candidates = append(candidates, applyMutations(base, schedule[:acked+1]))
					}
					var match *rdf.Graph
					for _, c := range candidates {
						if recovered.Equal(c) {
							match = c
							break
						}
					}
					if match == nil {
						t.Fatalf("recovered state matches no candidate:\nrecovered:\n%sacked:\n%s",
							recovered, ackedG)
					}

					// Certain-answer oracle: answers over the recovered store
					// ≡ a fresh chase over exactly the surviving triples ≡
					// the matched candidate's answers.
					got := answers(t, recovered)
					fresh := answers(t, rdf.NewGraph(recovered.Triples()...))
					want := answers(t, match)
					if !equalRows(got, fresh) {
						t.Fatalf("recovered answers != fresh chase over surviving triples:\n%v\nvs\n%v", got, fresh)
					}
					if !equalRows(got, want) {
						t.Fatalf("recovered answers != acknowledged-set answers:\n%v\nvs\n%v", got, want)
					}

					// The recovered store must accept writes again.
					if _, _, err := st2.Insert([]rdf.Triple{rdf.T("post", "partOf", "crash")}); err != nil {
						t.Fatalf("post-recovery insert: %v", err)
					}
				})
			}
		}
	}
}

// TestRecoveryDifferentialEnvPlan drives one crash through the TRIQ_FAULTS
// string syntax (point@N=torn) installed as the process-global plan, proving
// the CI-facing spelling arms the same machinery.
func TestRecoveryDifferentialEnvPlan(t *testing.T) {
	plan, err := limits.ParsePlan("wal.append@2=torn")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	restore := limits.SetGlobal(plan)
	defer restore()

	dir := t.TempDir()
	st, _, err := store.Open(store.Config{Dir: dir, CheckpointEvery: -1, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var crashErr error
	acked := 0
	for i := 0; i < 5; i++ {
		if _, _, crashErr = st.Insert([]rdf.Triple{rdf.T(fmt.Sprintf("s%d", i), "partOf", "hub")}); crashErr != nil {
			break
		}
		acked++
	}
	if !errors.Is(crashErr, limits.ErrCrash) || acked != 2 {
		t.Fatalf("acked=%d err=%v, want 2 acked then ErrCrash", acked, crashErr)
	}
	_ = st.Close()
	restore() // the "restarted process" has no faults armed

	st2, rec, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	if !rec.DamagedTail {
		t.Fatalf("recovery = %+v, want damaged tail from torn append", rec)
	}
	g := st2.Current().Graph
	if g.Len() != acked {
		t.Fatalf("recovered %d triples, want the %d acknowledged", g.Len(), acked)
	}
}
