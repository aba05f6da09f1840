package mat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/triq"
)

// The mat differential suite proves the end-to-end maintenance contract over
// the real write path: a volatile store whose commits feed OnCommit, a random
// warded program over the triple(·,·,·) encoding, and a random schedule of
// insert/delete batches. After every mutation the materialized answer at the
// store's epoch must be identical to a from-scratch chase of the same epoch's
// graph — same tuples, same ⊤/⊥ verdict — and the materializer's epoch must
// track the store's. Replay one schedule with
// TRIQ_DIFF_SEED=<n> go test -run TestMatDifferential ./internal/mat.

// matTemplates is the warded positive rule pool over the τ_db triple
// encoding: recursion through reach, existential invention through anon/tag
// (tag's null has a null in its frontier), and head-only output predicate
// out so the sampled program always forms a valid query.
var matTemplates = []string{
	"triple(?X, link, ?Y) -> reach(?X, ?Y).",
	"triple(?X, rel, ?Y) -> reach(?Y, ?X).",
	"reach(?X, ?Y), triple(?Y, link, ?Z) -> reach(?X, ?Z).",
	"triple(?X, type, hub) -> hub(?X).",
	"hub(?X) -> anon(?X, ?V).",
	"anon(?X, ?V) -> tag(?V, ?W).",
	"anon(?X, ?V), triple(?X, rel, ?Y) -> hub(?Y).",
	"reach(?X, ?Y), hub(?Y) -> out(?Y, ?X).",
	"reach(?X, ?Y) -> out(?X, ?Y).",
	"hub(?X) -> out(?X, ?X).",
}

// matOutputs are the head-only predicates a schedule may query.
const matOutput = "out"

// genMatProgram samples a warded program from the template pool, always
// keeping at least one rule deriving the output predicate.
func genMatProgram(rng *rand.Rand) (*datalog.Program, string, error) {
	for attempt := 0; attempt < 100; attempt++ {
		perm := rng.Perm(len(matTemplates))
		k := 3 + rng.Intn(6)
		var source string
		hasOut := false
		for _, i := range perm[:k] {
			source += matTemplates[i] + "\n"
			if strings.Contains(matTemplates[i], "-> "+matOutput) {
				hasOut = true
			}
		}
		if !hasOut {
			continue
		}
		p, err := datalog.Parse(source)
		if err != nil {
			continue
		}
		if datalog.CheckWarded(p) != nil {
			continue
		}
		if datalog.NewQuery(p, matOutput).Validate() != nil {
			continue
		}
		return p, source, nil
	}
	return nil, "", fmt.Errorf("no valid program after 100 attempts")
}

// randTriple draws an EDB triple over a small node pool; type edges point at
// hub often enough that the existential rules fire.
func randTriple(rng *rand.Rand) rdf.Triple {
	node := func() rdf.Term { return rdf.NewIRI("n" + strconv.Itoa(rng.Intn(7))) }
	switch rng.Intn(4) {
	case 0:
		return rdf.NewTriple(node(), rdf.NewIRI("rel"), node())
	case 1:
		o := rdf.NewIRI("hub")
		if rng.Intn(3) == 0 {
			o = node()
		}
		return rdf.NewTriple(node(), rdf.NewIRI("type"), o)
	default:
		return rdf.NewTriple(node(), rdf.NewIRI("link"), node())
	}
}

// matFaultsArmed reports whether a fault plan is injected (CI chaos runs).
// Answer correctness must hold regardless; warm-path guarantees cannot — a
// maintenance pass hit by an injected fault drops the entry by design, so the
// next query legitimately rebuilds or chases.
func matFaultsArmed() bool { return os.Getenv("TRIQ_FAULTS") != "" }

func matSkipInjected(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil && errors.Is(err, limits.ErrInjected) {
			t.Skipf("injected fault (TRIQ_FAULTS armed); schedule not comparable")
		}
	}
}

// matSeeds yields the schedule seeds: 200 in a full run, 40 under -short, or
// exactly the one named by TRIQ_DIFF_SEED.
func matSeeds(t *testing.T) []int64 {
	n := 200
	if testing.Short() {
		n = 40
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if env := os.Getenv("TRIQ_DIFF_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad TRIQ_DIFF_SEED %q: %v", env, err)
		}
		seeds = []int64{v}
	}
	return seeds
}

// matHarness is one schedule's fixture: a volatile store wired into a fresh
// materializer, plus the chase options shared by both sides of the diff. The
// store and the materializer report to a live registry, so every schedule
// also runs the write path with its telemetry on (the goldens run it off).
type matHarness struct {
	st  *store.Store
	m   *Materializer
	obs *obs.Obs
}

func newMatHarness(t *testing.T) *matHarness {
	t.Helper()
	o := obs.New()
	m := New(Config{Obs: o})
	st, _, err := store.Open(store.Config{OnCommit: m.OnCommit, Obs: o})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	m.Reset(st.Current().Seq)
	return &matHarness{st: st, m: m, obs: o}
}

// query evaluates the program's output at the store's current epoch twice —
// once offered the materializer, once forced through the chase — and fails
// the test on any divergence. It returns the materialized side's path.
func (h *matHarness) query(t *testing.T, ctx context.Context, prog *datalog.Program, label string) string {
	t.Helper()
	ep := h.st.Current()
	db, err := chase.FromFacts(owl.GraphToDB(ep.Graph))
	if err != nil {
		t.Fatalf("%s: graph to db: %v", label, err)
	}
	q := datalog.NewQuery(prog, matOutput)
	warm, err := triq.EvalCtx(ctx, db, q, triq.Unrestricted,
		triq.Options{Mat: h.m, MatEpoch: ep.Seq})
	matSkipInjected(t, err)
	if err != nil {
		t.Fatalf("%s: materialized eval: %v", label, err)
	}
	cold, err := triq.EvalCtx(ctx, db, q, triq.Unrestricted, triq.Options{})
	matSkipInjected(t, err)
	if err != nil {
		t.Fatalf("%s: chase eval: %v", label, err)
	}
	if warm.Answers.Inconsistent != cold.Answers.Inconsistent {
		t.Fatalf("%s: inconsistency verdicts differ: materialized=%v chase=%v",
			label, warm.Answers.Inconsistent, cold.Answers.Inconsistent)
	}
	if got, want := renderTuples(warm), renderTuples(cold); got != want {
		t.Fatalf("%s: answers differ at epoch %d (path %s)\nmaterialized:\n%s\nchase:\n%s",
			label, ep.Seq, warm.Path, got, want)
	}
	if !warm.Exact {
		t.Fatalf("%s: materialized answer not exact (path %s)", label, warm.Path)
	}
	return warm.Path
}

func renderTuples(res *triq.Result) string {
	var b strings.Builder
	for _, tup := range res.Answers.Tuples {
		for i, term := range tup {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(term.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestMatDifferential(t *testing.T) {
	ctx := context.Background()
	for _, seed := range matSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			prog, source, err := genMatProgram(rng)
			if err != nil {
				t.Fatal(err)
			}
			replay := func() {
				t.Logf("replay: TRIQ_DIFF_SEED=%d go test -run TestMatDifferential ./internal/mat\nprogram:\n%s", seed, source)
			}
			h := newMatHarness(t)
			base := make([]rdf.Triple, 8+rng.Intn(12))
			for i := range base {
				base[i] = randTriple(rng)
			}
			if _, _, err := h.st.Insert(base); err != nil {
				matSkipInjected(t, err)
				t.Fatalf("seed insert: %v", err)
			}
			servedWarm := false
			steps := 10
			queryEvery := 1 + rng.Intn(3)
			for step := 0; step < steps; step++ {
				if rng.Intn(5) < 3 { // insert-leaning mix
					batch := make([]rdf.Triple, 1+rng.Intn(5))
					for i := range batch {
						batch[i] = randTriple(rng)
					}
					_, _, err = h.st.Insert(batch)
				} else {
					pool := h.st.Current().Graph.Triples()
					batch := make([]rdf.Triple, 1+rng.Intn(5))
					for i := range batch {
						if len(pool) > 0 && rng.Intn(8) > 0 {
							batch[i] = pool[rng.Intn(len(pool))]
						} else {
							// Occasionally delete a triple that may never have
							// been inserted: must be a no-op on both sides.
							batch[i] = randTriple(rng)
						}
					}
					_, _, err = h.st.Delete(batch)
				}
				matSkipInjected(t, err)
				if err != nil {
					replay()
					t.Fatalf("step %d: mutate: %v", step, err)
				}
				if me, ok := h.m.Epoch(); !ok || me != h.st.Current().Seq {
					replay()
					t.Fatalf("step %d: mat epoch %d (have=%v) does not track store epoch %d",
						step, me, ok, h.st.Current().Seq)
				}
				if step%queryEvery != 0 {
					continue
				}
				path := h.query(t, ctx, prog, fmt.Sprintf("step %d", step))
				if path == triq.PathMaterialized {
					servedWarm = true
				}
			}
			// The program is positive and Skolem-maintainable, so after the
			// first cold build every later query must have been served warm —
			// the whole point of the maintenance path.
			if !servedWarm && !matFaultsArmed() {
				replay()
				t.Fatalf("no query was served from the warm materialization")
			}
		})
	}
}

// TestMatInsertDeleteRestores: inserting a batch and deleting it again (two
// epochs) must restore the previous answers, served warm — the materializer
// folds both deltas rather than rebuilding.
func TestMatInsertDeleteRestores(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	prog, _, err := genMatProgram(rng)
	if err != nil {
		t.Fatal(err)
	}
	h := newMatHarness(t)
	base := make([]rdf.Triple, 15)
	for i := range base {
		base[i] = randTriple(rng)
	}
	if _, _, err := h.st.Insert(base); err != nil {
		matSkipInjected(t, err)
		t.Fatalf("seed insert: %v", err)
	}
	h.query(t, ctx, prog, "cold build") // installs the entry
	before := h.st.Current()
	db, err := chase.FromFacts(owl.GraphToDB(before.Graph))
	if err != nil {
		t.Fatal(err)
	}
	q := datalog.NewQuery(prog, matOutput)
	res0, err := triq.EvalCtx(ctx, db, q, triq.Unrestricted,
		triq.Options{Mat: h.m, MatEpoch: before.Seq})
	matSkipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	// A batch of genuinely-new triples round-trips to a no-op.
	var batch []rdf.Triple
	for len(batch) < 6 {
		tr := randTriple(rng)
		if !before.Graph.Has(tr) {
			batch = append(batch, tr)
		}
	}
	if _, _, err := h.st.Insert(batch); err != nil {
		matSkipInjected(t, err)
		t.Fatalf("insert: %v", err)
	}
	if _, _, err := h.st.Delete(batch); err != nil {
		matSkipInjected(t, err)
		t.Fatalf("delete: %v", err)
	}
	after := h.st.Current()
	if !after.Graph.Equal(before.Graph) {
		t.Fatalf("graph not restored by insert-then-delete")
	}
	if hs, _ := h.obs.Registry().Hist("mat.maintain_us"); hs.Count < 2 && !matFaultsArmed() {
		t.Fatalf("mat.maintain_us observed %d folds, want the insert and the delete", hs.Count)
	}
	res1, err := triq.EvalCtx(ctx, db, q, triq.Unrestricted,
		triq.Options{Mat: h.m, MatEpoch: after.Seq})
	matSkipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Path != triq.PathMaterialized && !matFaultsArmed() {
		t.Fatalf("restored epoch not served warm: path=%s", res1.Path)
	}
	if renderTuples(res0) != renderTuples(res1) {
		t.Fatalf("answers changed across insert-then-delete\nbefore:\n%s\nafter:\n%s",
			renderTuples(res0), renderTuples(res1))
	}
}

// TestMatBatchSplit: committing one batch in a single epoch or split across
// two epochs must yield the same final answers.
func TestMatBatchSplit(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	prog, _, err := genMatProgram(rng)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]rdf.Triple, 12)
	for i := range base {
		base[i] = randTriple(rng)
	}
	batch := make([]rdf.Triple, 10)
	for i := range batch {
		batch[i] = randTriple(rng)
	}
	run := func(splits [][]rdf.Triple) string {
		h := newMatHarness(t)
		if _, _, err := h.st.Insert(base); err != nil {
			matSkipInjected(t, err)
			t.Fatalf("seed insert: %v", err)
		}
		h.query(t, ctx, prog, "cold build")
		for _, s := range splits {
			if _, _, err := h.st.Insert(s); err != nil {
				matSkipInjected(t, err)
				t.Fatalf("insert: %v", err)
			}
		}
		ep := h.st.Current()
		db, err := chase.FromFacts(owl.GraphToDB(ep.Graph))
		if err != nil {
			t.Fatal(err)
		}
		res, err := triq.EvalCtx(ctx, db, datalog.NewQuery(prog, matOutput), triq.Unrestricted,
			triq.Options{Mat: h.m, MatEpoch: ep.Seq})
		matSkipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != triq.PathMaterialized && !matFaultsArmed() {
			t.Fatalf("final epoch not served warm: path=%s", res.Path)
		}
		return renderTuples(res)
	}
	one := run([][]rdf.Triple{batch})
	two := run([][]rdf.Triple{batch[:5], batch[5:]})
	if one != two {
		t.Fatalf("one epoch ≠ two epochs\none:\n%s\ntwo:\n%s", one, two)
	}
}

// TestMatDeleteAll: deleting every triple must leave the materialized answer
// equal to the empty-graph chase.
func TestMatDeleteAll(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	prog, _, err := genMatProgram(rng)
	if err != nil {
		t.Fatal(err)
	}
	h := newMatHarness(t)
	base := make([]rdf.Triple, 20)
	for i := range base {
		base[i] = randTriple(rng)
	}
	if _, _, err := h.st.Insert(base); err != nil {
		matSkipInjected(t, err)
		t.Fatalf("seed insert: %v", err)
	}
	h.query(t, ctx, prog, "cold build")
	if _, _, err := h.st.Delete(h.st.Current().Graph.Triples()); err != nil {
		matSkipInjected(t, err)
		t.Fatalf("delete all: %v", err)
	}
	if h.st.Current().Graph.Len() != 0 {
		t.Fatalf("%d triples remain", h.st.Current().Graph.Len())
	}
	path := h.query(t, ctx, prog, "after delete-all")
	if path != triq.PathMaterialized && !matFaultsArmed() {
		t.Fatalf("empty epoch not served warm: path=%s", path)
	}
}

// TestMatSnapshotResets: a snapshot install (wholesale state replacement, the
// replica catch-up path) must reset the materializer — entries rebuild lazily
// and still agree with the chase.
func TestMatSnapshotResets(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	prog, _, err := genMatProgram(rng)
	if err != nil {
		t.Fatal(err)
	}
	h := newMatHarness(t)
	base := make([]rdf.Triple, 10)
	for i := range base {
		base[i] = randTriple(rng)
	}
	if _, _, err := h.st.Insert(base); err != nil {
		matSkipInjected(t, err)
		t.Fatalf("seed insert: %v", err)
	}
	h.query(t, ctx, prog, "cold build")
	g := rdf.NewGraph()
	for i := 0; i < 12; i++ {
		g.Add(randTriple(rng))
	}
	if _, err := h.st.InstallSnapshot(h.st.Current().Seq+10, g); err != nil {
		matSkipInjected(t, err)
		t.Fatalf("install snapshot: %v", err)
	}
	snap := h.m.Snapshot()
	if snap.Programs != 0 {
		t.Fatalf("snapshot install did not reset the materializer: %d entries", snap.Programs)
	}
	if snap.Epoch != h.st.Current().Seq {
		t.Fatalf("mat epoch %d ≠ store epoch %d after snapshot install", snap.Epoch, h.st.Current().Seq)
	}
	h.query(t, ctx, prog, "after snapshot install")
}

// TestMatBuildReportsToItsRequestOnly: a cold build is an ordinary chase and
// reports its chase.* counters and spans to the request that paid for it —
// under explain, that request's private registry. The engine the entry keeps
// must not: once the request has returned, commits maintain the entry and
// warm reads are served without moving that registry, and a commit that only
// maintains leaves the server's chase.* counters alone.
func TestMatBuildReportsToItsRequestOnly(t *testing.T) {
	ctx := context.Background()
	h := newMatHarness(t)
	prog := datalog.MustParse(strings.Join(matTemplates, "\n"))
	q := datalog.NewQuery(prog, matOutput)
	rng := rand.New(rand.NewSource(5))
	base := make([]rdf.Triple, 15)
	for i := range base {
		base[i] = randTriple(rng)
	}
	if _, _, err := h.st.Insert(base); err != nil {
		matSkipInjected(t, err)
		t.Fatal(err)
	}
	ep := h.st.Current()
	db, err := chase.FromFacts(owl.GraphToDB(ep.Graph))
	if err != nil {
		t.Fatal(err)
	}
	var priv *obs.Obs
	opts := triq.Options{Mat: h.m, MatEpoch: ep.Seq, Chase: chase.Options{Obs: h.obs}}
	res, _, err := triq.Explained("query", opts, func(o triq.Options) (*triq.Result, error) {
		priv = o.Chase.Obs
		return triq.EvalCtx(ctx, db, q, triq.Unrestricted, o)
	})
	matSkipInjected(t, err)
	if err != nil || res.Path != triq.PathMaterializedBuild {
		t.Fatalf("explained cold read: path %v, err %v", res, err)
	}
	if priv.Registry().Counter("chase.runs") != 1 || priv.Registry().Counter("chase.facts_derived") == 0 {
		t.Fatalf("the build did not report to the request's registry:\n%s", priv.Registry().Summary())
	}
	chaseCounters := func() string {
		var b strings.Builder
		for _, line := range strings.Split(h.obs.Registry().Summary(), "\n") {
			if strings.HasPrefix(line, "chase.") || strings.HasPrefix(line, "span.chase.") {
				b.WriteString(line + "\n")
			}
		}
		return b.String()
	}
	private, server := priv.Registry().Summary(), chaseCounters()
	passes := h.obs.Registry().Counter("mat.maintain_passes")

	batch := []rdf.Triple{rdf.NewTriple(rdf.NewIRI("n1"), rdf.NewIRI("type"), rdf.NewIRI("hub")),
		rdf.NewTriple(rdf.NewIRI("n1"), rdf.NewIRI("link"), rdf.NewIRI("n9"))}
	if _, _, err := h.st.Insert(batch); err != nil {
		matSkipInjected(t, err)
		t.Fatal(err)
	}
	if _, _, err := h.st.Delete(batch[:1]); err != nil {
		matSkipInjected(t, err)
		t.Fatal(err)
	}
	if got := h.obs.Registry().Counter("mat.maintain_passes") - passes; got != 2 && !matFaultsArmed() {
		t.Fatalf("%d maintenance passes, want the insert and the delete", got)
	}
	opts.MatEpoch = h.st.Current().Seq
	res, err = triq.EvalCtx(ctx, db, q, triq.Unrestricted, opts)
	matSkipInjected(t, err)
	if err != nil || (res.Path != triq.PathMaterialized && !matFaultsArmed()) {
		t.Fatalf("warm read: path %v, err %v", res, err)
	}
	if got := priv.Registry().Summary(); got != private {
		t.Errorf("the returned request's private registry moved\nbefore:\n%s\nafter:\n%s", private, got)
	}
	if got := chaseCounters(); got != server && !matFaultsArmed() {
		t.Errorf("maintenance moved the server's chase counters\nbefore:\n%s\nafter:\n%s", server, got)
	}
}
