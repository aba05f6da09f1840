package chase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/limits"
)

// The incremental differential suite proves the maintenance contract: after
// any schedule of EDB insert and delete batches, the maintained instance must
// agree with a from-scratch chase of the final EDB (ground part exactly,
// nulls up to renaming), and with a from-scratch incremental build exactly —
// including support counts — once nulls are renamed to their Skolem keys.
// Replay one seed with TRIQ_DIFF_SEED=<n> go test -run TestIncremental
// ./internal/chase.

// incTemplates is the positive (materializable) rule pool: recursion through
// p, existential invention through s and t, including a depth-2 chain (the
// null invented by the t rule has a null in its frontier).
var incTemplates = []string{
	"e0(?X, ?Y) -> p(?X, ?Y).",
	"e1(?X, ?Y) -> p(?Y, ?X).",
	"p(?X, ?Y), e1(?Y, ?Z) -> p(?X, ?Z).",
	"p(?X, ?Y), p(?Y, ?Z) -> q(?X, ?Z).",
	"e0(?X, ?Y) -> q(?X, ?Y).",
	"q(?X, ?Y) -> r(?X).",
	"r(?X) -> s(?X, ?V).",
	"e1(?X, ?Y) -> s(?Y, ?W).",
	"s(?X, ?V), e0(?X, ?Y) -> p(?X, ?Y).",
	"s(?X, ?V) -> q(?X, ?X).",
	"s(?X, ?V) -> t(?V, ?W).",
	"t(?X, ?V), s(?Y, ?X) -> q(?Y, ?Y).",
}

var incOpts = Options{MaxDepth: 6, MaxFacts: 50_000, MaxRounds: 1_000}

// genIncProgram samples a positive warded program from the template pool.
func genIncProgram(rng *rand.Rand) (*datalog.Program, string, error) {
	for attempt := 0; attempt < 100; attempt++ {
		perm := rng.Perm(len(incTemplates))
		k := 3 + rng.Intn(5)
		var source string
		for _, i := range perm[:k] {
			source += incTemplates[i] + "\n"
		}
		p, err := datalog.Parse(source)
		if err != nil {
			continue
		}
		if datalog.CheckWarded(p) != nil {
			continue
		}
		return p, source, nil
	}
	return nil, "", fmt.Errorf("no valid program after 100 attempts")
}

func randEDBAtom(rng *rand.Rand, consts []datalog.Term) datalog.Atom {
	pred := "e0"
	if rng.Intn(2) == 1 {
		pred = "e1"
	}
	return datalog.NewAtom(pred, consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
}

// keyedForm renders the instance and support table with every null replaced
// by its canonicalized Skolem key: two materializations of the same program
// over the same EDB are isomorphic exactly when their keyed forms are equal,
// whatever order their nulls were invented in. Skolem keys embed the *names*
// of nulls appearing in the frontier binding, and those names are
// engine-local, so canonicalization rewrites them recursively (the key DAG
// is acyclic: a key only references strictly shallower nulls).
func keyedForm(inc *Incremental) map[string]int {
	names := inc.NullKeys()
	var nullKind byte
	if ns := inc.Instance().Nulls(); len(ns) > 0 {
		nullKind = byte('0' + ns[0].Kind)
	}
	memo := make(map[string]string, len(names))
	var canon func(name string) string
	canon = func(name string) string {
		if c, ok := memo[name]; ok {
			return c
		}
		key, ok := names[name]
		if !ok {
			return name
		}
		segs := strings.Split(key, "|")
		for i, seg := range segs {
			if len(seg) > 1 && seg[0] == nullKind {
				if _, isNull := names[seg[1:]]; isNull {
					segs[i] = string(nullKind) + "(" + canon(seg[1:]) + ")"
				}
			}
		}
		c := strings.Join(segs, "|")
		memo[name] = c
		return c
	}
	out := make(map[string]int)
	for _, a := range inc.Instance().All() {
		var b strings.Builder
		b.WriteString(a.Pred)
		for _, t := range a.Args {
			b.WriteByte('|')
			if t.IsNull() {
				b.WriteString("⟨" + canon(t.Name) + "⟩")
			} else {
				b.WriteString(t.Name)
			}
		}
		out[b.String()] = inc.SupportOf(a)
	}
	return out
}

func diffKeyed(a, b map[string]int) string {
	for k, v := range a {
		if bv, ok := b[k]; !ok {
			return fmt.Sprintf("only in maintained: %s (support %d)", k, v)
		} else if bv != v {
			return fmt.Sprintf("support differs for %s: %d vs %d", k, v, bv)
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			return fmt.Sprintf("only in fresh: %s (support %d)", k, v)
		}
	}
	return ""
}

func skipIfInjected(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil && errors.Is(err, limits.ErrInjected) {
			t.Skipf("injected fault (TRIQ_FAULTS armed); case not comparable")
		}
	}
}

func incSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	if testing.Short() {
		seeds = seeds[:5]
	}
	if env := os.Getenv("TRIQ_DIFF_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad TRIQ_DIFF_SEED %q: %v", env, err)
		}
		seeds = []int64{n}
	}
	return seeds
}

func TestIncrementalDifferential(t *testing.T) {
	ctx := context.Background()
	for _, seed := range incSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			prog, source, err := genIncProgram(rng)
			if err != nil {
				t.Fatal(err)
			}
			consts := make([]datalog.Term, 10)
			for i := range consts {
				consts[i] = datalog.C("c" + strconv.Itoa(i))
			}
			edb := NewInstance()
			n := 15 + rng.Intn(25)
			for i := 0; i < n; i++ {
				edb.Add(randEDBAtom(rng, consts))
			}
			inc, err := NewIncremental(ctx, edb, prog, incOpts)
			skipIfInjected(t, err)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			replay := func() {
				t.Logf("replay: TRIQ_DIFF_SEED=%d go test -run TestIncrementalDifferential ./internal/chase\nprogram:\n%s", seed, source)
			}
			for step := 0; step < 12; step++ {
				var st MaintainStats
				if rng.Intn(5) < 3 { // insert-leaning mix
					batch := make([]datalog.Atom, 1+rng.Intn(6))
					for i := range batch {
						batch[i] = randEDBAtom(rng, consts)
					}
					for _, a := range batch {
						edb.Add(a)
					}
					st, err = inc.Insert(ctx, batch)
				} else {
					pool := edb.All()
					if len(pool) == 0 {
						continue
					}
					batch := make([]datalog.Atom, 1+rng.Intn(6))
					for i := range batch {
						batch[i] = pool[rng.Intn(len(pool))]
					}
					edb.RemoveBatch(batch)
					st, err = inc.Delete(ctx, batch)
				}
				skipIfInjected(t, err)
				if err != nil {
					replay()
					t.Fatalf("step %d: maintain: %v", step, err)
				}
				_ = st
				scratch, serr := RunCtx(ctx, edb, prog, incOpts)
				skipIfInjected(t, serr)
				if serr != nil {
					replay()
					t.Fatalf("step %d: scratch chase: %v", step, serr)
				}
				if scratch.Stats.DepthTruncated {
					t.Fatalf("step %d: scratch chase depth-truncated; templates should be depth-bounded", step)
				}
				if !inc.Instance().GroundPart().Equal(scratch.Instance.GroundPart()) {
					replay()
					t.Fatalf("step %d: ground parts differ (%d vs %d atoms)", step,
						inc.Instance().GroundPart().Len(), scratch.Instance.GroundPart().Len())
				}
				if in, sn := len(inc.Instance().Nulls()), len(scratch.Instance.Nulls()); in != sn {
					replay()
					t.Fatalf("step %d: null counts differ: %d vs %d", step, in, sn)
				}
				if inc.Instance().Len() != scratch.Instance.Len() {
					replay()
					t.Fatalf("step %d: sizes differ: %d vs %d", step, inc.Instance().Len(), scratch.Instance.Len())
				}
				if step%4 == 3 {
					fresh, ferr := NewIncremental(ctx, edb, prog, incOpts)
					skipIfInjected(t, ferr)
					if ferr != nil {
						replay()
						t.Fatalf("step %d: fresh build: %v", step, ferr)
					}
					if d := diffKeyed(keyedForm(inc), keyedForm(fresh)); d != "" {
						replay()
						t.Fatalf("step %d: maintained ≠ fresh rebuild: %s", step, d)
					}
				}
			}
		})
	}
}

// TestIncrementalInsertDeleteRestores is the strongest metamorphic property:
// inserting a batch and deleting the same batch restores the instance and
// support table EXACTLY — same null names, not just isomorphic — because the
// Skolem table persists across the round trip.
func TestIncrementalInsertDeleteRestores(t *testing.T) {
	ctx := context.Background()
	for _, seed := range incSeeds(t) {
		rng := rand.New(rand.NewSource(seed + 1_000_000))
		prog, source, err := genIncProgram(rng)
		if err != nil {
			t.Fatal(err)
		}
		consts := make([]datalog.Term, 8)
		for i := range consts {
			consts[i] = datalog.C("c" + strconv.Itoa(i))
		}
		edb := NewInstance()
		for i := 0; i < 20; i++ {
			edb.Add(randEDBAtom(rng, consts))
		}
		inc, err := NewIncremental(ctx, edb, prog, incOpts)
		skipIfInjected(t, err)
		if err != nil {
			t.Fatalf("seed=%d: build: %v", seed, err)
		}
		before := inc.Instance().String()
		beforeKeyed := keyedForm(inc)
		batch := make([]datalog.Atom, 6)
		for i := range batch {
			for {
				a := randEDBAtom(rng, consts)
				if !edb.Has(a) { // only genuinely-new atoms round-trip to a no-op
					batch[i] = a
					break
				}
			}
		}
		if _, err := inc.Insert(ctx, batch); err != nil {
			skipIfInjected(t, err)
			t.Fatalf("seed=%d: insert: %v", seed, err)
		}
		if _, err := inc.Delete(ctx, batch); err != nil {
			skipIfInjected(t, err)
			t.Fatalf("seed=%d: delete: %v", seed, err)
		}
		if after := inc.Instance().String(); after != before {
			t.Fatalf("seed=%d: insert-then-delete did not restore the instance exactly\nprogram:\n%s", seed, source)
		}
		if d := diffKeyed(beforeKeyed, keyedForm(inc)); d != "" {
			t.Fatalf("seed=%d: support table not restored: %s", seed, d)
		}
	}
}

// TestIncrementalDeleteAll: removing every EDB atom must drain the instance
// to empty, whatever derivation structure was built on top.
func TestIncrementalDeleteAll(t *testing.T) {
	ctx := context.Background()
	for _, seed := range incSeeds(t) {
		rng := rand.New(rand.NewSource(seed + 2_000_000))
		prog, source, err := genIncProgram(rng)
		if err != nil {
			t.Fatal(err)
		}
		consts := make([]datalog.Term, 6)
		for i := range consts {
			consts[i] = datalog.C("c" + strconv.Itoa(i))
		}
		edb := NewInstance()
		for i := 0; i < 25; i++ {
			edb.Add(randEDBAtom(rng, consts))
		}
		inc, err := NewIncremental(ctx, edb, prog, incOpts)
		skipIfInjected(t, err)
		if err != nil {
			t.Fatalf("seed=%d: build: %v", seed, err)
		}
		if _, err := inc.Delete(ctx, edb.All()); err != nil {
			skipIfInjected(t, err)
			t.Fatalf("seed=%d: delete all: %v", seed, err)
		}
		if inc.Instance().Len() != 0 {
			t.Fatalf("seed=%d: %d facts remain after deleting the whole EDB\nprogram:\n%s\nresidue:\n%s",
				seed, inc.Instance().Len(), source, inc.Instance().String())
		}
	}
}

// TestIncrementalBatchSplit: folding one insert batch is equivalent (up to
// null renaming, which the keyed form quotients out) to folding it as two
// batches — the per-epoch grouping of writes must not affect the fixpoint.
func TestIncrementalBatchSplit(t *testing.T) {
	ctx := context.Background()
	for _, seed := range incSeeds(t) {
		rng := rand.New(rand.NewSource(seed + 3_000_000))
		prog, _, err := genIncProgram(rng)
		if err != nil {
			t.Fatal(err)
		}
		consts := make([]datalog.Term, 8)
		for i := range consts {
			consts[i] = datalog.C("c" + strconv.Itoa(i))
		}
		base := NewInstance()
		for i := 0; i < 15; i++ {
			base.Add(randEDBAtom(rng, consts))
		}
		batch := make([]datalog.Atom, 10)
		for i := range batch {
			batch[i] = randEDBAtom(rng, consts)
		}
		one, err := NewIncremental(ctx, base, prog, incOpts)
		skipIfInjected(t, err)
		if err != nil {
			t.Fatalf("seed=%d: build: %v", seed, err)
		}
		two, err := NewIncremental(ctx, base, prog, incOpts)
		skipIfInjected(t, err)
		if err != nil {
			t.Fatalf("seed=%d: build: %v", seed, err)
		}
		if _, err := one.Insert(ctx, batch); err != nil {
			skipIfInjected(t, err)
			t.Fatalf("seed=%d: whole insert: %v", seed, err)
		}
		if _, err := two.Insert(ctx, batch[:5]); err != nil {
			skipIfInjected(t, err)
			t.Fatalf("seed=%d: first half: %v", seed, err)
		}
		if _, err := two.Insert(ctx, batch[5:]); err != nil {
			skipIfInjected(t, err)
			t.Fatalf("seed=%d: second half: %v", seed, err)
		}
		if d := diffKeyed(keyedForm(one), keyedForm(two)); d != "" {
			t.Fatalf("seed=%d: one batch ≠ two batches: %s", seed, d)
		}
	}
}

// TestIncrementalRejects pins the gating: negation, constraints, and the
// restricted chase are not maintainable and must be refused up front.
func TestIncrementalRejects(t *testing.T) {
	ctx := context.Background()
	db := NewInstance(datalog.NewAtom("e", datalog.C("a"), datalog.C("b")))
	neg := datalog.MustParse("e(?X, ?Y), not p(?X, ?Y) -> q(?X).\ne(?X, ?Y) -> p(?X, ?Y).")
	if _, err := NewIncremental(ctx, db, neg, incOpts); err == nil {
		t.Error("negation accepted")
	}
	cons := datalog.MustParse("e(?X, ?Y) -> p(?X, ?Y).")
	cons.AddConstraint(datalog.Constraint{Body: []datalog.Atom{datalog.NewAtom("p", datalog.V("X"), datalog.V("X"))}})
	if _, err := NewIncremental(ctx, db, cons, incOpts); err == nil {
		t.Error("constraints accepted")
	}
	pos := datalog.MustParse("e(?X, ?Y) -> p(?X, ?Y).")
	restricted := incOpts
	restricted.Mode = Restricted
	if _, err := NewIncremental(ctx, db, pos, restricted); err == nil {
		t.Error("restricted mode accepted")
	}
}
