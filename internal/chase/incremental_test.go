package chase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/limits"
)

// The incremental differential suite proves the maintenance contract: after
// any schedule of EDB insert and delete batches, the maintained instance must
// agree with a from-scratch chase of the final EDB (ground part exactly,
// nulls up to renaming), and with a from-scratch incremental build exactly
// once nulls are renamed to their Skolem keys.
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

// keyedForm renders the instance with every null replaced by its
// canonicalized Skolem key: two materializations of the same program
// over the same EDB are isomorphic exactly when their keyed forms are equal,
// whatever order their nulls were invented in. Skolem keys embed the *names*
// of nulls appearing in the frontier binding, and those names are
// engine-local, so canonicalization rewrites them recursively (the key DAG
// is acyclic: a key only references strictly shallower nulls).
func keyedForm(inc *Incremental) map[string]bool {
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
	out := make(map[string]bool)
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
		out[b.String()] = true
	}
	return out
}

func diffKeyed(a, b map[string]bool) string {
	for k := range a {
		if !b[k] {
			return "only in maintained: " + k
		}
	}
	for k := range b {
		if !a[k] {
			return "only in fresh: " + k
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

// TestIncrementalDifferential runs every seed's schedule along three axes:
//
//   - plain: after every batch the maintained instance is the chase of the
//     EDB up to null renaming, and every fourth batch a fresh build's too;
//   - fault: every pass, the build included, runs under its own chase.rule
//     fault plan. A pass that trips latches the materialization — every later
//     call is errBroken — and one that does not is held to the plain checks;
//   - depth: the schedule runs at MaxDepth 1, below what the t template needs.
//     A pass either reports ErrMaintainDepth (and latches) or leaves exactly
//     the unbounded chase: a truncated instance is never kept.
func TestIncrementalDifferential(t *testing.T) {
	for _, seed := range incSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, axis := range []string{"plain", "fault", "depth"} {
				axis := axis
				t.Run(axis, func(t *testing.T) { incSchedule(t, seed, axis) })
			}
		})
	}
}

func incSchedule(t *testing.T, seed int64, axis string) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	prog, source, err := genIncProgram(rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Logf("replay: TRIQ_DIFF_SEED=%d go test -run TestIncrementalDifferential ./internal/chase\nprogram:\n%s", seed, source)
		t.Fatalf(format, args...)
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
	opts := incOpts
	if axis == "depth" {
		opts.MaxDepth = 1
	}
	// The fault axis draws from its own source, so the schedule stays the seed's.
	frng := rand.New(rand.NewSource(seed))
	arm := func() *limits.Plan {
		if axis != "fault" {
			return nil
		}
		return limits.NewPlan(limits.Fault{Point: "chase.rule", After: frng.Intn(100), Action: limits.ActError})
	}
	var inc *Incremental
	// settled judges one pass: true when the schedule may go on from a
	// maintained instance that equals the chase of the EDB.
	settled := func(label string, err error) bool {
		t.Helper()
		want, serr := prepare(ctx, edb.Overlay(), prog, incOpts, false)
		if serr == nil {
			serr = want.step()
		}
		skipIfInjected(t, serr)
		if serr != nil || want.stats.DepthTruncated {
			fail("%s: scratch chase: %v (truncated %v)", label, serr, want.stats.DepthTruncated)
		}
		switch {
		case err == nil:
			if got, want := canonicalInstance(inc.e), canonicalInstance(want); got != want {
				fail("%s: maintained ≠ chase of the EDB\nmaintained:\n%s\nchase:\n%s", label, got, want)
			}
			return true
		case axis == "depth" && errors.Is(err, ErrMaintainDepth):
			if want.deepest <= opts.MaxDepth {
				fail("%s: %v, but the chase needs depth %d only", label, err, want.deepest)
			}
		case axis == "fault" && errors.Is(err, limits.ErrInjected):
		default:
			skipIfInjected(t, err)
			fail("%s: %v", label, err)
		}
		if inc != nil { // a failed pass latches
			if _, err := inc.Insert(ctx, []datalog.Atom{randEDBAtom(rng, consts)}); err != errBroken {
				fail("%s: insert after a failed pass: %v, want errBroken", label, err)
			}
			if _, err := inc.Delete(ctx, edb.All()); err != errBroken {
				fail("%s: delete after a failed pass: %v, want errBroken", label, err)
			}
		}
		return false
	}
	opts.Faults = arm()
	inc, err = NewIncremental(ctx, edb, prog, opts)
	if !settled("build", err) {
		return
	}
	if o := inc.e.opts; o.Faults != nil || o.Obs != nil || o.Progress != nil || inc.e.ctx != nil {
		fail("the installed engine still holds the build request's state: %+v", o)
	}
	for step := 0; step < 12; step++ {
		inc.e.opts.Faults = arm()
		if rng.Intn(5) < 3 { // insert-leaning mix
			batch := make([]datalog.Atom, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = randEDBAtom(rng, consts)
			}
			for _, a := range batch {
				edb.Add(a)
			}
			_, err = inc.Insert(ctx, batch)
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
			_, err = inc.Delete(ctx, batch)
		}
		if !settled(fmt.Sprintf("step %d", step), err) {
			return
		}
		if step%4 == 3 {
			fresh, ferr := NewIncremental(ctx, edb, prog, incOpts)
			skipIfInjected(t, ferr)
			if ferr != nil {
				fail("step %d: fresh build: %v", step, ferr)
			}
			if d := diffKeyed(keyedForm(inc), keyedForm(fresh)); d != "" {
				fail("step %d: maintained ≠ fresh rebuild: %s", step, d)
			}
		}
	}
}

// TestIncrementalDepthBound pins the three places the depth bound can stop a
// materialization — the build, an insert, and a delete's re-derivation — each
// of which must report ErrMaintainDepth rather than keep a truncated instance.
func TestIncrementalDepthBound(t *testing.T) {
	ctx := context.Background()
	// t(?V, ?W) carries a depth-2 null, and two f atoms with one subject give
	// it two triggers with one Skolem key.
	prog := datalog.MustParse("e(?X) -> s(?X, ?V).\ns(?X, ?V), f(?X, ?Y) -> t(?V, ?W).")
	ea, fab, fac := atom("e", "a"), atom("f", "a", "b"), atom("f", "a", "c")
	shallow := Options{MaxDepth: 1}
	_, err := NewIncremental(ctx, NewInstance(ea, fab), prog, shallow)
	skipIfInjected(t, err)
	if !errors.Is(err, ErrMaintainDepth) {
		t.Fatalf("build below the needed depth: %v, want ErrMaintainDepth", err)
	}
	inc, err := NewIncremental(ctx, NewInstance(ea), prog, shallow)
	skipIfInjected(t, err)
	if err != nil {
		t.Fatalf("build within the bound: %v", err)
	}
	_, err = inc.Insert(ctx, []datalog.Atom{fab})
	skipIfInjected(t, err)
	if !errors.Is(err, ErrMaintainDepth) {
		t.Fatalf("insert below the needed depth: %v, want ErrMaintainDepth", err)
	}
	if _, err := inc.Delete(ctx, []datalog.Atom{fab}); err != errBroken {
		t.Fatalf("delete after the failed insert: %v, want errBroken", err)
	}
	inc, err = NewIncremental(ctx, NewInstance(ea, fab, fac), prog, Options{})
	skipIfInjected(t, err)
	if err != nil || inc.Depth() != 2 {
		t.Fatalf("build: %v at depth %d, want depth 2", err, inc.Depth())
	}
	inc.e.opts.MaxDepth = 1 // f(a, c) still derives t's fact, one step from what remains
	st, err := inc.Delete(ctx, []datalog.Atom{fab})
	skipIfInjected(t, err)
	if !errors.Is(err, ErrMaintainDepth) || st.OverDeleted != 2 {
		t.Fatalf("re-derivation below the needed depth: %v after over-deleting %d, want ErrMaintainDepth after 2", err, st.OverDeleted)
	}
}

// TestIncrementalBuildIsTheChase pins that a cold build is the ordinary chase:
// the same instance, null names included, and the same Stats as Run.
func TestIncrementalBuildIsTheChase(t *testing.T) {
	type build struct {
		name string
		db   *Instance
		prog *datalog.Program
	}
	transport := NewInstance()
	for l := 0; l < 4; l++ {
		line := "line" + strconv.Itoa(l)
		transport.Add(atom("triple", line+"_hub", "partOf", "transportService"))
		transport.Add(atom("triple", line, "partOf", line+"_hub"))
		for c := 3 * l; c < 3*l+3; c++ {
			transport.Add(atom("triple", "city"+strconv.Itoa(c), line, "city"+strconv.Itoa(c+1)))
		}
	}
	builds := []build{
		{"transport", transport, datalog.MustParse(`
			triple(?X, partOf, transportService) -> ts(?X).
			triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
			ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
			ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
			conn(?X, ?Y) -> query(?X, ?Y).`)},
		{"all templates", nil, datalog.MustParse(strings.Join(incTemplates, "\n"))},
	}
	for _, seed := range incSeeds(t) {
		rng := rand.New(rand.NewSource(seed + 4_000_000))
		prog, _, err := genIncProgram(rng)
		if err != nil {
			t.Fatal(err)
		}
		builds = append(builds, build{fmt.Sprintf("seed=%d", seed), nil, prog})
	}
	rng := rand.New(rand.NewSource(4_000_000))
	consts := make([]datalog.Term, 8)
	for i := range consts {
		consts[i] = datalog.C("c" + strconv.Itoa(i))
	}
	for _, b := range builds {
		if b.db == nil {
			b.db = NewInstance()
			for i := 0; i < 30; i++ {
				b.db.Add(randEDBAtom(rng, consts))
			}
		}
		res, err := RunCtx(context.Background(), b.db, b.prog, incOpts)
		inc, ierr := NewIncremental(context.Background(), b.db, b.prog, incOpts)
		skipIfInjected(t, err, ierr)
		if err != nil || ierr != nil {
			t.Fatalf("%s: chase: %v, build: %v", b.name, err, ierr)
		}
		if !inc.Instance().Equal(res.Instance) {
			t.Errorf("%s: the build's instance is not the chase's\nbuild:\n%s\nchase:\n%s", b.name, inc.Instance(), res.Instance)
		}
		if got, want := normStats(inc.e.snapshotStats()), normStats(res.Stats); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the build's stats are not the chase's\nbuild: %+v\nchase: %+v", b.name, got, want)
		}
	}
}

// TestIncrementalInsertDeleteRestores is the strongest metamorphic property:
// inserting a batch and deleting the same batch restores the instance
// EXACTLY — same null names, not just isomorphic — because the Skolem table
// persists across the round trip.
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
			t.Fatalf("seed=%d: keyed form not restored: %s", seed, d)
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

// TestIncrementalRejects pins the gating: negation and constraints are not
// maintainable and must be refused up front.
func TestIncrementalRejects(t *testing.T) {
	ctx := context.Background()
	db := NewInstance(datalog.NewAtom("e", datalog.C("a"), datalog.C("b")))
	neg := datalog.MustParse("e(?X, ?Y), not p(?X, ?Y) -> q(?X).\ne(?X, ?Y) -> p(?X, ?Y).")
	if _, err := NewIncremental(ctx, db, neg, incOpts); err == nil {
		t.Error("negation accepted")
	}
	// Constraints are maintained as the rules that derive the marker.
	cons := datalog.MustParse("e(?X, ?Y) -> p(?X, ?Y).")
	cons.AddConstraint(datalog.Constraint{Body: []datalog.Atom{datalog.NewAtom("p", datalog.V("X"), datalog.V("X"))}})
	if _, err := NewIncremental(ctx, db, cons, incOpts); err != nil {
		t.Errorf("constraints rejected: %v", err)
	}
}
