package chase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datalog"
	"repro/internal/limits"
)

// The differential suite drives random warded programs through the chase,
// semi-naive and naive. Two engines that differ only in how the database is
// laid out (layered over a shared base, or flat) must produce the
// byte-identical instance (including invented null names), the same Stats
// (down to per-rule trigger counts), and the same typed truncation outcome;
// across the two evaluation strategies the runs must agree up to null renaming (the invention order of fresh nulls differs
// between full re-matching and delta seeding, their count and the ground
// part do not).
//
// On failure the case's seed and generated program are logged; replay one
// seed with TRIQ_DIFF_SEED=<n> go test -run TestDifferential ./internal/chase.

// diffTemplates is the rule pool the generator samples from. Each rule is
// individually warded (existential rules are guarded: single-atom positive
// bodies, or bodies whose null-carrying variables stay inside one atom) and
// negation is applied to EDB predicates or low strata only; the generator
// still filters every sampled program through Validate/CheckWarded/
// IsStratified, discarding combinations that break either property.
var diffTemplates = []string{
	"e0(?X, ?Y) -> p(?X, ?Y).",
	"e1(?X, ?Y) -> p(?Y, ?X).",
	"p(?X, ?Y), e1(?Y, ?Z) -> p(?X, ?Z).",
	"p(?X, ?Y), p(?Y, ?Z) -> q(?X, ?Z).",
	"e0(?X, ?Y) -> q(?X, ?Y).",
	"q(?X, ?Y) -> r(?X).",
	"r(?X) -> s(?X, ?V).",
	"e1(?X, ?Y) -> s(?Y, ?W).",
	"s(?X, ?V), e0(?X, ?Y) -> p(?X, ?Y).",
	"s(?X, ?V), e1(?X, ?Z) -> q(?X, ?Z).",
	"s(?X, ?V), e1(?X, ?Y) -> s(?Y, ?W).",
	"s(?X, ?V) -> q(?X, ?X).",
	"e0(?X, ?Y), not e1(?X, ?Y) -> q(?Y, ?X).",
	"e1(?X, ?Y), not e0(?Y, ?X) -> r(?X).",
	"r(?X), e0(?X, ?Y) -> q(?X, ?Y).",
}

// diffCase is one generated program + database.
type diffCase struct {
	seed    int64
	program *datalog.Program
	source  string
	db      *Instance
}

// genDiffCase derives a valid random case from the seed: a subset of the
// template pool that parses, is warded, and stratifies, over a random EDB
// of 80 to 200 facts.
func genDiffCase(seed int64) (diffCase, error) { return genDiffCaseWith(seed, "") }

// genDiffCaseWith is genDiffCase with the rules of always ahead of every
// sampled program.
func genDiffCaseWith(seed int64, always string) (diffCase, error) {
	rng := rand.New(rand.NewSource(seed))
	var prog *datalog.Program
	var source string
	for attempt := 0; ; attempt++ {
		if attempt >= 100 {
			return diffCase{}, fmt.Errorf("no valid program after %d attempts", attempt)
		}
		perm := rng.Perm(len(diffTemplates))
		k := 3 + rng.Intn(5)
		source = always
		for _, i := range perm[:k] {
			source += diffTemplates[i] + "\n"
		}
		p, err := datalog.Parse(source)
		if err != nil {
			continue
		}
		if datalog.CheckWarded(p) != nil || !datalog.IsStratified(p) {
			continue
		}
		prog = p
		break
	}
	consts := make([]datalog.Term, 12)
	for i := range consts {
		consts[i] = datalog.C("c" + strconv.Itoa(i))
	}
	db := NewInstance()
	for _, pred := range []string{"e0", "e1"} {
		n := 40 + rng.Intn(60)
		for i := 0; i < n; i++ {
			db.Add(datalog.NewAtom(pred, consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]))
		}
	}
	return diffCase{seed: seed, program: prog, source: source, db: db}, nil
}

// diffOutcome is everything a run must reproduce exactly.
type diffOutcome struct {
	res *Result
	err error
}

func runDiff(c diffCase, naive bool) diffOutcome {
	res, err := RunCtx(context.Background(), c.db, c.program, Options{
		MaxDepth:        3,
		MaxFacts:        50_000,
		MaxRounds:       1_000,
		NaiveEvaluation: naive,
	})
	return diffOutcome{res: res, err: err}
}

// normStats strips the field that is allowed to differ between runs: Time
// (wall clock).
func normStats(s Stats) Stats {
	for i := range s.PerRule {
		s.PerRule[i].Time = 0
	}
	return s
}

// sameError compares typed limit outcomes: both nil, or same limit name with
// the same deterministic truncation counters.
func sameError(a, b error) (bool, string) {
	if (a == nil) != (b == nil) {
		return false, fmt.Sprintf("error presence differs: %v vs %v", a, b)
	}
	if a == nil {
		return true, ""
	}
	if limits.LimitName(a) != limits.LimitName(b) {
		return false, fmt.Sprintf("limit differs: %v vs %v", a, b)
	}
	ta, oka := limits.TruncationOf(a)
	tb, okb := limits.TruncationOf(b)
	if oka != okb {
		return false, "truncation presence differs"
	}
	if oka && (ta.Budget != tb.Budget || ta.Reached != tb.Reached || ta.Rounds != tb.Rounds || ta.Facts != tb.Facts) {
		return false, fmt.Sprintf("truncation differs: %+v vs %+v", ta, tb)
	}
	return true, ""
}

// requireIdentical asserts the full bit-identical contract between a
// baseline run and a run that must not differ from it.
func requireIdentical(t *testing.T, label string, base, got diffOutcome) {
	t.Helper()
	if ok, why := sameError(base.err, got.err); !ok {
		t.Errorf("%s: %s", label, why)
		return
	}
	if (base.res == nil) != (got.res == nil) {
		t.Errorf("%s: result presence differs", label)
		return
	}
	if base.res == nil {
		return
	}
	if base.res.Inconsistent != got.res.Inconsistent {
		t.Errorf("%s: Inconsistent differs: %v vs %v", label, base.res.Inconsistent, got.res.Inconsistent)
	}
	if bs, gs := normStats(base.res.Stats), normStats(got.res.Stats); fmt.Sprintf("%+v", bs) != fmt.Sprintf("%+v", gs) {
		t.Errorf("%s: stats differ:\n  base: %+v\n  got:  %+v", label, bs, gs)
	}
	if bi, gi := base.res.Instance.String(), got.res.Instance.String(); bi != gi {
		t.Errorf("%s: instances differ (%d vs %d atoms)", label, base.res.Instance.Len(), got.res.Instance.Len())
	}
}

// requireEquivalent asserts the cross-evaluation-strategy contract, which is
// weaker than the bit-identical one: naive full re-matching can reach
// the fixpoint in fewer rounds than delta seeding (a rule's same-round
// output is visible to the next full scan but only enters the delta one
// round later), and the rule that first derives a shared fact can shift with
// it — so rounds, trigger counts, and per-rule attribution are allowed to
// differ. What must agree: the fixpoint itself (ground part exactly, nulls
// up to renaming — invention order differs, so names may be permuted) and
// the typed error outcome. Depth-truncated runs are excluded: truncation
// cuts at a null-depth assignment that depends on which derivation path won,
// so the reachable fixpoints legitimately diverge.
func requireEquivalent(t *testing.T, label string, a, b diffOutcome) {
	t.Helper()
	if ok, why := sameError(a.err, b.err); !ok {
		t.Errorf("%s: %s", label, why)
		return
	}
	if a.res == nil || b.res == nil || a.err != nil {
		return
	}
	if a.res.Stats.DepthTruncated || b.res.Stats.DepthTruncated {
		return
	}
	if !a.res.Instance.GroundPart().Equal(b.res.Instance.GroundPart()) {
		t.Errorf("%s: ground parts differ", label)
	}
	if an, bn := len(a.res.Instance.Nulls()), len(b.res.Instance.Nulls()); an != bn {
		t.Errorf("%s: null counts differ: %d vs %d", label, an, bn)
	}
	if af, bf := a.res.Stats.FactsDerived, b.res.Stats.FactsDerived; af != bf {
		t.Errorf("%s: facts derived differ: %d vs %d", label, af, bf)
	}
}

// injectedSomewhere reports whether any outcome carries an injected fault —
// the process-global TRIQ_FAULTS plan counts hits across runs, so an armed
// probabilistic fault trips at different points in different configurations
// and the case is not comparable.
func injectedSomewhere(outs ...diffOutcome) bool {
	for _, o := range outs {
		if o.err != nil && errors.Is(o.err, limits.ErrInjected) {
			return true
		}
	}
	return false
}

func TestDifferentialEngines(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946}
	if testing.Short() {
		seeds = seeds[:6]
	}
	if env := os.Getenv("TRIQ_DIFF_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad TRIQ_DIFF_SEED %q: %v", env, err)
		}
		seeds = []int64{n}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c, err := genDiffCase(seed)
			if err != nil {
				t.Fatalf("seed=%d: %v", seed, err)
			}
			semi, naive := runDiff(c, false), runDiff(c, true)
			if injectedSomewhere(semi, naive) {
				t.Skipf("seed=%d: injected fault (TRIQ_FAULTS armed); case not comparable", seed)
			}
			requireEquivalent(t, fmt.Sprintf("seed=%d semi-naive≡naive", seed), semi, naive)
			if t.Failed() {
				t.Logf("replay: TRIQ_DIFF_SEED=%d go test -run 'TestDifferentialEngines' ./internal/chase\nprogram (db: %d facts):\n%s",
					seed, c.db.Len(), c.source)
			}
		})
	}
}

// splitLayers rebuilds db as a layer holding the later half of every
// predicate's atoms over a base holding the earlier half. A run over it
// cannot start from an overlay (a base must be flat), so it flattens the
// input first and chases a flat instance.
func splitLayers(db *Instance) *Instance {
	base, rest := NewInstance(), []datalog.Atom(nil)
	for _, r := range db.rels {
		for k, a := range r.atoms(db) {
			if k < r.n/2 {
				base.Add(a)
			} else {
				rest = append(rest, a)
			}
		}
	}
	l := base.Overlay()
	for _, a := range rest {
		l.Add(a)
	}
	return l
}

// TestDifferentialLayeredVsFlat is the layered-vs-flat axis: the engine
// chasing its own layer over the untouched database must reproduce, bit for
// bit, the engine chasing a flat private copy — instance, null names, Stats,
// and the point where an armed fault plan trips.
func TestDifferentialLayeredVsFlat(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c, err := genDiffCase(seed)
			if err != nil {
				t.Fatal(err)
			}
			flatInput := splitLayers(c.db)
			if !flatInput.Equal(c.db) || flatInput.base == nil {
				t.Fatal("splitLayers must return a layered copy of the database")
			}
			// tripAfter < 0 runs without a plan; the others abort at
			// the chase.rule hit of that number.
			for _, tripAfter := range []int{-1, 2, 5 + int(seed%9)} {
				run := func(db *Instance) diffOutcome {
					opts := Options{MaxDepth: 3, MaxFacts: 50_000, MaxRounds: 1_000}
					if tripAfter >= 0 {
						opts.Faults = limits.NewPlan(limits.Fault{Point: "chase.rule", After: tripAfter})
					}
					res, err := RunCtx(context.Background(), db, c.program, opts)
					return diffOutcome{res: res, err: err}
				}
				layered, flat := run(c.db), run(flatInput)
				if tripAfter < 0 && injectedSomewhere(layered, flat) {
					t.Skipf("seed=%d: injected fault (TRIQ_FAULTS armed); case not comparable", seed)
				}
				if layered.res.Instance.base != c.db || flat.res.Instance.base != nil {
					t.Fatal("the axis is not exercising a layered and a flat engine instance")
				}
				requireIdentical(t, fmt.Sprintf("seed=%d trip=%d layered≡flat", seed, tripAfter), flat, layered)
				if t.Failed() {
					t.Logf("program (db: %d facts):\n%s", c.db.Len(), c.source)
					return
				}
			}
		})
	}
}

// deepKits are what makes deepening deepen, one per seed in turn, ahead of
// the sampled rules: existential recursion through a null (s2 nests without
// end, so the chase is never exact) under a negated predicate that grows with
// every depth step (t2); a chain that reaches a constant-only fact only at
// depth 3 (deep), negated above, so a shallow step derives shallow(x) facts
// that a deeper bound has to take back; the positive halves of both; and the
// two together with nothing to take back (z0 is empty), so the step that starts
// over differs from the one before it only by the deep(x) facts the abandoned
// engine had already derived when it gave up.
var deepKits = []string{
	`e0(?X, ?Y) -> s2(?X, ?V).
s2(?X, ?V) -> s2(?V, ?W).
s2(?X, ?V) -> t2(?X).
e0(?X, ?Y), not t2(?Y) -> u(?X).
u(?X), e1(?X, ?Y) -> p(?X, ?Y).
`,
	`e1(?X, ?Y) -> d1(?X, ?V).
d1(?X, ?V) -> d2(?X, ?V, ?W).
d2(?X, ?V, ?W) -> d3(?X, ?W, ?Z).
d3(?X, ?W, ?Z) -> deep(?X).
e0(?X, ?Y), not deep(?X) -> shallow(?X).
shallow(?X), e0(?X, ?Y) -> q(?X, ?Y).
`,
	`e0(?X, ?Y) -> s2(?X, ?V).
s2(?X, ?V) -> s2(?V, ?W).
s2(?X, ?V), e1(?X, ?Y) -> q(?X, ?Y).
e1(?X, ?Y) -> d1(?X, ?V).
d1(?X, ?V) -> d2(?X, ?V, ?W).
d2(?X, ?V, ?W) -> d3(?X, ?W, ?Z).
d3(?X, ?W, ?Z) -> r(?X).
`,
	`e0(?X, ?Y) -> s2(?X, ?V).
s2(?X, ?V) -> s2(?V, ?W).
e1(?X, ?Y) -> d1(?X, ?V).
d1(?X, ?V) -> d2(?X, ?V, ?W).
d2(?X, ?V, ?W) -> d3(?X, ?W, ?Z).
d3(?X, ?W, ?Z) -> deep(?X).
z0(?X), not deep(?X) -> shallow(?X).
`,
}

// canonicalInstance renders a Skolem-mode engine's instance with every null
// replaced by its Skolem term — the rule, the existential variable and the
// (recursively expanded) frontier binding that invented it — so two engines
// that invented the same nulls in a different order, under different names,
// render identically.
func canonicalInstance(e *engine) string {
	keyOf := e.nullKeys()
	nullTag := string(rune('0' + datalog.Null))
	term := make(map[string]string)
	var expand func(name string) string
	expand = func(name string) string {
		if t, ok := term[name]; ok {
			return t
		}
		parts := strings.Split(keyOf[name], "|")
		for i := 2; i < len(parts); i++ {
			if strings.HasPrefix(parts[i], nullTag) {
				parts[i] = expand(parts[i][1:])
			}
		}
		term[name] = "f(" + strings.Join(parts, ",") + ")"
		return term[name]
	}
	var lines []string
	for _, a := range e.inst.All() {
		args := make([]string, len(a.Args))
		for i, t := range a.Args {
			if args[i] = t.Name; t.IsNull() {
				args[i] = expand(t.Name)
			}
		}
		lines = append(lines, a.Pred+"("+strings.Join(args, ",")+")")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestDifferentialResumeVsRestart is the resumed-vs-restarted axis: a
// deepening evaluation that keeps one engine across its depth steps must
// return what restarting the chase from the database at every depth returns.
// Two levels are compared over random warded programs with existential
// recursion and negation above it, × {semi-naive, naive}:
//
//   - the engine, stepped through depths 2, 4, 6, 7 with the bound raised in
//     between, against a new engine chasing straight to that depth: the same
//     Exact and ground part at every depth and the same instance up to null
//     renaming with the same FactsDerived and NullsInvented; an engine that
//     reports errNegatedGrew is replaced, as StableGroundCtx does;
//   - StableGroundCtx against restartStableGround: Ground (so every answer),
//     Exact, Inconsistent, Depth and the fact and null counters.
func TestDifferentialResumeVsRestart(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597}
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
	deepened, restarted := new(atomic.Int64), new(atomic.Int64)
	t.Run("seeds", func(t *testing.T) {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				c, err := genDiffCaseWith(seed, deepKits[seed%int64(len(deepKits))])
				if err != nil {
					t.Fatal(err)
				}
				for _, naive := range []bool{false, true} {
					opts := Options{MaxDepth: 7, MaxFacts: 50_000, MaxRounds: 1_000, NaiveEvaluation: naive}
					label := fmt.Sprintf("seed=%d naive=%v", seed, naive)
					diffEngineSteps(t, label, c, opts, restarted)
					diffStableGround(t, label, c, opts, deepened)
					if t.Failed() {
						t.Logf("replay: TRIQ_DIFF_SEED=%d go test -run TestDifferentialResumeVsRestart ./internal/chase\nprogram (db: %d facts):\n%s",
							seed, c.db.Len(), c.source)
						return
					}
				}
			})
		}
	})
	t.Logf("%d evaluations deepened, %d engine steps started over", deepened.Load(), restarted.Load())
	if os.Getenv("TRIQ_DIFF_SEED")+os.Getenv("TRIQ_FAULTS") == "" && !t.Failed() && (deepened.Load() == 0 || restarted.Load() == 0) {
		t.Errorf("the generator no longer exercises the axis: %d evaluations deepened, %d steps started over",
			deepened.Load(), restarted.Load())
	}
}

// diffEngineSteps is the engine-level half of TestDifferentialResumeVsRestart.
func diffEngineSteps(t *testing.T, label string, c diffCase, opts Options, restarted *atomic.Int64) {
	t.Helper()
	opts = opts.withDefaults()
	var resumed *engine
	for _, depth := range []int{2, 4, 6, 7} {
		opts.MaxDepth = depth
		fresh, err := prepare(context.Background(), c.db.Overlay(), c.program, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		wantErr := fresh.step()
		gotErr := errNegatedGrew
		if resumed != nil {
			resumed.opts = opts
			gotErr = resumed.step()
		}
		if gotErr == errNegatedGrew {
			if resumed != nil {
				restarted.Add(1)
			}
			if resumed, err = prepare(context.Background(), c.db.Overlay(), c.program, opts, false); err != nil {
				t.Fatal(err)
			}
			gotErr = resumed.step()
		}
		if errors.Is(wantErr, limits.ErrInjected) || errors.Is(gotErr, limits.ErrInjected) {
			return // TRIQ_FAULTS armed: the process-global plan trips wherever its hit count says
		}
		if wantErr != nil || gotErr != nil {
			t.Errorf("%s depth %d: errors: restart %v, resume %v", label, depth, wantErr, gotErr)
			return
		}
		want, got := fresh.stats, resumed.stats
		wantInc, gotInc := fresh.inst.inconsistent(), resumed.inst.inconsistent()
		if wantInc != gotInc || want.DepthTruncated != got.DepthTruncated {
			t.Errorf("%s depth %d: inconsistent/truncated: restart %v/%v, resume %v/%v",
				label, depth, wantInc, want.DepthTruncated, gotInc, got.DepthTruncated)
		}
		if !fresh.inst.GroundPart().Equal(resumed.inst.GroundPart()) {
			t.Errorf("%s depth %d: ground parts differ", label, depth)
		}
		if want.FactsDerived != got.FactsDerived || want.NullsInvented != got.NullsInvented {
			t.Errorf("%s depth %d: facts/nulls: restart %d/%d, resume %d/%d", label, depth,
				want.FactsDerived, want.NullsInvented, got.FactsDerived, got.NullsInvented)
		}
		if canonicalInstance(fresh) != canonicalInstance(resumed) {
			t.Errorf("%s depth %d: instances differ beyond null renaming", label, depth)
		}
	}
}

// diffStableGround is the StableGroundCtx-level half. An evaluation the closing
// pass ended is held to the ground part alone: it stops at a lower depth than
// the oracle, with fewer facts, and is exact where the oracle's window is not.
func diffStableGround(t *testing.T, label string, c diffCase, opts Options, deepened *atomic.Int64) {
	t.Helper()
	want, wantErr := restartStableGround(c.db, c.program, opts, 2)
	got, gotErr := StableGroundCtx(context.Background(), c.db, c.program, opts)
	if errors.Is(wantErr, limits.ErrInjected) || errors.Is(gotErr, limits.ErrInjected) {
		return
	}
	if wantErr != nil || gotErr != nil {
		t.Errorf("%s: errors: restart %v, resume %v", label, wantErr, gotErr)
		return
	}
	if len(got.Stats.Deepening) > 1 {
		deepened.Add(1)
	}
	if closedByPass(got) {
		if want.Inconsistent || got.Depth > want.Depth || !want.Ground().Equal(got.Ground()) {
			t.Errorf("%s: closed at depth %d; restart: depth %d, inconsistent %v, same ground part %v",
				label, got.Depth, want.Depth, want.Inconsistent, want.Ground().Equal(got.Ground()))
		}
		return
	}
	if want.Exact != got.Exact || want.Inconsistent != got.Inconsistent {
		t.Errorf("%s: exact/inconsistent: restart %v/%v, resume %v/%v", label, want.Exact, want.Inconsistent, got.Exact, got.Inconsistent)
	}
	if !want.Ground().Equal(got.Ground()) {
		t.Errorf("%s: ground parts differ", label)
	}
	if want.Depth != got.Depth {
		t.Errorf("%s: depth: restart %d, resume %d", label, want.Depth, got.Depth)
	}
	if want.Stats.FactsDerived != got.Stats.FactsDerived || want.Stats.NullsInvented != got.Stats.NullsInvented {
		t.Errorf("%s: facts/nulls: restart %d/%d, resume %d/%d", label,
			want.Stats.FactsDerived, want.Stats.NullsInvented, got.Stats.FactsDerived, got.Stats.NullsInvented)
	}
}

// TestDifferentialBudgetTrip pins the abort path: a fact budget that trips
// mid-round aborts before the insertion that would overshoot it, and a second
// run aborts at the identical fact, with an identical partial instance and
// identical truncation counters.
func TestDifferentialBudgetTrip(t *testing.T) {
	prog := datalog.MustParse(`
		edge(?X, ?Y) -> path(?X, ?Y).
		path(?X, ?Y), edge(?Y, ?Z) -> path(?X, ?Z).
	`)
	db := NewInstance()
	for i := 0; i < 120; i++ {
		db.Add(datalog.NewAtom("edge",
			datalog.C("v"+strconv.Itoa(i)), datalog.C("v"+strconv.Itoa(i+1))))
	}
	run := func() diffOutcome {
		res, err := RunCtx(context.Background(), db, prog, Options{MaxFacts: 300})
		return diffOutcome{res: res, err: err}
	}
	base := run()
	if base.err == nil || !errors.Is(base.err, limits.ErrFactBudget) {
		t.Fatalf("expected fact-budget abort, got %v", base.err)
	}
	if n := base.res.Instance.Len(); n != 300 {
		t.Errorf("aborted instance holds %d facts, want the budget of 300", n)
	}
	requireIdentical(t, "budget rerun", base, run())
}
