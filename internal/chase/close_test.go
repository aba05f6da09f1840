package chase

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

// neverClose stands in for the closing pass where a test wants deepening as it
// was before there was one: no pass runs, every step falls through to the
// stability window.
func neverClose(*engine) (bool, bool, error) { return false, false, nil }

// undoneClose runs both rungs of every closing pass to their end — fixpoint or
// first constant-only fact — and undoes each whatever it found, so an
// evaluation restores one mark twice after every step that ends truncated.
func undoneClose(e *engine) (bool, bool, error) {
	m := e.mark()
	for _, kind := range [...]byte{coarseKey, summaryKey} {
		if _, err := e.closingStep(kind); err != nil {
			return false, kind == coarseKey, err
		}
		e.restore(m)
	}
	return false, false, nil
}

// summaryClose is the closing pass before the ladder: rung 2 alone.
func summaryClose(e *engine) (bool, bool, error) {
	m := e.mark()
	closed, err := e.closingStep(summaryKey)
	if !closed && err == nil {
		e.restore(m)
	}
	return closed, false, err
}

// everyRung is the ladder without its memory: every pass starts at rung 1,
// whether or not rung 1 failed after an earlier step.
func everyRung(e *engine) (bool, bool, error) {
	e.coarseFailed = false
	return e.close()
}

// closedByPass reports that the evaluation ended with a closing pass that
// proved its ground part complete.
func closedByPass(gr *GroundResult) bool {
	steps := gr.Stats.Deepening
	return gr.Exact && len(steps) > 0 && steps[len(steps)-1].Closing
}

// requireSameEvaluation asserts that two evaluations are indistinguishable:
// the instance with its null names, the Stats with the per-rule and per-step
// breakdowns, and the verdicts.
func requireSameEvaluation(t *testing.T, label string, want, got *GroundResult) {
	t.Helper()
	if want.Exact != got.Exact || want.Inconsistent != got.Inconsistent || want.Depth != got.Depth {
		t.Errorf("%s: exact/inconsistent/depth %v/%v/%d, want %v/%v/%d", label,
			got.Exact, got.Inconsistent, got.Depth, want.Exact, want.Inconsistent, want.Depth)
	}
	if ws, gs := fmt.Sprintf("%+v", normStats(want.Stats)), fmt.Sprintf("%+v", normStats(got.Stats)); ws != gs {
		t.Errorf("%s: stats differ:\n  want: %s\n  got:  %s", label, ws, gs)
	}
	if want.inst.String() != got.inst.String() {
		t.Errorf("%s: instances differ (%d vs %d atoms)", label, want.inst.Len(), got.inst.Len())
	}
	if want.Ground().String() != got.Ground().String() {
		t.Errorf("%s: ground parts differ", label)
	}
}

// TestDifferentialClosedVsDeepened is the closed-vs-deepened axis, over the
// random programs of TestDifferentialEngines (few deepen) and of
// TestDifferentialResumeVsRestart (all do) × {semi-naive, naive}:
//
//   - an evaluation whose every closing pass is undone, both rungs from one
//     mark, returns, byte for byte, what deepening without a pass returns —
//     instance, null names, Stats, Deepening, depth: restore is exact;
//   - an evaluation a pass closed has the ground part of the chase four levels
//     deeper, and of the deepening that no pass cut short;
//   - one that no pass closed is the deepening without a pass, byte for byte;
//   - where rung 2 alone, the pass before the ladder, closes at depth d, the
//     ladder closes at depth d or less with the same ground part;
//   - skipping rung 1 once it has failed closes where trying it at every pass
//     does, with the same ground part.
func TestDifferentialClosedVsDeepened(t *testing.T) {
	type family struct {
		name  string
		seeds []int64
		kits  []string
	}
	families := []family{
		{"engines", []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946}, []string{""}},
		{"deepening", []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597}, deepKits},
	}
	if env := os.Getenv("TRIQ_DIFF_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad TRIQ_DIFF_SEED %q: %v", env, err)
		}
		for i := range families {
			families[i].seeds = []int64{n}
		}
	} else if testing.Short() {
		for i := range families {
			families[i].seeds = families[i].seeds[:5]
		}
	}
	n := new(closeCounts)
	t.Run("seeds", func(t *testing.T) {
		for _, f := range families {
			for _, seed := range f.seeds {
				t.Run(fmt.Sprintf("%s/seed=%d", f.name, seed), func(t *testing.T) {
					t.Parallel()
					c, err := genDiffCaseWith(seed, f.kits[seed%int64(len(f.kits))])
					if err != nil {
						t.Fatal(err)
					}
					for _, naive := range []bool{false, true} {
						opts := Options{MaxDepth: 7, MaxFacts: 50_000, MaxRounds: 1_000, NaiveEvaluation: naive}
						diffClosed(t, fmt.Sprintf("%s seed=%d naive=%v", f.name, seed, naive), c, opts, n)
						if t.Failed() {
							t.Logf("replay: TRIQ_DIFF_SEED=%d go test -run TestDifferentialClosedVsDeepened ./internal/chase\nprogram (db: %d facts):\n%s",
								seed, c.db.Len(), c.source)
							return
						}
					}
				})
			}
		}
	})
	coarse, summary, undone, alone := n.coarse.Load(), n.summary.Load(), n.undone.Load(), n.alone.Load()
	t.Logf("%d evaluations closed (%d on rung 1, %d on rung 2), %d rungs undone; rung 2 alone closes %d",
		coarse+summary, coarse, summary, undone, alone)
	// A rung undone means rung 1 failed there: rung 2 runs only after it.
	if os.Getenv("TRIQ_DIFF_SEED")+os.Getenv("TRIQ_FAULTS") == "" && !t.Failed() && (coarse == 0 || undone == 0) {
		t.Errorf("the generator no longer exercises the axis: rung 1 closed %d evaluations, %d rungs were undone", coarse, undone)
	}
}

// closeCounts tallies TestDifferentialClosedVsDeepened: the evaluations the
// ladder closed on rung 1 and on rung 2, the rungs it undid, and the
// evaluations rung 2 alone closes.
type closeCounts struct{ coarse, summary, undone, alone atomic.Int64 }

func diffClosed(t *testing.T, label string, c diffCase, opts Options, n *closeCounts) {
	t.Helper()
	ctx := context.Background()
	o := obs.New()
	counted := opts
	counted.Obs = o
	got, gotErr := StableGroundCtx(ctx, c.db, c.program, counted)
	parent, parentErr := stableGround(ctx, c.db, c.program, opts, 2, neverClose)
	undone, undoneErr := stableGround(ctx, c.db, c.program, opts, 2, undoneClose)
	alone, aloneErr := stableGround(ctx, c.db, c.program, opts, 2, summaryClose)
	every, everyErr := stableGround(ctx, c.db, c.program, opts, 2, everyRung)
	for _, err := range []error{gotErr, parentErr, undoneErr, aloneErr, everyErr} {
		if errors.Is(err, limits.ErrInjected) {
			return // TRIQ_FAULTS armed: the process-global plan trips wherever its hit count says
		}
		if err != nil {
			t.Errorf("%s: %v", label, err)
			return
		}
	}
	n.undone.Add(o.Registry().Counter("chase.closing_failed"))
	requireSameEvaluation(t, label+": every pass undone ≡ no pass", parent, undone)
	if closedByPass(alone) {
		n.alone.Add(1)
		if !closedByPass(got) || got.Depth > alone.Depth || !got.Ground().Equal(alone.Ground()) {
			t.Errorf("%s: rung 2 alone closes at depth %d; the ladder: closed %v at depth %d, same ground part %v",
				label, alone.Depth, closedByPass(got), got.Depth, got.Ground().Equal(alone.Ground()))
		}
	}
	if closedByPass(every) != closedByPass(got) || every.Depth != got.Depth || !every.Ground().Equal(got.Ground()) {
		t.Errorf("%s: skipping rung 1 once it failed moved the close: closed %v at depth %d, with rung 1 at every pass %v at depth %d",
			label, closedByPass(got), got.Depth, closedByPass(every), every.Depth)
	}
	if !closedByPass(got) {
		requireSameEvaluation(t, label+": no pass closed ≡ no pass", parent, got)
		return
	}
	if steps := got.Stats.Deepening; steps[len(steps)-1].Coarse {
		n.coarse.Add(1)
	} else {
		n.summary.Add(1)
	}
	deeper := opts
	deeper.MaxDepth = got.Depth + 4
	far, err := RunCtx(context.Background(), c.db, c.program, deeper)
	if errors.Is(err, limits.ErrInjected) {
		return
	}
	if err != nil {
		t.Errorf("%s: %v", label, err)
		return
	}
	if farGround := far.Instance.GroundPart(); got.Inconsistent || far.Inconsistent || !got.Ground().Equal(farGround) {
		t.Errorf("%s: closed at depth %d, but the chase to depth %d has another ground part (%d vs %d atoms)",
			label, got.Depth, deeper.MaxDepth, got.Ground().Len(), farGround.Len())
	}
	if !got.Ground().Equal(parent.Ground()) {
		t.Errorf("%s: closed at depth %d, but deepening to depth %d has another ground part", label, got.Depth, parent.Depth)
	}
}

// TestRestoreIsRepeatable: one mark, restored after each rung of a closing
// pass, leaves the engine as it was at the mark both times, and the engine then
// steps on as one that never ran a pass. (restore used to install the mark's
// own map and slice, which the second rung then wrote through.)
func TestRestoreIsRepeatable(t *testing.T) {
	db := NewInstance(atom("p", "a"), atom("p", "b"))
	prog := datalog.MustParse(depthChain)
	engineAt := func(depths ...int) *engine {
		e, err := prepare(context.Background(), db.Overlay(), prog, Options{}.withDefaults(), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range depths {
			e.opts.MaxDepth = d
			if err := e.step(); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	state := func(e *engine) string {
		return fmt.Sprintf("%s%+v parked=%d", e.inst, normStats(e.snapshotStats()), e.parkedTriggers())
	}
	e := engineAt(2)
	m, want := e.mark(), state(e)
	for _, kind := range []byte{coarseKey, summaryKey} {
		// Both rungs reach goal(·) through the summary null of t, the first with
		// one null for both constants, the second with one per constant.
		closed, err := e.closingStep(kind)
		if err != nil || closed {
			t.Fatalf("rung %c: the pass must fail: closed %v, %v", kind, closed, err)
		}
		e.restore(m)
		if got := state(e); got != want {
			t.Errorf("rung %c: restored engine differs:\n%s\nwant:\n%s", kind, got, want)
		}
	}
	e.opts.MaxDepth = 4
	if err := e.step(); err != nil {
		t.Fatal(err)
	}
	if got, want := state(e), state(engineAt(2, 4)); got != want {
		t.Errorf("the restored engine steps on differently:\n%s\nwant:\n%s", got, want)
	}
}

// mergingChain never ends: r nests a null under a null for ever. Its summary
// null stands for every null beyond the bound, so in the closing pass's model
// it is its own successor — r(s, s) — which no null of the chase is.
const mergingChain = `
	p(?X) -> exists ?Y r(?X, ?Y).
	r(?X, ?Y) -> exists ?Z r(?Y, ?Z).
`

func TestClosingPassFallsBackOnSpuriousGroundFact(t *testing.T) {
	// cyc(a) needs an r-cycle, which only the merged summary null has: the pass
	// derives it, must give up there, and must leave nothing of itself behind.
	db := NewInstance(atom("p", "a"))
	prog := datalog.MustParse(mergingChain + `r(?X, ?Y), r(?Y, ?X), p(?W) -> cyc(?W).`)
	o := obs.New()
	gr, err := StableGroundCtx(context.Background(), db, prog, Options{MaxDepth: 8, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if gr.Exact || gr.Ground().Has(atom("cyc", "a")) || len(gr.inst.AtomsOf("cyc")) != 0 {
		t.Errorf("exact %v; cyc:\n%v", gr.Exact, gr.inst.AtomsOf("cyc"))
	}
	parent, err := stableGround(context.Background(), db, prog, Options{MaxDepth: 8}, 2, neverClose)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvaluation(t, "fallback", parent, gr)
	// The window stops it after the probe and depths 2, 4, 6 (it counts neither
	// of the first two). The probe's pass tried both rungs, each later one rung
	// 2 alone.
	if c, f := o.Registry().Counter("chase.closed"), o.Registry().Counter("chase.closing_failed"); c != 0 || f != 5 || gr.Depth != 6 {
		t.Errorf("depth %d, chase.closed = %d, chase.closing_failed = %d; want 6, 0, 5", gr.Depth, c, f)
	}
	// Without the join back to a constant the same chain closes at once: rung 1
	// closes the probe's one parked trigger.
	gr, err = StableGroundCtx(context.Background(), db, datalog.MustParse(mergingChain), Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if steps := gr.Stats.Deepening; !closedByPass(gr) || gr.Depth != 0 || !steps[len(steps)-1].Coarse {
		t.Errorf("the bare chain must close at depth 0 on rung 1: depth %d, steps %+v", gr.Depth, steps)
	}
}

// TestOpenGoals: rung 2 run on to its fixpoint names the constant-only atoms
// the ground part lacks — cyc(a), which only the merged summary null derives —
// and leaves the evaluation as it found it, so asking twice gets the same
// goals and the result is still the deepening without a pass. An Exact result
// has no goals; one of a program that negates a derived predicate has no model
// to read them off, and one that negates a database predicate does.
func TestOpenGoals(t *testing.T) {
	db := NewInstance(atom("p", "a"))
	cyc := mergingChain + `r(?X, ?Y), r(?Y, ?X), p(?W) -> cyc(?W).`
	gr, err := StableGroundCtx(context.Background(), db, datalog.MustParse(cyc), Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if goals, err := gr.OpenGoals("cyc", "p", "r"); err != nil || fmt.Sprint(goals) != "[cyc(a)]" {
			t.Errorf("open goals %v, %v; want [cyc(a)]", goals, err)
		}
	}
	parent, err := stableGround(context.Background(), db, datalog.MustParse(cyc), Options{MaxDepth: 8}, 2, neverClose)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvaluation(t, "after OpenGoals", parent, gr)

	closed, err := StableGroundCtx(context.Background(), db, datalog.MustParse(mergingChain), Options{})
	if goals, gerr := closed.OpenGoals("r"); err != nil || !closed.Exact || goals != nil || gerr != nil {
		t.Errorf("a closed evaluation: exact %v, goals %v, %v", closed.Exact, goals, gerr)
	}
	neg, err := StableGroundCtx(context.Background(), db, datalog.MustParse(cyc+`p(?X), not cyc(?X) -> t(?X).`), Options{MaxDepth: 8})
	if _, gerr := neg.OpenGoals("t"); err != nil || neg.Exact || gerr == nil {
		t.Errorf("negation: exact %v, OpenGoals error %v", neg.Exact, gerr)
	}
	// stop is the database's: the model reads it as the chase does, so the goal
	// stays open without stop(a), and with it nothing is open and the pass closes.
	edb := datalog.MustParse(mergingChain + `r(?X, ?Y), r(?Y, ?X), p(?W), not stop(?W) -> cyc(?W).`)
	open, err := StableGroundCtx(context.Background(), db, edb, Options{MaxDepth: 8})
	if goals, gerr := open.OpenGoals("cyc"); err != nil || open.Exact || fmt.Sprint(goals) != "[cyc(a)]" || gerr != nil {
		t.Errorf("negated database predicate: exact %v, goals %v, %v; want [cyc(a)]", open.Exact, goals, gerr)
	}
	stopped, err := StableGroundCtx(context.Background(), NewInstance(atom("p", "a"), atom("stop", "a")), edb, Options{MaxDepth: 8})
	if err != nil || !closedByPass(stopped) {
		t.Errorf("negated database predicate that blocks: %v, steps %+v", err, stopped.Stats.Deepening)
	}
}

func TestClosingPassDoesNotReportTop(t *testing.T) {
	// The constraint matches r(s, s) only: Π(D) is consistent, the pass's model
	// is not, and that is the model's fault.
	db := NewInstance(atom("p", "a"))
	prog := datalog.MustParse(mergingChain + `r(?X, ?X) -> false.`)
	o := obs.New()
	gr, err := StableGroundCtx(context.Background(), db, prog, Options{MaxDepth: 8, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if gr.Inconsistent || gr.Exact || gr.inst.Has(datalog.NewAtom("r", datalog.N("n2"), datalog.N("n2"))) {
		t.Errorf("inconsistent %v, exact %v", gr.Inconsistent, gr.Exact)
	}
	// Four steps (the probe, 2, 4, 6): two rungs undone after the probe, rung 2
	// alone after each of the others.
	if f := o.Registry().Counter("chase.closing_failed"); f != 5 {
		t.Errorf("chase.closing_failed = %d, want 5", f)
	}
	parent, err := stableGround(context.Background(), db, prog, Options{MaxDepth: 8}, 2, neverClose)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvaluation(t, "fallback", parent, gr)
}

// TestClosingPassClimbsToRung2 is the spurious ⊥ of the coarse key: rung 1
// gives alice's and bob's witnesses one summary null, so it is a course and a
// lecture at once and the disjointness constraint matches through it. Rung 1 is
// undone, and rung 2, one null per constant, closes the probe.
func TestClosingPassClimbsToRung2(t *testing.T) {
	db := NewInstance(atom("a", "alice", "teaches"), atom("a", "bob", "attends"),
		atom("rng", "teaches", "course"), atom("rng", "attends", "lecture"), atom("disj", "course", "lecture"))
	prog := datalog.MustParse(`
		a(?X, ?P) -> exists ?Z e(?X, ?P, ?Z).
		e(?X, ?P, ?Z), rng(?P, ?C) -> type(?Z, ?C).
		type(?N, ?A), type(?N, ?B), disj(?A, ?B) -> false.
	`)
	o := obs.New()
	gr, err := StableGroundCtx(context.Background(), db, prog, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	steps := gr.Stats.Deepening
	if !closedByPass(gr) || gr.Inconsistent || gr.Depth != 0 || steps[len(steps)-1].Coarse || gr.Stats.NullsInvented != 2 {
		t.Errorf("want a consistent evaluation closed on rung 2 at depth 0 with two nulls: depth %d, inconsistent %v, %d nulls, steps %+v",
			gr.Depth, gr.Inconsistent, gr.Stats.NullsInvented, steps)
	}
	if f := o.Registry().Counter("chase.closing_failed"); f != 1 {
		t.Errorf("chase.closing_failed = %d, want 1: rung 1", f)
	}
}

func TestClosingPassPreconditions(t *testing.T) {
	db := NewInstance(atom("p", "a"), atom("q", "a"))
	calls := 0
	counting := func(e *engine) (bool, bool, error) {
		calls++
		return e.close()
	}
	for _, tc := range []struct {
		name  string
		src   string
		opts  Options
		calls int
		depth int
	}{
		// ?Y is bound at an affected position only, so the negated atom may see a
		// null, whose truth a summary null would misjudge; no probe either.
		{"non-grounded negation", mergingChain + `r(?X, ?Y), not q(?Y) -> t(?X).`, Options{MaxDepth: 4}, 0, 4},
		// ?X sits in p as well: it is a constant wherever the rule fires.
		{"grounded negation", mergingChain + `p(?X), r(?X, ?Y), not q(?X) -> t(?X).`, Options{MaxDepth: 4}, 1, 0},
		// The chase ends at depth 1, but the probe at depth 0 parks its trigger,
		// and one pass closes that.
		{"terminating chase", `p(?X) -> exists ?Y r(?X, ?Y).`, Options{}, 1, 0},
		// No existential rule: no step ends truncated, and none is a probe.
		{"no existential rule", `p(?X), q(?X) -> r(?X, ?X).`, Options{}, 0, 2},
	} {
		calls = 0
		gr, err := stableGround(context.Background(), db, datalog.MustParse(tc.src), tc.opts, 2, counting)
		if err != nil {
			t.Fatal(err)
		}
		if calls != tc.calls || closedByPass(gr) != (tc.calls > 0) || gr.Depth != tc.depth {
			t.Errorf("%s: %d closing passes, closed %v at depth %d; want %d at depth %d", tc.name, calls, closedByPass(gr), gr.Depth, tc.calls, tc.depth)
		}
	}
}

// TestClosingPassAborts is TestResumedStepAborts for the closing pass: a limit
// that trips inside it surfaces as it does inside a resumed step — the typed
// error, the pass listed as the step that was cut short — and the ground part
// is the one the depth step before it had reached, nothing of the pass's.
func TestClosingPassAborts(t *testing.T) {
	db := NewInstance()
	for i := 0; i < 10; i++ {
		db.Add(atom("p", nodeName(i)))
	}
	// The constant rides along, so the pass has twenty facts to derive. The
	// probe's pass fails on both rungs, at seen(·) one null away; the one after
	// depth 2 skips rung 1, which failed before, and closes on rung 2.
	prog := datalog.MustParse(`
		p(?C) -> exists ?Y r(?C, ?Y, ?C).
		r(?X, ?Y, ?C) -> exists ?Z r(?Y, ?Z, ?C).
		r(?X, ?Y, ?C) -> seen(?C).
	`)
	whole, err := StableGroundCtx(context.Background(), db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := whole.Stats.Deepening
	if !closedByPass(whole) || len(steps) != 3 || steps[2].Coarse || steps[2].NewFacts != 20 || whole.Ground().Len() != 20 {
		t.Fatalf("the program must close at depth 2 with a 20-fact pass on rung 2: %+v", steps)
	}
	probe, first := steps[0], steps[1]
	// Rounds and rule turns before the pass at depth 2: the probe takes one
	// round of three rule turns, each of its undone rungs two rounds, the
	// depth-2 step three.
	const rounds, turns = 1 + 2*2 + 3, 3 * (1 + 2*2 + 3)
	for _, tc := range []struct {
		name string
		kind error
		arm  func(*Options, context.CancelFunc)
	}{
		{"facts", limits.ErrFactBudget, func(o *Options, _ context.CancelFunc) { o.MaxFacts = db.Len() + probe.NewFacts + first.NewFacts + 5 }},
		{"canceled", limits.ErrCanceled, func(o *Options, cancel context.CancelFunc) {
			o.Faults = limits.NewPlan(limits.Fault{Point: "chase.round", After: rounds, Action: limits.ActHook, Hook: cancel})
		}},
		{"fault", limits.ErrInjected, func(o *Options, _ context.CancelFunc) {
			o.Faults = limits.NewPlan(limits.Fault{Point: "chase.rule", After: turns + 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var opts Options
			tc.arm(&opts, cancel)
			gr, err := StableGroundCtx(ctx, db, prog, opts)
			cancel()
			if !errors.Is(err, tc.kind) {
				t.Fatalf("want %v, got %v", tc.kind, err)
			}
			if _, ok := limits.TruncationOf(err); !ok {
				t.Error("the error carries no Truncation")
			}
			steps := gr.Stats.Deepening
			if gr.Exact || gr.Depth != 2 || len(steps) != 3 || !steps[2].Closing || steps[2].Coarse || steps[0] != probe || steps[1] != first {
				t.Fatalf("the abort must hit the closing pass: depth %d, steps %+v", gr.Depth, steps)
			}
			if steps[2].NewGround != 0 || !gr.Ground().Equal(whole.Ground()) {
				t.Errorf("the partial ground part is not the depth step's:\n%v", gr.Ground())
			}
			if gr.Stats.FactsDerived != probe.NewFacts+first.NewFacts+steps[2].NewFacts {
				t.Errorf("%d facts, steps %+v", gr.Stats.FactsDerived, steps)
			}
			if opts.MaxFacts > 0 && gr.inst.Len() > opts.MaxFacts {
				t.Errorf("%d atoms overshoot the fact budget of %d", gr.inst.Len(), opts.MaxFacts)
			}
		})
	}
}

// TestLayerTruncate: truncate leaves an instance that cannot be told from one
// that never held the atoms added after the mark, dictionaries included.
func TestLayerTruncate(t *testing.T) {
	base := NewInstance(atom("e", "a", "b"), atom("e", "b", "c"))
	build := func(flat bool) *Instance {
		i := base.Overlay()
		if flat {
			i = base.Clone()
		}
		i.Add(atom("e", "c", "d"))
		i.Add(atom("f", "d"))
		return i
	}
	later := []datalog.Atom{
		atom("e", "d", "a"),
		datalog.NewAtom("e", datalog.C("d"), datalog.N("n0")),
		datalog.NewAtom("g", datalog.N("n0"), datalog.N("n0")),
		atom("f", "x"),
	}
	for _, flat := range []bool{false, true} {
		want, got := build(flat), build(flat)
		m := got.mark()
		for _, a := range later {
			got.Add(a)
		}
		got.truncate(m)
		for _, a := range later {
			if got.Has(a) || len(got.Lookup(a.Pred, 0, a.Args[0])) != len(want.Lookup(a.Pred, 0, a.Args[0])) {
				t.Errorf("flat=%v: %v survived the truncation", flat, a)
			}
		}
		if fingerprint(got) != fingerprint(want) || got.Len() != want.Len() || got.hasNull ||
			len(got.termID) != len(want.termID) || len(got.predID) != len(want.predID) || len(got.rels) != len(want.rels) {
			t.Errorf("flat=%v: truncated instance differs:\n%s\nwant:\n%s", flat, fingerprint(got), fingerprint(want))
		}
		// What is added next lands where it would have landed.
		for _, i := range []*Instance{want, got} {
			i.Add(atom("g", "y", "a"))
			i.Add(atom("e", "c", "y"))
		}
		if fingerprint(got) != fingerprint(want) || got.termID[datalog.C("y")] != want.termID[datalog.C("y")] || got.predID["g"] != want.predID["g"] {
			t.Errorf("flat=%v: the instances diverge after the truncation", flat)
		}
	}
}
