package chase

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

func TestGroundSemanticsExactOnTerminatingChase(t *testing.T) {
	db := NewInstance(atom("e", "a", "b"), atom("e", "b", "c"))
	gr, err := GroundSemantics(db, datalog.MustParse(`
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
	`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Exact {
		t.Error("terminating chase must be exact")
	}
	if !gr.Ground().Has(atom("tc", "a", "c")) {
		t.Error("missing tc(a,c)")
	}
}

func TestStableGroundOnInfiniteWardedChase(t *testing.T) {
	// The canonical warded program with an infinite chase: ground atoms are
	// nevertheless finite. e(a,b); e(X,Y) → ∃Z e(Y,Z); e(X,Y),g(Y) → out(X).
	db := NewInstance(atom("e", "a", "b"), atom("g", "b"))
	prog := datalog.MustParse(`
		e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
		e(?X, ?Y), g(?Y) -> out(?X).
	`)
	if err := datalog.CheckWarded(prog); err != nil {
		t.Fatalf("test program should be warded: %v", err)
	}
	gr, err := StableGround(db, prog, Options{MaxDepth: 40}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Inconsistent {
		t.Fatal("unexpected ⊤")
	}
	if !gr.Ground().Has(atom("out", "a")) {
		t.Error("out(a) missing")
	}
	if gr.Ground().Has(atom("out", "b")) {
		t.Error("out(b) must not be derivable: g holds only for b, e(b,·) leads to nulls")
	}
	// e's ground part is only the database edge.
	if got := len(gr.Ground().AtomsOf("e")); got != 1 {
		t.Errorf("ground e atoms = %d, want 1", got)
	}
}

func TestStableGroundDetectsNewGroundAtomsAtDepth(t *testing.T) {
	// Ground atoms that require chasing through several null levels:
	// a(c) → ∃Z1 p1; p1 → ∃Z2 p2; p2(X,…) joined back on the constant.
	db := NewInstance(atom("a", "c"))
	prog := datalog.MustParse(`
		a(?X) -> exists ?Z p(?X, ?Z).
		p(?X, ?Z) -> exists ?W q(?X, ?Z, ?W).
		q(?X, ?Z, ?W) -> found(?X).
	`)
	gr, err := StableGround(db, prog, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Exact {
		t.Error("acyclic program should terminate exactly")
	}
	if !gr.Ground().Has(atom("found", "c")) {
		t.Error("found(c) missing")
	}
}

func TestStableGroundInconsistency(t *testing.T) {
	db := NewInstance(atom("a", "c"))
	prog := datalog.MustParse(`
		a(?X) -> exists ?Z p(?X, ?Z).
		p(?X, ?Z) -> false.
	`)
	gr, err := StableGround(db, prog, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Inconsistent {
		t.Error("constraint over null-carrying atom should fire")
	}
}

func TestStableGroundGivesUpAtCeiling(t *testing.T) {
	// A chase no bound finishes, under a window that never stops it. (This used
	// to be a chain feeding reach(w, ·): the closing pass proves that one
	// complete at depth 2. It cannot close mergingChain with the cycle rule —
	// its summary null is its own successor, so every pass derives cyc(a) and
	// is undone — and StableGround must stop at the ceiling rather than loop
	// forever.)
	db := NewInstance(atom("p", "a"))
	prog := datalog.MustParse(mergingChain + `r(?X, ?Y), r(?Y, ?X), p(?W) -> cyc(?W).`)
	gr, err := StableGround(db, prog, Options{MaxDepth: 6}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Exact {
		t.Error("infinite chase cannot be exact")
	}
	// The probe at depth 0 comes first.
	if gr.Depth != 6 || len(gr.Stats.Deepening) != 4 {
		t.Errorf("depth %d after steps %+v, want the ceiling of 6 after four", gr.Depth, gr.Stats.Deepening)
	}
}

func TestStableGroundHonorsMaxDepthOne(t *testing.T) {
	// Deepening used to start at depth 2 whatever the ceiling, so a ceiling
	// of 1 invented the null of a null.
	db := NewInstance(atom("p", "a"))
	prog := datalog.MustParse(`
		p(?X) -> exists ?Y r(?X, ?Y).
		r(?X, ?Y) -> p(?Y).
	`)
	opts := Options{MaxDepth: 1}
	res, err := Run(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := StableGround(db, prog, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The probe parks the one trigger and rung 1 closes it with two summary
	// nulls, one for p(a) and one, its own successor, for every null: the
	// evaluation ends at depth 0, under the ceiling, and never invents the null
	// Run does.
	steps := gr.Stats.Deepening
	if gr.Depth != 0 || res.Stats.NullsInvented != 1 || len(steps) != 2 || steps[0].NewFacts != 0 ||
		!closedByPass(gr) || !steps[1].Coarse || gr.Stats.NullsInvented != 2 || gr.Ground().Len() != 1 {
		t.Errorf("StableGround at MaxDepth 1: depth %d, %d nulls, steps %+v; Run invents %d",
			gr.Depth, gr.Stats.NullsInvented, steps, res.Stats.NullsInvented)
	}
	// Where no pass closes, the step after the probe is the ceiling's, not 2's,
	// and ends where Run does.
	gr, err = stableGround(context.Background(), db, prog, opts, 2, neverClose)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Depth != 1 || gr.Stats.NullsInvented != 1 || gr.Stats.FactsDerived != res.Stats.FactsDerived {
		t.Errorf("deepening at MaxDepth 1: depth %d, %d nulls, steps %+v", gr.Depth, gr.Stats.NullsInvented, gr.Stats.Deepening)
	}
}

// depthChain invents a null of depth 1, 2 and 3 in turn and only then reaches
// a constant-only fact, which a constant-only recursion spreads along edge.
const depthChain = `
	p(?X) -> exists ?Y r(?X, ?Y).
	r(?X, ?Y) -> exists ?Z s(?X, ?Y, ?Z).
	s(?X, ?Y, ?Z) -> exists ?W t(?X, ?Z, ?W).
	t(?X, ?Z, ?W) -> goal(?X).
	goal(?X), edge(?X, ?Y) -> goal(?Y).
`

func TestStableGroundReachesOddCeilings(t *testing.T) {
	// Deepening used to step 2, 4, 6, … and give up once the next even depth
	// passed the ceiling, so an odd ceiling was never chased: MaxDepth 3
	// returned the depth-2 result, without goal(a), although Run under the
	// same options derives it.
	db := NewInstance(atom("p", "a"))
	prog := datalog.MustParse(depthChain)
	for _, tc := range []struct{ ceiling, depth int }{{3, 3}, {4, 4}, {5, 4}} {
		opts := Options{MaxDepth: tc.ceiling}
		res, err := Run(db, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DepthTruncated || !res.Instance.Has(atom("goal", "a")) {
			t.Fatalf("MaxDepth %d: Run must reach goal(a) untruncated", tc.ceiling)
		}
		gr, err := StableGround(db, prog, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Depth != tc.depth || !gr.Exact || !gr.Ground().Has(atom("goal", "a")) {
			t.Errorf("MaxDepth %d: depth %d exact %v goal(a) %v, want depth %d, exact, goal(a)",
				tc.ceiling, gr.Depth, gr.Exact, gr.Ground().Has(atom("goal", "a")), tc.depth)
		}
	}
	// A chase that no bound finishes and no pass closes (see
	// TestStableGroundGivesUpAtCeiling) ends at the odd ceiling itself.
	prog = datalog.MustParse(mergingChain + `r(?X, ?Y), r(?Y, ?X), p(?W) -> cyc(?W).`)
	gr, err := StableGround(db, prog, Options{MaxDepth: 5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Depth != 5 || gr.Exact || gr.Stats.NullsInvented != 5 {
		t.Errorf("ceiling 5: depth %d exact %v nulls %d, want depth 5, inexact, 5 nulls", gr.Depth, gr.Exact, gr.Stats.NullsInvented)
	}
}

func TestResumeRefiresParkedTriggers(t *testing.T) {
	db := NewInstance(atom("p", "a"))
	prog := datalog.MustParse(depthChain)
	// Step by step: a trigger the bound blocks is parked (twice here: the
	// rounds that derived s(a,·) and that had it as their delta both matched
	// it), one that is still too deep at the next step parks again, and it
	// fires once the bound allows it — without any rule matching again what
	// it matched in an earlier step.
	e, err := prepare(context.Background(), db.Overlay(), prog, Options{MaxDepth: 2}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		depth, facts, parked int
		truncated, goal      bool
	}{
		{2, 2, 2, true, false}, // r, s; the trigger of t waits
		{2, 2, 2, true, false}, // same bound: it parks again, nothing new
		{3, 4, 0, false, true}, // t and goal(a)
		{4, 4, 0, false, true}, // nothing left to do
	} {
		e.opts.MaxDepth = want.depth
		if _, err := e.step(); err != nil {
			t.Fatal(err)
		}
		if e.stats.FactsDerived != want.facts || e.parkedTriggers() != want.parked ||
			e.stats.DepthTruncated != want.truncated || e.inst.Has(atom("goal", "a")) != want.goal {
			t.Errorf("step %d (depth %d): %d facts, %d parked, truncated %v, goal %v; want %+v", i, want.depth,
				e.stats.FactsDerived, e.parkedTriggers(), e.stats.DepthTruncated, e.inst.Has(atom("goal", "a")), want)
		}
	}
	for _, rs := range e.perRule[:3] {
		if rs.TriggersAttempted > 2 {
			t.Errorf("four steps matched %d triggers of %s; the resumed ones must match none again", rs.TriggersAttempted, rs.Rule)
		}
	}

	// The same through StableGround, whose steps say what they did. It starts
	// with the probe, whose one parked trigger the depth-2 step refires; every
	// round of that step matches a delta, so it finds t's trigger, and parks
	// it, once.
	gr, err := StableGround(db, prog, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Exact || gr.Depth != 4 || !gr.Ground().Has(atom("goal", "a")) {
		t.Errorf("depth %d exact %v", gr.Depth, gr.Exact)
	}
	want := []DeepenStep{
		{Depth: 0, Parked: 1},
		{Depth: 2, Resumed: true, Refired: 1, NewFacts: 2, Parked: 1},
		{Depth: 4, Resumed: true, Refired: 1, NewFacts: 2, NewGround: 1},
	}
	if fmt.Sprint(gr.Stats.Deepening) != fmt.Sprint(want) {
		t.Errorf("steps %+v, want %+v", gr.Stats.Deepening, want)
	}
}

func TestResumeStartsOverWhenNegatedPredicateGrows(t *testing.T) {
	// Under bound 2 goal(a) is out of reach, so bad(a) is derived; bound 4
	// derives goal(a) in the stratum below, and bad(a) must be gone.
	db := NewInstance(atom("p", "a"))
	prog := datalog.MustParse(depthChain + `p(?X), not goal(?X) -> bad(?X).`)
	o := obs.New()
	gr, err := StableGround(db, prog, Options{Obs: o}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Exact || !gr.Ground().Has(atom("goal", "a")) || gr.Ground().Has(atom("bad", "a")) {
		t.Errorf("exact %v, ground part:\n%v", gr.Exact, gr.Ground())
	}
	// The probe and bound 2 both derive bad(a) and share an engine; bound 4
	// starts over.
	steps := gr.Stats.Deepening
	if len(steps) != 3 || !steps[1].Resumed || steps[2].Resumed || steps[2].NewFacts != gr.Stats.FactsDerived {
		t.Errorf("the third step must have started over: %+v (stats: %d facts)", steps, gr.Stats.FactsDerived)
	}
	if got := o.Registry().Counter("chase.deepen_restarts"); got != 1 {
		t.Errorf("chase.deepen_restarts = %d, want 1", got)
	}
	if got := o.Registry().Counter("chase.runs"); got != 2 {
		t.Errorf("chase.runs = %d, want 2: one engine per start", got)
	}
	// The registry counts work done, so it includes the engine given up: bad(a)
	// under the probe and two rungs undone at goal(a), four facts each; r and s
	// under bound 2 and rung 2 undone at goal(a) — which it reached through the
	// summary null of t — two facts (rung 1, undone at the probe, is skipped);
	// then t and goal(a) before the step noticed. Stats describe the engine that
	// produced the result.
	if got, abandoned := o.Registry().Counter("chase.facts_derived"), int64(1+2*4+2+2+2); gr.Stats.FactsDerived != 4 || got != 4+abandoned {
		t.Errorf("chase.facts_derived = %d with Stats.FactsDerived = %d, want 19 and 4", got, gr.Stats.FactsDerived)
	}
	if got := o.Registry().Counter("chase.closing_failed"); got != 3 {
		t.Errorf("chase.closing_failed = %d, want 3", got)
	}
	// Bound 2 alone does derive it, which is what the restart takes back.
	shallow, err := GroundSemantics(db, prog, Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !shallow.Ground().Has(atom("bad", "a")) {
		t.Error("bound 2 must derive bad(a), or the test proves nothing")
	}
}

func TestRestartComparesWithThePreviousStep(t *testing.T) {
	// goal(a) appears under bound 4 and forces the restart, but nothing that
	// negates it changes: bad(b) holds at every depth. The step still changed the
	// ground part — by goal(a), which the abandoned engine had already added when
	// it gave up — so it must not count towards the stability window, or
	// deepening stops before bound 8 reaches goal2(a). Every closing pass up to
	// there fails at goal2(a), which the summary nulls of the d-chain reach at
	// once; the one after bound 8 has only the e-chain left to close and ends the
	// evaluation, exact, where the window alone would go on to bound 12.
	db := NewInstance(atom("p", "a"), atom("q", "a"), atom("w", "b"), atom("e", "a", "b"))
	src := depthChain + `
		w(?X), not goal(?X) -> bad(?X).
		e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
		q(?X) -> exists ?B d1(?X, ?X, ?B).
	`
	for k := 1; k < 7; k++ {
		src += fmt.Sprintf("d%d(?X, ?A, ?B) -> exists ?C d%d(?X, ?B, ?C).\n", k, k+1)
	}
	prog := datalog.MustParse(src + `d7(?X, ?A, ?B) -> goal2(?X).`)
	for _, tc := range []struct {
		window, depth int
		goal2         bool
	}{{1, 6, false}, {2, 8, true}} {
		o := obs.New()
		gr, err := StableGround(db, prog, Options{Obs: o}, tc.window)
		if err != nil {
			t.Fatal(err)
		}
		want, err := restartStableGround(db, prog, Options{}, tc.window)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Depth != tc.depth || gr.Ground().Has(atom("goal2", "a")) != tc.goal2 || !gr.Ground().Has(atom("bad", "b")) {
			t.Errorf("window %d: depth %d, want %d; ground part:\n%v", tc.window, gr.Depth, tc.depth, gr.Ground())
		}
		if closedByPass(gr) != tc.goal2 || gr.Depth != min(want.Depth, 8) || !gr.Ground().Equal(want.Ground()) {
			t.Errorf("window %d: depth %d, closed %v; restarting at every depth gives %d", tc.window, gr.Depth, closedByPass(gr), want.Depth)
		}
		// The probe comes first; bound 2, compared with it, does not count
		// towards the window although it adds no ground atom.
		if steps := gr.Stats.Deepening; steps[0].Depth != 0 || !steps[1].Resumed || steps[1].NewGround != 0 || steps[1].Stable != 0 ||
			steps[2].Resumed || steps[2].Stable != 0 || !steps[3].Resumed || steps[3].Stable != 1 {
			t.Errorf("window %d: steps %+v", tc.window, steps)
		}
		if got := o.Registry().Counter("chase.deepen_restarts"); got != 1 {
			t.Errorf("window %d: chase.deepen_restarts = %d, want 1", tc.window, got)
		}
	}
}

// TestResumedStepAborts is TestDifferentialBudgetTrip for a step that resumes:
// a limit that trips after the first depth step has finished returns the typed
// error with everything derived so far.
func TestResumedStepAborts(t *testing.T) {
	db := NewInstance(atom("p", "v00"))
	for i := 0; i < 12; i++ {
		db.Add(atom("edge", nodeName(i), nodeName(i+1)))
	}
	prog := datalog.MustParse(depthChain)
	// The probe takes one round of five rule turns and no fact; bound 2 three
	// rounds and two facts; the step at bound 4 wants fourteen more facts, one
	// round each. After the probe both rungs of a closing pass fail, after bound
	// 2 rung 2 alone (rung 1 failed before) — goal(v00) is three summary nulls
	// away from the probe, one from bound 2 — and are undone: rounds, rule turns
	// and facts that the limits see and the result does not. Both faults trip two
	// rounds into bound 4, which has derived goal(v00) by then.
	const rounds = 1 + 2*4 + 3 + 2                // before bound 4
	const turns = 5*1 + 2*(5*4-1) + 5*3 + 5*2 - 1 // before bound 4; a rung stops at goal's turn
	for _, tc := range []struct {
		name string
		kind error
		arm  func(*Options, context.CancelFunc)
	}{
		{"facts", limits.ErrFactBudget, func(o *Options, _ context.CancelFunc) { o.MaxFacts = 20 }},
		{"rounds", limits.ErrRoundBudget, func(o *Options, _ context.CancelFunc) { o.MaxRounds = 5 }},
		{"canceled", limits.ErrCanceled, func(o *Options, cancel context.CancelFunc) {
			o.Faults = limits.NewPlan(limits.Fault{Point: "chase.round", After: rounds + 2, Action: limits.ActHook, Hook: cancel})
		}},
		{"fault", limits.ErrInjected, func(o *Options, _ context.CancelFunc) {
			o.Faults = limits.NewPlan(limits.Fault{Point: "chase.rule", After: turns + 2*5})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var opts Options
			tc.arm(&opts, cancel)
			gr, err := StableGroundCtx(ctx, db, prog, opts, 2)
			cancel()
			if !errors.Is(err, tc.kind) {
				t.Fatalf("want %v, got %v", tc.kind, err)
			}
			if _, ok := limits.TruncationOf(err); !ok {
				t.Error("the error carries no Truncation")
			}
			steps := gr.Stats.Deepening
			if gr.Exact || gr.Depth != 4 || len(steps) != 3 || !steps[2].Resumed {
				t.Fatalf("the abort must hit the resumed step: depth %d, steps %+v", gr.Depth, steps)
			}
			// The partial result holds the earlier steps' work and more.
			if gr.Stats.FactsDerived <= steps[0].NewFacts+steps[1].NewFacts || !gr.Ground().Has(atom("goal", "v00")) || gr.Ground().Has(atom("goal", nodeName(12))) {
				t.Errorf("partial result: %d facts, ground part:\n%v", gr.Stats.FactsDerived, gr.Ground())
			}
			if opts.MaxFacts > 0 && gr.Ground().Len() > opts.MaxFacts {
				t.Errorf("%d atoms overshoot the fact budget", gr.Ground().Len())
			}
		})
	}
}
