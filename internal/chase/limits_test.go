package chase

import (
	"context"
	"errors"
	"testing"

	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

// chainProgram derives a linear chain next(a0,a1), ..., so each round fires
// exactly one new fact: handy for budget and round assertions.
const chainSrc = `
	start(?X) -> step(?X, ?X).
	step(?X, ?Y), edge(?Y, ?Z) -> step(?X, ?Z).
`

func chainDB(n int) *Instance {
	db := NewInstance(atom("start", nodeName(0)))
	for i := 0; i < n; i++ {
		db.Add(datalog.NewAtom("edge",
			datalog.C(nodeName(i)), datalog.C(nodeName(i+1))))
	}
	return db
}

func nodeName(i int) string {
	return "v" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestFactBudgetReturnsTypedErrorAndPartialInstance(t *testing.T) {
	db := NewInstance(atom("n", "a"), atom("n", "b"), atom("n", "c"))
	prog := datalog.MustParse(`n(?X), n(?Y) -> pair(?X, ?Y).`)
	const budget = 5
	res, err := RunCtx(context.Background(), db, prog, Options{MaxFacts: budget})
	if !errors.Is(err, limits.ErrFactBudget) {
		t.Fatalf("want ErrFactBudget, got %v", err)
	}
	if res == nil || res.Instance == nil {
		t.Fatal("budget abort must return the partial instance")
	}
	if res.Instance.Len() > budget {
		t.Fatalf("instance exceeded the budget: %d > %d", res.Instance.Len(), budget)
	}
	// Everything in the partial instance must be derivable: subset of the
	// unbudgeted run.
	full, ferr := RunCtx(context.Background(), db, prog, Options{})
	if ferr != nil {
		t.Fatal(ferr)
	}
	for _, a := range res.Instance.AtomsOf("pair") {
		if !full.Instance.Has(a) {
			t.Fatalf("partial instance holds underivable atom %v", a)
		}
	}
	tr, ok := limits.TruncationOf(err)
	if !ok {
		t.Fatal("budget error must carry a Truncation")
	}
	if tr.Limit != limits.LimitFacts || tr.Budget != budget {
		t.Fatalf("truncation = %+v, want limit=facts budget=%d", tr, budget)
	}
	if len(tr.PerRule) == 0 {
		t.Error("truncation must carry the per-rule breakdown")
	}
	if tr.Facts == 0 || tr.Elapsed <= 0 {
		t.Errorf("truncation progress not populated: %+v", tr)
	}
}

func TestRoundBudgetReturnsTypedError(t *testing.T) {
	res, err := RunCtx(context.Background(), chainDB(8), datalog.MustParse(chainSrc), Options{MaxRounds: 2})
	if !errors.Is(err, limits.ErrRoundBudget) {
		t.Fatalf("want ErrRoundBudget, got %v", err)
	}
	if res == nil || res.Instance == nil {
		t.Fatal("round abort must return the partial instance")
	}
	full, ferr := RunCtx(context.Background(), chainDB(8), datalog.MustParse(chainSrc), Options{})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if got, want := len(res.Instance.AtomsOf("step")), len(full.Instance.AtomsOf("step")); got >= want {
		t.Fatalf("round budget did not truncate: %d >= %d step facts", got, want)
	}
}

func TestCanceledContextStopsMidRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the engine, right before the second rule
	// application of the run: the chase must stop before the round
	// completes rather than at the next round boundary.
	plan := limits.NewPlan(limits.Fault{
		Point:  "chase.rule",
		After:  1,
		Action: limits.ActHook,
		Hook:   cancel,
	})
	res, err := RunCtx(ctx, chainDB(8), datalog.MustParse(chainSrc), Options{Faults: plan})
	if !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res == nil || res.Instance == nil {
		t.Fatal("cancellation must still return the partial instance")
	}
	if plan.Fires() == 0 {
		t.Fatal("the cancel hook never fired")
	}
	tr, ok := limits.TruncationOf(err)
	if !ok || tr.Limit != limits.LimitCanceled {
		t.Fatalf("want canceled truncation, got %+v (ok=%v)", tr, ok)
	}
}

func TestExpiredDeadlineReturnsErrDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, err := RunCtx(ctx, chainDB(4), datalog.MustParse(chainSrc), Options{})
	if !errors.Is(err, limits.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

func TestInjectedFaultAtRoundBoundary(t *testing.T) {
	plan := limits.NewPlan(limits.Fault{Point: "chase.round", After: 1, Action: limits.ActError})
	res, err := RunCtx(context.Background(), chainDB(8), datalog.MustParse(chainSrc), Options{Faults: plan})
	if !errors.Is(err, limits.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if res == nil || res.Instance == nil {
		t.Fatal("injected abort must return the partial instance")
	}
	if plan.Fires() != 1 {
		t.Fatalf("plan fired %d times, want 1", plan.Fires())
	}
}

func TestGlobalFaultPlanViaEnvSyntax(t *testing.T) {
	plan, err := limits.ParsePlan("chase.round@1=error")
	if err != nil {
		t.Fatal(err)
	}
	defer limits.SetGlobal(plan)()
	_, err = RunCtx(context.Background(), chainDB(8), datalog.MustParse(chainSrc), Options{})
	if !errors.Is(err, limits.ErrInjected) {
		t.Fatalf("want ErrInjected from the global plan, got %v", err)
	}
}

// TestAbortEmitsObsEvent: a budget trip names its limit and the instance size
// on the chase.run span and counts limits.aborted.
func TestAbortEmitsObsEvent(t *testing.T) {
	ctx, tr := recordingCtx()
	o := obs.New()
	_, err := RunCtx(ctx, chainDB(8), datalog.MustParse(chainSrc), Options{MaxRounds: 1, Obs: o})
	if !errors.Is(err, limits.ErrRoundBudget) {
		t.Fatalf("want ErrRoundBudget, got %v", err)
	}
	tru, _ := limits.TruncationOf(err)
	found := false
	for _, sp := range tr.Spans() {
		if sp.Name != "chase.run" {
			continue
		}
		found = true
		if got := spanAttr(sp, "limit"); got != limits.LimitRounds {
			t.Errorf("chase.run limit attr = %v, want %q", got, limits.LimitRounds)
		}
		if got := spanAttr(sp, "facts"); got != tru.Facts {
			t.Errorf("chase.run facts attr = %v, want %d", got, tru.Facts)
		}
	}
	if !found {
		t.Fatal("trace has no chase.run span")
	}
	if got := o.Registry().Counter("limits.aborted"); got != 1 {
		t.Errorf("limits.aborted counter = %d, want 1", got)
	}
}
