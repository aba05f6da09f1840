package triq

import (
	"context"
	"errors"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
)

// limitsChainSrc is a positive chain program: each chase round derives one
// new step fact, so budgets cut it at a predictable point.
const limitsChainSrc = `
	start(?X) -> step(?X, ?X).
	step(?X, ?Y), edge(?Y, ?Z) -> step(?X, ?Z).
	step(?X, ?Y) -> query(?X, ?Y).
`

func limitsChainDB(n int) *chase.Instance {
	db := chase.NewInstance(atom("start", "c0"))
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"}
	for i := 0; i+1 <= n; i++ {
		db.Add(atom("edge", names[i], names[i+1]))
	}
	return db
}

func TestEvalDegradesToPartialAnswersOnBudget(t *testing.T) {
	q := datalog.Query{Program: datalog.MustParse(limitsChainSrc), Output: "query"}
	full, err := Eval(limitsChainDB(8), q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	opts.Chase.MaxRounds = 3
	res, err := Eval(limitsChainDB(8), q, TriQLite10, opts)
	if err != nil {
		t.Fatalf("budget trips must degrade, not error: %v", err)
	}
	if !res.Incomplete {
		t.Fatal("budget-tripped Eval must set Incomplete")
	}
	if res.Truncation == nil || res.Truncation.Limit != limits.LimitRounds {
		t.Fatalf("Truncation = %+v, want rounds", res.Truncation)
	}
	if len(res.Answers.Tuples) == 0 || len(res.Answers.Tuples) >= len(full.Answers.Tuples) {
		t.Fatalf("partial answers = %d, full = %d; want proper non-empty subset",
			len(res.Answers.Tuples), len(full.Answers.Tuples))
	}
	// Soundness: every partial answer is a certain answer of the full run.
	for _, tup := range res.Answers.Tuples {
		if !full.Answers.Has(tup...) {
			t.Fatalf("partial answer %v is not a certain answer", tup)
		}
	}
}

func TestEvalCanceledContextReturnsTypedError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := datalog.Query{Program: datalog.MustParse(limitsChainSrc), Output: "query"}
	_, err := EvalCtx(ctx, limitsChainDB(8), q, TriQLite10, Options{})
	if !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestProveCtxCancelStopsWithinOneExpansion(t *testing.T) {
	db := chase.NewInstance(atom("s", "a", "a", "a"), atom("t", "a"))
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the search at the first component expansion; the
	// prover must notice before expanding another component.
	plan := limits.NewPlan(limits.Fault{Point: "prover.expand", Action: limits.ActHook, Hook: cancel})
	pv, err := NewProver(db, datalog.MustParse(example610Src), ProofOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = pv.ProveCtx(ctx, atom("p", "a", "a"))
	if !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	tr, ok := limits.TruncationOf(err)
	if !ok {
		t.Fatal("canceled proof search must carry a Truncation")
	}
	// "Within one expansion": the visit on which the hook fired is the last.
	if tr.Visits > 1 {
		t.Fatalf("search continued after cancellation: %d visits", tr.Visits)
	}
}

func TestProveCtxVisitBudgetTypedError(t *testing.T) {
	db := chase.NewInstance(atom("s", "a", "a", "a"), atom("t", "a"))
	pv, err := NewProver(db, datalog.MustParse(example610Src), ProofOptions{MaxVisits: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = pv.ProveCtx(context.Background(), atom("p", "a", "a"))
	if !errors.Is(err, limits.ErrVisitBudget) {
		t.Fatalf("want ErrVisitBudget, got %v", err)
	}
	if tr, ok := limits.TruncationOf(err); !ok || tr.Limit != limits.LimitVisits {
		t.Fatalf("want visits truncation, got %+v (ok=%v)", tr, ok)
	}
}

func TestProverMemoFaultPoint(t *testing.T) {
	db := chase.NewInstance(atom("s", "a", "a", "a"), atom("t", "a"))
	plan := limits.NewPlan(limits.Fault{Point: "prover.memo", Action: limits.ActError})
	pv, err := NewProver(db, datalog.MustParse(example610Src), ProofOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = pv.ProveCtx(context.Background(), atom("p", "a", "a"))
	if !errors.Is(err, limits.ErrInjected) {
		t.Fatalf("want ErrInjected from prover.memo, got %v", err)
	}
}

// TestEvalExactDegradesOnVisitBudget: the budget trips inside the proof of the
// open goal q(a), which the chase of the deep chain cannot reach.
func TestEvalExactDegradesOnVisitBudget(t *testing.T) {
	db, src := deepChain()
	q := datalog.MustParseQuery(src, "q")
	opts := Options{MaxVisits: 1}
	res, err := EvalExactCtx(context.Background(), db, q, opts)
	skipInjected(t, err)
	if err != nil {
		t.Fatalf("visit-budget trips must degrade, not error: %v", err)
	}
	if !res.Incomplete || res.Exact {
		t.Fatalf("degraded exact run must set Incomplete and clear Exact: %+v", res)
	}
	if res.Truncation == nil || res.Truncation.Limit != limits.LimitVisits {
		t.Fatalf("Truncation = %+v, want visits", res.Truncation)
	}
	// Full run for comparison: the partial answers must be a subset.
	fullRes, err := EvalExactCtx(context.Background(), db, q, Options{})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	if !fullRes.Exact || !fullRes.Answers.HasConstants("a") {
		t.Fatalf("the full run must prove q(a): %+v", fullRes)
	}
	for _, tup := range res.Answers.Tuples {
		if !fullRes.Answers.Has(tup...) {
			t.Fatalf("degraded exact answer %v is not a certain answer", tup)
		}
	}
}
