package triq

import (
	"context"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/obs"
)

// figure1DB/figure1Prog are the Example 6.10 instance and program (Figure 1).
func figure1DB() *chase.Instance {
	return chase.NewInstance(
		datalog.MustParseAtom("s(a, a, a)"),
		datalog.MustParseAtom("t(a)"),
	)
}

func figure1Prog() *datalog.Program {
	return datalog.MustParse(`
		s(?X, ?Y, ?Z) -> exists ?W s(?X, ?Z, ?W).
		s(?X, ?Y, ?Z), s(?Y, ?Z, ?W) -> q(?X, ?Y).
		t(?X) -> exists ?Z p(?X, ?Z).
		p(?X, ?Y), q(?X, ?Z) -> r(?X, ?Y, ?Z).
		r(?X, ?Y, ?Z) -> p(?X, ?Z).
	`)
}

// TestProverMemoMetrics exercises memoization through the observability
// counters: re-proving an already-memoized goal must register memo hits and
// zero new expansions.
func TestProverMemoMetrics(t *testing.T) {
	ctx, tr := recordingCtx()
	o := obs.New()
	pv, err := NewProver(figure1DB(), figure1Prog(), ProofOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	goal := datalog.MustParseAtom("p(a, a)")
	_, ok, err := pv.ProveCtx(ctx, goal)
	if err != nil || !ok {
		t.Fatalf("p(a,a) should be provable: ok=%v err=%v", ok, err)
	}
	first := pv.Metrics()
	if first.Expansions == 0 || first.Resolutions == 0 || first.MemoMisses == 0 {
		t.Errorf("first proof recorded no search work: %+v", first)
	}
	if first.MaxRecursionDepth == 0 {
		t.Errorf("first proof recorded no recursion depth: %+v", first)
	}
	if first.CanonTime == 0 {
		t.Errorf("canonicalization time not collected with Obs set: %+v", first)
	}

	_, ok, err = pv.ProveCtx(ctx, goal)
	if err != nil || !ok {
		t.Fatalf("re-prove failed: ok=%v err=%v", ok, err)
	}
	second := pv.Metrics()
	if hits := second.MemoHits - first.MemoHits; hits == 0 {
		t.Errorf("re-proving a memoized goal registered no memo hits: first=%+v second=%+v", first, second)
	}
	if exp := second.Expansions - first.Expansions; exp != 0 {
		t.Errorf("re-proving a memoized goal expanded %d new components, want 0", exp)
	}

	// The trace carries one prover.prove span per Prove call with the visit
	// budget attached.
	proveSpans := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "prover.prove" {
			proveSpans++
			if spanAttr(sp, "visit_budget") == nil {
				t.Errorf("prover.prove span missing visit_budget attr: %+v", sp)
			}
			if spanAttr(sp, "memo_hits") == nil {
				t.Errorf("prover.prove span missing memo_hits attr: %+v", sp)
			}
		}
	}
	if proveSpans != 2 {
		t.Errorf("want 2 prover.prove spans, got %d", proveSpans)
	}
	if got := o.Registry().Counter("prover.proofs"); got != 2 {
		t.Errorf("prover.proofs counter = %d, want 2", got)
	}
}

// TestProverMetricsReflectOptions: ProofOptions limits must show up in the
// metrics snapshot.
func TestProverMetricsReflectOptions(t *testing.T) {
	pv, err := NewProver(figure1DB(), figure1Prog(), ProofOptions{MaxVisits: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if got := pv.Metrics().VisitBudget; got != 1234 {
		t.Errorf("VisitBudget = %d, want 1234", got)
	}
	// Without Obs, canonicalization timing stays off (zero-overhead path) but
	// counters still accumulate.
	if _, err := pv.ProvesCtx(t.Context(), datalog.MustParseAtom("p(a, a)")); err != nil {
		t.Fatal(err)
	}
	m := pv.Metrics()
	if m.CanonTime != 0 {
		t.Errorf("CanonTime collected without Obs: %v", m.CanonTime)
	}
	if m.Expansions == 0 || m.Components == 0 {
		t.Errorf("counters not collected without Obs: %+v", m)
	}
}

// TestEvalTrace: Eval under a recording trace opens the triq.eval root span
// over the chase spans.
func TestEvalTrace(t *testing.T) {
	ctx, tr := recordingCtx()
	o := obs.New()
	db := chase.NewInstance(
		datalog.MustParseAtom("e(a, b)"),
		datalog.MustParseAtom("e(b, c)"),
	)
	prog := datalog.MustParse(`
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
		tc(?X, ?Y) -> query(?X, ?Y).
	`)
	res, err := EvalCtx(ctx, db, datalog.NewQuery(prog, "query"), TriQLite10, Options{
		Chase: chase.Options{Obs: o},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers.Tuples) != 3 {
		t.Fatalf("want 3 answers, got %d", len(res.Answers.Tuples))
	}
	names := map[obs.SpanID]string{}
	for _, sp := range tr.Spans() {
		names[sp.ID] = sp.Name
	}
	// Each span sits under the one before it in the chain.
	chain := []string{"triq.eval", "chase.deepen", "chase.run", "chase.round", "chase.rule"}
	for i, k := range chain {
		found := false
		for _, sp := range tr.Spans() {
			if sp.Name == k && (i == 0 && sp.Parent.IsZero() || i > 0 && names[sp.Parent] == chain[i-1]) {
				found = true
			}
		}
		if !found {
			t.Errorf("trace has no %s span in place (spans %v)", k, names)
		}
	}
	// Per-rule stats surfaced through the Result.
	if len(res.Stats.PerRule) == 0 {
		t.Error("Eval result carries no per-rule stats")
	}
}

// recordingCtx returns a context carrying a fresh recording trace.
func recordingCtx() (context.Context, *obs.Trace) {
	ids := obs.NewIDSource(1)
	tr := obs.NewTrace(ids.TraceID(), ids, true)
	return obs.ContextWithTrace(context.Background(), tr), tr
}

// spanAttr returns the value of the span's attribute k, or nil.
func spanAttr(sp obs.TraceSpan, k string) any {
	for _, a := range sp.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return nil
}
