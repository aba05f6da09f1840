package repro

import (
	"context"
	"errors"
	"testing"

	"repro/internal/limits"
	"repro/internal/obs"
)

const facadeData = `
	TheAirline partOf transportService .
	A311 partOf TheAirline .
	Oxford A311 London .
	London B42 Berlin .
`

const facadeRules = `
	triple(?X, partOf, transportService) -> ts(?X).
	triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
	ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
	ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
	conn(?X, ?Y) -> query(?X, ?Y).
`

func facadeQuery(t *testing.T) (*Graph, Query) {
	t.Helper()
	g, err := ParseGraph(facadeData)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(facadeRules, "query")
	if err != nil {
		t.Fatal(err)
	}
	return g, q
}

func TestAskCtxCanceledReturnsErrCanceled(t *testing.T) {
	g, q := facadeQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AskCtx(ctx, g, q, TriQLite10, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestAskDegradesOnFactBudget(t *testing.T) {
	g, q := facadeQuery(t)
	full, err := AskCtx(context.Background(), g, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	opts.Chase.MaxFacts = 6
	res, err := AskCtx(context.Background(), g, q, TriQLite10, opts)
	if err != nil {
		t.Fatalf("budget trips must degrade at the facade, not error: %v", err)
	}
	if !res.Incomplete {
		t.Fatal("budget-tripped Ask must set Results.Incomplete")
	}
	if res.Truncation == nil || res.Truncation.Limit != limits.LimitFacts {
		t.Fatalf("Results.Truncation = %+v, want facts", res.Truncation)
	}
	if len(res.Tuples) >= len(full.Tuples) {
		t.Fatalf("partial = %d tuples, full = %d; want fewer", len(res.Tuples), len(full.Tuples))
	}
	// Soundness: every partial tuple appears in the full answer set.
	fullRows := make(map[string]bool)
	for _, row := range full.Rows() {
		fullRows[row] = true
	}
	for _, row := range res.Rows() {
		if !fullRows[row] {
			t.Fatalf("partial answer %q is not a certain answer", row)
		}
	}
}

func TestAskRecoverInjectedPanic(t *testing.T) {
	g, q := facadeQuery(t)
	opts := Options{}
	opts.Chase.Faults = limits.NewPlan(limits.Fault{Point: "chase.rule", Action: limits.ActPanic})
	_, err := AskCtx(context.Background(), g, q, TriQLite10, opts)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("an engine panic must surface as ErrInternal, got %v", err)
	}
	var ie *limits.InternalError
	if !errors.As(err, &ie) || len(ie.Stack) == 0 {
		t.Fatalf("ErrInternal must carry the captured stack: %v", err)
	}
}

func TestAskSPARQLCtxDegradesOnBudget(t *testing.T) {
	g, err := ParseGraph(facadeData)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ParseSPARQL(`SELECT ?X ?Y WHERE { ?X partOf ?Y }`)
	if err != nil {
		t.Fatal(err)
	}
	fullMS, _, err := AskSPARQLCtx(context.Background(), sq, g, PlainRegime, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	opts.Chase.MaxFacts = 8
	ms, _, err := AskSPARQLCtx(context.Background(), sq, g, PlainRegime, opts)
	if err != nil {
		t.Fatalf("budget trips must degrade, not error: %v", err)
	}
	if !ms.Incomplete || ms.Truncation == nil {
		t.Fatalf("budget-tripped AskSPARQL must mark the MappingSet incomplete (%+v)", ms.Truncation)
	}
	// Soundness: partial mappings are a subset of the full set.
	for _, m := range ms.Mappings() {
		if !fullMS.Has(m) {
			t.Fatalf("partial mapping %v is not in the full answer set", m)
		}
	}
}

func TestAskSPARQLCtxTimeout(t *testing.T) {
	g, err := ParseGraph(facadeData)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ParseSPARQL(`SELECT ?X ?Y WHERE { ?X partOf ?Y }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, _, err = AskSPARQLCtx(ctx, sq, g, PlainRegime, Options{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

func TestEvalSPARQLCtxCanceled(t *testing.T) {
	g, err := ParseGraph(facadeData)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ParseSPARQL(`SELECT ?X ?Y WHERE { ?X partOf ?Y . ?Y partOf ?Z }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sq.SelectCtx(ctx, g)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestAskAbortEmitsObsEventWithLimitName: a degraded run names the limit on
// its chase.run span and counts limits.aborted.
func TestAskAbortEmitsObsEventWithLimitName(t *testing.T) {
	g, q := facadeQuery(t)
	ids := obs.NewIDSource(3)
	tr := obs.NewTrace(ids.TraceID(), ids, true)
	opts := Options{}
	opts.Chase.MaxFacts = 6
	opts.Chase.Obs = obs.New()
	res, err := AskCtx(obs.ContextWithTrace(context.Background(), tr), g, q, TriQLite10, opts)
	if err != nil || !res.Incomplete {
		t.Fatalf("expected degraded run, got res=%+v err=%v", res, err)
	}
	if got := opts.Chase.Obs.Registry().Counter("limits.aborted"); got != 1 {
		t.Errorf("limits.aborted counter = %d, want 1", got)
	}
	for _, sp := range tr.Spans() {
		for _, a := range sp.Attrs {
			if sp.Name == "chase.run" && a.K == "limit" {
				if a.V != limits.LimitFacts {
					t.Fatalf("chase.run limit attr = %v, want %q", a.V, limits.LimitFacts)
				}
				return
			}
		}
	}
	t.Fatal("no chase.run span names the limit")
}

func TestAskExactCtxDeadline(t *testing.T) {
	g, q := facadeQuery(t)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, err := Eval(ctx, g, Request{Query: q, Language: TriQLite10, Options: Options{Exact: true}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

func TestTruncationRoundTripAtFacade(t *testing.T) {
	g, q := facadeQuery(t)
	opts := Options{}
	opts.Chase.MaxFacts = 6
	res, err := AskCtx(context.Background(), g, q, TriQLite10, opts)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := res.Truncation.Err()
	if !IsBudget(rebuilt) || !errors.Is(rebuilt, ErrFactBudget) {
		t.Fatalf("Truncation.Err() lost the taxonomy: %v", rebuilt)
	}
	if tr, ok := TruncationOf(rebuilt); !ok || tr.Limit != limits.LimitFacts {
		t.Fatalf("re-extracted truncation = %+v (ok=%v)", tr, ok)
	}
}
