package repro_test

import (
	"context"
	"testing"

	"repro"

	"repro/internal/chase"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/triq"
	"repro/internal/workload"
)

// universityRequest is the benchmark's university_regime request: every person
// of the 4-department university under the OWL 2 QL core regime.
func universityRequest(t *testing.T) (*repro.Graph, repro.Request) {
	t.Helper()
	sq, err := repro.ParseSPARQL("SELECT ?X WHERE { ?X rdf:type person }")
	if err != nil {
		t.Fatal(err)
	}
	return workload.University(4, 2, 3, false).ToGraph(), repro.Request{SPARQL: sq, Regime: repro.ActiveDomainRegime}
}

// ruleCounts is one row of the per-rule table: attempted, fired, facts, nulls.
type ruleCounts [4]int

// TestBenchmarkRequestCounts pins the chase counts of the two chase-bound
// benchmark requests, which the traced benchmark also reads and compares
// across changes: how many rounds, triggers and facts a request costs is a
// function of the program and the database, whatever the engine skips. The
// university request starts from the fixpoint of τ_owl2ql_core's database
// part, rules #3–#19 (the first request over the graph builds it, every later
// one finds it, and both count alike): those take no turn and count nothing,
// and the 279 facts they derive are no request's (891 facts and 2 211
// attempted triggers when every request derived them).
func TestBenchmarkRequestCounts(t *testing.T) {
	t.Run("university_regime", func(t *testing.T) {
		g, req := universityRequest(t)
		resp, err := repro.Eval(context.Background(), g, req)
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
		st := resp.Stats
		want := []ruleCounts{
			{32, 32, 32, 0}, {32, 32, 32, 0}, {32, 32, 32, 0}, {0, 0, 0, 0},
			{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
			{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
			{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
			{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
			{246, 4, 4, 0}, {220, 105, 105, 0}, {76, 75, 75, 2}, {205, 166, 166, 0},
			{430, 99, 99, 0}, {256, 67, 67, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
		}
		if len(st.PerRule) != len(want) {
			t.Fatalf("%d rules, want %d", len(st.PerRule), len(want))
		}
		attempted := 0
		for i, r := range st.PerRule {
			attempted += r.TriggersAttempted
			if got := (ruleCounts{r.TriggersAttempted, r.TriggersFired, r.FactsDerived, r.NullsInvented}); got != want[i] {
				t.Errorf("rule #%d %s: attempted/fired/facts/nulls %v, want %v", r.Index, r.Rule, got, want[i])
			}
		}
		if st.Rounds != 17 || attempted != 1529 || st.TriggersFired != 612 || st.FactsDerived != 612 || st.NullsInvented != 2 {
			t.Errorf("%d rounds, %d attempted, %d fired, %d facts, %d nulls; want 17, 1529, 612, 612, 2",
				st.Rounds, attempted, st.TriggersFired, st.FactsDerived, st.NullsInvented)
		}
		wantSteps := []chase.DeepenStep{
			{Depth: 0, Parked: 60, NewFacts: 408, NewGround: 408},
			{Depth: 0, Resumed: true, Closing: true, Coarse: true, Refired: 60, NewFacts: 204},
		}
		if len(st.Deepening) != len(wantSteps) {
			t.Fatalf("deepening steps %+v, want %+v", st.Deepening, wantSteps)
		}
		for i, s := range st.Deepening {
			if s != wantSteps[i] {
				t.Errorf("deepening step %d: %+v, want %+v", i, s, wantSteps[i])
			}
		}
	})
	t.Run("transport_chase", func(t *testing.T) {
		db, q := workload.Transport(16, 3, 6), workload.TransportQuery()
		res, err := triq.EvalCtx(context.Background(), db, q, triq.TriQLite10, triq.Options{})
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
		attempted := 0
		for _, r := range res.Stats.PerRule {
			attempted += r.TriggersAttempted
		}
		if st := res.Stats; st.Rounds != 83 || attempted != 6623 || st.FactsDerived != 6528 {
			t.Errorf("%d rounds, %d attempted, %d facts; want 83, 6623, 6528", st.Rounds, attempted, st.FactsDerived)
		}
	})
}

// TestUniversityRuleSiteHits counts the chase.rule fault site over the
// university request, traced: every rule passes the site once a round,
// whether or not its body gained rows and whether or not it belongs to the
// library's database part, so a fault plan trips where it tripped when every
// rule took every turn; only the 99 turns taken have a span (122 while the
// database part's rules took theirs).
func TestUniversityRuleSiteHits(t *testing.T) {
	g, req := universityRequest(t)
	hits := 0
	req.Options.Chase.Faults = limits.NewPlan(limits.Fault{Point: "chase.rule", Action: limits.ActHook, Hook: func() { hits++ }})
	ids := obs.NewIDSource(1)
	tr := obs.NewTrace(ids.TraceID(), ids, true)
	_, err := repro.Eval(obs.ContextWithTrace(context.Background(), tr), g, req)
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "chase.rule" {
			spans++
		}
	}
	if hits != 476 || spans != 99 {
		t.Errorf("chase.rule site hit %d times, %d turns taken; want 476 and 99", hits, spans)
	}
}
