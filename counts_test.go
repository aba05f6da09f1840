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
// function of the program and the database, whatever the engine skips.
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
			{32, 32, 32, 0}, {32, 32, 32, 0}, {32, 32, 32, 0}, {106, 51, 69, 0},
			{39, 39, 39, 0}, {1, 1, 1, 0}, {8, 8, 8, 0}, {8, 8, 8, 0},
			{10, 10, 10, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {106, 106, 106, 0},
			{11, 1, 1, 0}, {8, 8, 8, 0}, {24, 0, 0, 0}, {20, 10, 10, 0},
			{15, 7, 7, 0}, {127, 12, 12, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
			{282, 4, 4, 0}, {252, 105, 105, 0}, {76, 75, 75, 2}, {244, 166, 166, 0},
			{490, 99, 99, 0}, {288, 67, 67, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
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
		if st.Rounds != 17 || attempted != 2211 || st.TriggersFired != 873 || st.FactsDerived != 891 || st.NullsInvented != 2 {
			t.Errorf("%d rounds, %d attempted, %d fired, %d facts, %d nulls; want 17, 2211, 873, 891, 2",
				st.Rounds, attempted, st.TriggersFired, st.FactsDerived, st.NullsInvented)
		}
		wantSteps := []chase.DeepenStep{
			{Depth: 0, Parked: 60, NewFacts: 687, NewGround: 687},
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
// whether or not its body gained rows, so a fault plan trips where it tripped
// when every rule took every turn; only the 122 turns taken have a span.
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
	if hits != 476 || spans != 122 {
		t.Errorf("chase.rule site hit %d times, %d turns taken; want 476 and 122", hits, spans)
	}
}
