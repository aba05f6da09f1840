package triq

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/obs"
)

func transportFixture() (*chase.Instance, datalog.Query) {
	db := chase.NewInstance(
		atom("triple", "TheAirline", "partOf", "transportService"),
		atom("triple", "A311", "partOf", "TheAirline"),
		atom("triple", "Oxford", "A311", "London"),
		atom("triple", "BritishAirways", "partOf", "transportService"),
		atom("triple", "BA201", "partOf", "BritishAirways"),
		atom("triple", "London", "BA201", "Madrid"),
	)
	q := datalog.MustParseQuery(`
		triple(?X, partOf, transportService) -> ts(?X).
		triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
		ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
		ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
		conn(?X, ?Y) -> query(?X, ?Y).
	`, "query")
	return db, q
}

// The report must agree with the evaluation's own chase stats: same per-rule
// cardinality and identical trigger/fact/null totals (the acceptance check
// behind `triq -explain`).
func TestExplainMatchesChaseStats(t *testing.T) {
	db, q := transportFixture()
	res, rep, err := explain(t, db, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "triq" {
		t.Errorf("Kind = %q, want triq", rep.Kind)
	}
	if rep.Answers != len(res.Answers.Tuples) || rep.Answers == 0 {
		t.Errorf("Answers = %d, want %d (nonzero)", rep.Answers, len(res.Answers.Tuples))
	}
	if len(rep.Rules) != len(res.Stats.PerRule) {
		t.Fatalf("report has %d rules, stats have %d", len(rep.Rules), len(res.Stats.PerRule))
	}
	var attempted, fired, facts, nulls int
	for _, ru := range rep.Rules {
		attempted += ru.TriggersAttempted
		fired += ru.TriggersFired
		facts += ru.FactsDerived
		nulls += ru.NullsInvented
	}
	var wantAttempted, wantFired, wantFacts, wantNulls int
	for _, rs := range res.Stats.PerRule {
		wantAttempted += rs.TriggersAttempted
		wantFired += rs.TriggersFired
		wantFacts += rs.FactsDerived
		wantNulls += rs.NullsInvented
	}
	if attempted != wantAttempted || fired != wantFired || facts != wantFacts || nulls != wantNulls {
		t.Errorf("rule totals = (%d,%d,%d,%d), stats = (%d,%d,%d,%d)",
			attempted, fired, facts, nulls, wantAttempted, wantFired, wantFacts, wantNulls)
	}
	if fired != res.Stats.TriggersFired {
		t.Errorf("trigger total %d != Stats.TriggersFired %d", fired, res.Stats.TriggersFired)
	}
	// Rules are sorted by cumulative time, slowest first.
	for i := 1; i < len(rep.Rules); i++ {
		if rep.Rules[i-1].TimeUS < rep.Rules[i].TimeUS {
			t.Errorf("rules not sorted by time at %d: %d < %d", i, rep.Rules[i-1].TimeUS, rep.Rules[i].TimeUS)
		}
	}
	// The evaluation itself emits at least the triq.eval span.
	var stages []string
	for _, s := range rep.Stages {
		stages = append(stages, s.Stage)
	}
	if !contains(stages, "triq.eval") || !contains(stages, "chase.run") {
		t.Errorf("stages %v missing triq.eval / chase.run", stages)
	}
	if rep.TotalUS <= 0 {
		t.Errorf("TotalUS = %d, want > 0", rep.TotalUS)
	}
}

// explain wraps the chase evaluation the way the facade does.
func explain(t *testing.T, db *chase.Instance, q datalog.Query, lang Language, opts Options) (*Result, *ExplainReport, error) {
	return Explained("triq", opts, func(opts Options) (*Result, error) {
		return EvalCtx(t.Context(), db, q, lang, opts)
	})
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// Answers must be byte-identical with and without EXPLAIN: telemetry never
// changes evaluation.
func TestExplainAnswersMatchEval(t *testing.T) {
	db, q := transportFixture()
	plain, err := Eval(db, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2, q2 := transportFixture()
	explained, _, err := explain(t, db2, q2, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", plain.Answers) != fmt.Sprintf("%v", explained.Answers) {
		t.Errorf("answers differ:\n%v\nvs\n%v", plain.Answers, explained.Answers)
	}
}

// When the caller had its own Obs, the private per-query observations fold
// back into it, so long-lived metrics still see explained runs.
func TestExplainMergesBackIntoCallerRegistry(t *testing.T) {
	db, q := transportFixture()
	o := obs.New()
	opts := Options{}
	opts.Chase.Obs = o
	_, rep, err := explain(t, db, q, TriQLite10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("nil report")
	}
	if n := o.Registry().Counter("chase.rounds"); n == 0 {
		t.Error("caller registry did not receive chase counters after merge-back")
	}
	if _, ok := o.Registry().Hist("span.triq.eval"); !ok {
		t.Error("caller registry did not receive span histograms after merge-back")
	}
}

// The exact path reports prover memo metrics when ProofTree decided an open
// goal: q(a) of the deep chain, which the chase does not reach.
func TestExplainExactCarriesProver(t *testing.T) {
	db, src := deepChain()
	q := datalog.MustParseQuery(src, "q")
	res, rep, err := Explained("triq-exact", Options{}, func(opts Options) (*Result, error) {
		return EvalExactCtx(t.Context(), db, q, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Error("exact evaluation should be exact")
	}
	if rep.Kind != "triq-exact" {
		t.Errorf("Kind = %q, want triq-exact", rep.Kind)
	}
	if rep.Prover == nil {
		t.Fatal("exact explain should carry prover metrics")
	}
	if rep.Prover.Proofs == 0 && rep.Prover.Expansions == 0 {
		t.Error("prover metrics all zero")
	}
}

// The report must render for humans and round-trip as JSON.
func TestExplainRenderAndJSON(t *testing.T) {
	db, q := transportFixture()
	_, rep, err := explain(t, db, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"EXPLAIN triq", "chase:", "rule", "stage"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back ExplainReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != rep.Kind || len(back.Rules) != len(rep.Rules) || back.TriggersFired != rep.TriggersFired {
		t.Errorf("JSON round-trip changed the report: %+v vs %+v", back, rep)
	}
}

// TestExplainRendersTheClosingPass: the deepening line says how the evaluation
// ended — a pass that proved it complete, or one a budget cut short — and on
// which rung. Both passes here follow the probe at depth 0 and run on rung 1.
func TestExplainRendersTheClosingPass(t *testing.T) {
	db := chase.NewInstance(atom("e", "a", "b"), atom("g", "b"))
	q := datalog.MustParseQuery(`
		e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
		e(?X, ?Y), g(?Y) -> out(?X).
	`, "out")
	for _, tc := range []struct {
		maxFacts int
		want     string
	}{
		{0, "deepening: depth 0: +1 facts, 1 parked → closed (coarse): +3 facts, 0 ground\n"},
		{4, "deepening: depth 0: +1 facts, 1 parked → closing cut short (coarse): +1 facts, 0 ground\n"},
	} {
		res, rep, err := explain(t, db, q, TriQLite10, Options{Chase: chase.Options{MaxFacts: tc.maxFacts}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Exact != (tc.maxFacts == 0) || res.Incomplete == res.Exact || !strings.Contains(rep.String(), tc.want) {
			t.Errorf("MaxFacts %d: exact %v, incomplete %v; want the line %q in:\n%s", tc.maxFacts, res.Exact, res.Incomplete, tc.want, rep)
		}
		if steps := rep.Deepening; len(steps) != 2 || !steps[1].Closing {
			t.Errorf("MaxFacts %d: steps %+v", tc.maxFacts, steps)
		}
	}
}
