package chase

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/obs"
)

// obsTestProgram exercises plain rules, recursion, and null invention, so
// every per-rule counter is non-trivial.
const obsTestProgram = `
	e(?X, ?Y) -> tc(?X, ?Y).
	e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
	tc(?X, ?Y) -> exists ?W w(?X, ?W).
`

func obsTestDB() *Instance {
	return NewInstance(
		atom("e", "a", "b"), atom("e", "b", "c"), atom("e", "c", "d"),
	)
}

// TestObsOffMatchesObsOn is the "byte-identical results" acceptance check:
// the instrumented run derives exactly the same instance and headline stats
// as the uninstrumented run.
func TestObsOffMatchesObsOn(t *testing.T) {
	off, err := RunCtx(context.Background(), obsTestDB(), datalog.MustParse(obsTestProgram), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := recordingCtx()
	on, err := RunCtx(ctx, obsTestDB(), datalog.MustParse(obsTestProgram), Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if !off.Instance.Equal(on.Instance) {
		t.Error("instrumented chase derived a different instance")
	}
	if off.Stats.Rounds != on.Stats.Rounds ||
		off.Stats.TriggersFired != on.Stats.TriggersFired ||
		off.Stats.FactsDerived != on.Stats.FactsDerived ||
		off.Stats.NullsInvented != on.Stats.NullsInvented ||
		off.Stats.DepthTruncated != on.Stats.DepthTruncated {
		t.Errorf("core stats differ: off=%+v on=%+v", off.Stats, on.Stats)
	}
	if len(tr.Spans()) == 0 {
		t.Error("instrumented run recorded no spans")
	}
}

// TestPerRuleStatsSumToTotals: the PerRule breakdown must partition the
// headline counters.
func TestPerRuleStatsSumToTotals(t *testing.T) {
	res, err := RunCtx(context.Background(), obsTestDB(), datalog.MustParse(obsTestProgram), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if len(s.PerRule) != 3 {
		t.Fatalf("PerRule has %d entries, want 3", len(s.PerRule))
	}
	var fired, facts, nulls int
	for i, r := range s.PerRule {
		if r.Index != i {
			t.Errorf("PerRule[%d].Index = %d", i, r.Index)
		}
		if r.Rule == "" {
			t.Errorf("PerRule[%d].Rule is empty", i)
		}
		if r.TriggersFired > r.TriggersAttempted {
			t.Errorf("rule %d fired more than attempted: %+v", i, r)
		}
		fired += r.TriggersFired
		facts += r.FactsDerived
		nulls += r.NullsInvented
	}
	if fired != s.TriggersFired || facts != s.FactsDerived || nulls != s.NullsInvented {
		t.Errorf("per-rule sums (%d,%d,%d) != totals (%d,%d,%d)",
			fired, facts, nulls, s.TriggersFired, s.FactsDerived, s.NullsInvented)
	}
	if nulls == 0 {
		t.Error("test program should invent nulls")
	}
	if top := s.TopRule(); top == nil {
		t.Error("TopRule returned nil with a non-empty breakdown")
	}
}

// TestStatsString checks the -metrics rendering: a headline plus one table
// row per rule.
func TestStatsString(t *testing.T) {
	res, err := RunCtx(context.Background(), obsTestDB(), datalog.MustParse(obsTestProgram), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Stats.String()
	for _, want := range []string{"chase:", "rounds", "facts derived", "#0", "#1", "#2", "tc(?X, ?Z)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 5 { // headline + header + 3 rules
		t.Errorf("Stats.String() has %d lines, want 5:\n%s", n, out)
	}
	var empty Stats
	if got := empty.String(); strings.Count(got, "\n") != 1 {
		t.Errorf("empty Stats.String() should be the headline only:\n%s", got)
	}
}

// TestChaseTrace runs a small fixed program under a recording trace and
// checks the span tree's invariants: the expected span kinds appear, a round
// has one chase.rule span per rule that takes its turn — every rule in the
// stratum's first round, after it every rule whose body gained rows in the
// round before — and the per-rule "fired" attrs sum to the headline counter.
func TestChaseTrace(t *testing.T) {
	ctx, tr := recordingCtx()
	o := obs.New()
	res, err := RunCtx(ctx, obsTestDB(), datalog.MustParse(obsTestProgram), Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	firedSum := 0
	var rounds []obs.SpanID
	rulesOf := map[obs.SpanID][]obs.TraceSpan{} // round → its rule spans
	for _, sp := range tr.Spans() {
		kinds[sp.Name]++
		switch sp.Name {
		case "chase.round":
			rounds = append(rounds, sp.ID)
		case "chase.rule":
			fired, ok := spanAttr(sp, "fired").(int)
			if !ok {
				t.Fatalf("chase.rule span missing fired attr: %+v", sp)
			}
			firedSum += fired
			rulesOf[sp.Parent] = append(rulesOf[sp.Parent], sp)
		}
	}
	for _, k := range []string{"chase.run", "chase.round", "chase.rule"} {
		if kinds[k] == 0 {
			t.Errorf("trace missing span kind %q (got %v)", k, kinds)
		}
	}
	if kinds["chase.run"] != 1 {
		t.Errorf("want exactly one chase.run span, got %d", kinds["chase.run"])
	}
	// The positive body predicates of obsTestProgram's rules.
	body := [][]string{{"e"}, {"e", "tc"}, {"tc"}}
	gained := map[string]bool{} // the predicates the previous round added to
	for i, round := range rounds {
		var want, got []int
		for r, preds := range body {
			if i == 0 || slices.ContainsFunc(preds, func(p string) bool { return gained[p] }) {
				want = append(want, r)
			}
		}
		clear(gained)
		for _, sp := range rulesOf[round] {
			got = append(got, spanAttr(sp, "rule").(int))
			if spanAttr(sp, "facts").(int) > 0 {
				gained[spanAttr(sp, "pred").(string)] = true
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("round %d: chase.rule spans of rules %v, want %v", i+1, got, want)
		}
	}
	if kinds["chase.rule"] >= 3*len(rounds) {
		t.Errorf("%d chase.rule spans over %d rounds: no rule skipped a turn", kinds["chase.rule"], len(rounds))
	}
	if firedSum != res.Stats.TriggersFired {
		t.Errorf("sum of rule span fired attrs = %d, want %d", firedSum, res.Stats.TriggersFired)
	}
	// Registry counters mirror the stats.
	if got := o.Registry().Counter("chase.facts_derived"); got != int64(res.Stats.FactsDerived) {
		t.Errorf("chase.facts_derived counter = %d, want %d", got, res.Stats.FactsDerived)
	}
}

// TestStableGroundTrace checks the iterative-deepening driver nests chase.run
// under chase.deepen.
func TestStableGroundTrace(t *testing.T) {
	ctx, tr := recordingCtx()
	_, err := StableGroundCtx(ctx, obsTestDB(), datalog.MustParse(obsTestProgram), Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	deepenIDs := map[obs.SpanID]bool{}
	for _, sp := range spans {
		if sp.Name == "chase.deepen" {
			deepenIDs[sp.ID] = true
		}
	}
	if len(deepenIDs) == 0 {
		t.Fatal("no chase.deepen spans")
	}
	for _, sp := range spans {
		if sp.Name == "chase.run" && !deepenIDs[sp.Parent] {
			t.Errorf("chase.run span %s is not parented under a chase.deepen span", sp.ID)
		}
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

func benchmarkChase(b *testing.B, o *obs.Obs) {
	prog := datalog.MustParse(`
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
	`)
	db := NewInstance()
	chain := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for i := 0; i+1 < len(chain); i++ {
		db.Add(atom("e", chain[i], chain[i+1]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCtx(context.Background(), db, prog, Options{Obs: o}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChaseObsOff is the baseline: no Obs handle, no spans, no I/O.
// Compare with BenchmarkChaseObsOn to measure the instrumentation overhead
// (the disabled path must stay negligible).
func BenchmarkChaseObsOff(b *testing.B) { benchmarkChase(b, nil) }

// BenchmarkChaseObsOn measures the path with a registry: counters and the
// span.<name> histograms of every chase.run, chase.round and chase.rule span.
func BenchmarkChaseObsOn(b *testing.B) { benchmarkChase(b, obs.New()) }
