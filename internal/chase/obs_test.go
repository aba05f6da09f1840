package chase

import (
	"bytes"
	"context"
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
	var buf bytes.Buffer
	on, err := RunCtx(context.Background(), obsTestDB(), datalog.MustParse(obsTestProgram), Options{Obs: obs.NewWithSink(&buf)})
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
	if buf.Len() == 0 {
		t.Error("instrumented run wrote no trace")
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

// TestChaseTrace runs a small fixed program with a JSONL sink and checks the
// trace invariants: every line parses, the expected span kinds appear, and
// the per-rule "fired" attrs sum to the headline counter.
func TestChaseTrace(t *testing.T) {
	var buf bytes.Buffer
	o := obs.NewWithSink(&buf)
	res, err := RunCtx(context.Background(), obsTestDB(), datalog.MustParse(obsTestProgram), Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SinkErr(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("invalid JSONL: %v", err)
	}
	kinds := map[string]int{}
	firedSum := 0
	for _, r := range recs {
		name, _ := r["name"].(string)
		kinds[name]++
		if name == "chase.rule" {
			attrs, _ := r["attrs"].(map[string]any)
			fired, ok := attrs["fired"].(float64)
			if !ok {
				t.Fatalf("chase.rule span missing fired attr: %v", r)
			}
			firedSum += int(fired)
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
	if kinds["chase.rule"] != kinds["chase.round"]*3 {
		t.Errorf("want 3 chase.rule spans per round: rounds=%d rules=%d",
			kinds["chase.round"], kinds["chase.rule"])
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
	var buf bytes.Buffer
	o := obs.NewWithSink(&buf)
	_, err := StableGroundCtx(context.Background(), obsTestDB(), datalog.MustParse(obsTestProgram), Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	deepenIDs := map[float64]bool{}
	for _, r := range recs {
		if r["name"] == "chase.deepen" {
			deepenIDs[r["id"].(float64)] = true
		}
	}
	if len(deepenIDs) == 0 {
		t.Fatal("no chase.deepen spans")
	}
	nested := false
	for _, r := range recs {
		if r["name"] == "chase.run" {
			if parent, ok := r["parent"].(float64); ok && deepenIDs[parent] {
				nested = true
			}
		}
	}
	if !nested {
		t.Error("no chase.run span is parented under a chase.deepen span")
	}
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

// BenchmarkChaseObsOn measures the fully-enabled path (registry + in-memory
// discard sink).
func BenchmarkChaseObsOn(b *testing.B) {
	var sink bytes.Buffer
	o := obs.NewWithSink(&sink)
	b.Cleanup(func() { sink.Reset() })
	benchmarkChase(b, o)
}
