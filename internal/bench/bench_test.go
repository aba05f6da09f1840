package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/triq"
)

// Every experiment runner must report OK: the qualitative claims of the
// paper are assertions, not just measurements. Wall-clock gates are not
// asserted here — a test must not fail because the host was busy, or because
// the engine got faster — only logged; triqbench and the bench-gates CI job
// enforce them.
func TestAllExperimentsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, tbl := range RunAll() {
		tbl := tbl
		t.Run(tbl.ID, func(t *testing.T) {
			if !tbl.OK {
				t.Errorf("%s did not reproduce:\n%s", tbl.ID, tbl.Render())
			}
			for _, g := range tbl.GateFailures {
				t.Logf("%s timing gate (not asserted): %s", tbl.ID, g)
			}
			if len(tbl.Rows) == 0 {
				t.Errorf("%s produced no rows", tbl.ID)
			}
			out := tbl.Render()
			if !strings.Contains(out, tbl.ID) || !strings.Contains(out, "|") {
				t.Errorf("Render output malformed:\n%s", out)
			}
		})
	}
}

func TestTableRenderMismatch(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Claim: "c", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	if !strings.Contains(tbl.Render(), "MISMATCH") {
		t.Error("OK=false should render as MISMATCH")
	}
}

// TestTimingGateIsNotAMismatch pins the split verdict: a failed wall-clock
// gate leaves OK alone, fails Passed, and renders as its own status.
func TestTimingGateIsNotAMismatch(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Claim: "c", Columns: []string{"a"}, Rows: [][]string{{"1"}}, OK: true}
	if !tbl.Passed() {
		t.Fatal("a table with no failure must pass")
	}
	tbl.gate("overhead %d%% over the bar", 12)
	out := tbl.Render()
	if !tbl.OK || tbl.Passed() {
		t.Errorf("after a gate failure: OK=%v Passed=%v, want true and false", tbl.OK, tbl.Passed())
	}
	if strings.Contains(out, "MISMATCH") || !strings.Contains(out, "TIMING GATE FAILED") || !strings.Contains(out, "overhead 12% over the bar") {
		t.Errorf("gate failure rendered as:\n%s", out)
	}
}

// TestDur pins the unit ladder of the table duration formatter: µs below a
// millisecond, ms below a second, s above — always two decimals.
func TestDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0.00µs"},
		{500 * time.Nanosecond, "0.50µs"},
		{time.Microsecond, "1.00µs"},
		{999 * time.Microsecond, "999.00µs"},
		{time.Millisecond, "1.00ms"},
		{1500 * time.Microsecond, "1.50ms"},
		{999 * time.Millisecond, "999.00ms"},
		{time.Second, "1.00s"},
		{2500 * time.Millisecond, "2.50s"},
		{90 * time.Second, "90.00s"},
	}
	for _, c := range cases {
		if got := dur(c.d); got != c.want {
			t.Errorf("dur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestTableJSONBreakdown checks the BENCH JSON schema: tables marshal with
// the breakdown dimension and round-trip.
func TestTableJSONBreakdown(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "t", Claim: "c", Columns: []string{"a"},
		Rows: [][]string{{"1"}}, OK: true,
		Breakdown: []StageMetric{{Stage: "chase", Metric: "rounds", Value: "3"}},
	}
	raw, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id":"X"`, `"breakdown"`, `"stage":"chase"`, `"metric":"rounds"`, `"value":"3"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("JSON missing %s: %s", want, raw)
		}
	}
	var back Table
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Breakdown) != 1 || back.Breakdown[0] != tbl.Breakdown[0] {
		t.Errorf("breakdown did not round-trip: %+v", back.Breakdown)
	}
}

// TestBreakdownHelpers checks the stage-metric summarizers used by the
// runners.
func TestBreakdownHelpers(t *testing.T) {
	rows := chaseBreakdown("s", chase.Stats{
		Rounds: 2, TriggersFired: 5, FactsDerived: 7, NullsInvented: 1,
		PerRule: []chase.RuleStats{{Index: 0, Rule: "a -> b", Time: time.Millisecond}},
	})
	found := map[string]string{}
	for _, r := range rows {
		if r.Stage != "s" {
			t.Errorf("stage = %q, want s", r.Stage)
		}
		found[r.Metric] = r.Value
	}
	if found["rounds"] != "2" || found["facts_derived"] != "7" {
		t.Errorf("unexpected chase breakdown: %v", found)
	}
	if found["top_rule"] != "a -> b" || found["top_rule_time"] != "1.00ms" {
		t.Errorf("top rule not reported: %v", found)
	}
	pr := proverBreakdown("p", triq.ProofMetrics{Components: 3, MemoHits: 2})
	got := map[string]string{}
	for _, r := range pr {
		got[r.Metric] = r.Value
	}
	if got["components"] != "3" || got["memo_hits"] != "2" {
		t.Errorf("unexpected prover breakdown: %v", got)
	}
}
