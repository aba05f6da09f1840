package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/triq"
)

// Every experiment runner must report OK: the qualitative claims of the
// paper are assertions, not just measurements. Each runner executes inside
// its own subtest, so -run 'TestAllExperimentsReproduce/E4' runs E4 alone and
// -v prints its table.
func TestAllExperimentsReproduce(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run()
			out := tbl.Render()
			t.Log("\n" + out)
			if tbl.ID != e.ID {
				t.Errorf("runner listed as %s produced table %s", e.ID, tbl.ID)
			}
			if !tbl.OK {
				t.Errorf("%s did not reproduce", e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			if !strings.Contains(out, tbl.ID) || !strings.Contains(out, "|") {
				t.Errorf("Render output malformed")
			}
		})
	}
}

// TestExperimentListIsThePaperArtifacts pins the harness to the paper: Table
// 1, Figure 1 and the nine theorem experiments, in EXPERIMENTS.md order.
// Engine performance is measured by the benchmark/ module, not here.
func TestExperimentListIsThePaperArtifacts(t *testing.T) {
	var ids []string
	for _, e := range Experiments {
		ids = append(ids, e.ID)
	}
	if got, want := strings.Join(ids, " "), "T1 F1 E1 E2 E3 E4 E5 E6 E7 E8 E9"; got != want {
		t.Errorf("experiments = %s, want %s", got, want)
	}
}

func TestTableRenderMismatch(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Claim: "c", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	if !strings.Contains(tbl.Render(), "MISMATCH") {
		t.Error("OK=false should render as MISMATCH")
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
