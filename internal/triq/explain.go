// EXPLAIN: per-query structured telemetry. Explained runs an evaluation
// under a private observability registry, then distills the run into an
// ExplainReport: per-rule chase stats with
// provenance (which SPARQL operator or ontology emitted each rule), prover memo
// behavior when the exact procedure ran, and wall-time percentiles per
// pipeline stage. The report answers "why was this query slow" from one run,
// without rerunning under -trace.
package triq

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/chase"
	"repro/internal/limits"
	"repro/internal/obs"
)

// RuleExplain is one rule's share of the chase work.
type RuleExplain struct {
	// Index is the rule's position in stratum evaluation order.
	Index int `json:"index"`
	// Rule is the rule's source rendering.
	Rule string `json:"rule"`
	// Origin is the rule's provenance: for translated SPARQL queries the
	// operator that emitted it (BGP, AND, UNION, OPT, FILTER, SELECT,
	// τ_out, EQ, ontology); empty for hand-written rules.
	Origin            string `json:"origin,omitempty"`
	TriggersAttempted int    `json:"triggers_attempted"`
	TriggersFired     int    `json:"triggers_fired"`
	FactsDerived      int    `json:"facts_derived"`
	NullsInvented     int    `json:"nulls_invented"`
	TimeUS            int64  `json:"time_us"`
}

// StageExplain summarizes one pipeline stage's wall-clock span histogram
// (all values in microseconds).
type StageExplain struct {
	// Stage is the span name (e.g. "chase.round", "translate.compile").
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	TotalUS float64 `json:"total_us"`
	P50US   float64 `json:"p50_us"`
	P95US   float64 `json:"p95_us"`
	P99US   float64 `json:"p99_us"`
	MaxUS   float64 `json:"max_us"`
}

// ProverExplain reports the ProofTree search-space metrics of an exact run.
type ProverExplain struct {
	Proofs      int64 `json:"proofs"`
	Components  int64 `json:"components"`
	Expansions  int64 `json:"expansions"`
	MemoHits    int64 `json:"memo_hits"`
	MemoMisses  int64 `json:"memo_misses"`
	Resolutions int64 `json:"resolutions"`
}

// ExplainReport is the structured result of an explained evaluation.
type ExplainReport struct {
	// Kind names the evaluation path: "triq", "triq-exact", "sparql", or
	// "sparql-exact".
	Kind string `json:"kind"`
	// Language is the dialect the query was validated against (TriQ paths).
	Language string `json:"language,omitempty"`
	// Regime is the SPARQL entailment regime (SPARQL path only).
	Regime string `json:"regime,omitempty"`

	// Path reports how the answer was produced: "materialized" (warm
	// materialization hit), "materialized-build", or "chase".
	Path string `json:"path,omitempty"`

	Answers      int                `json:"answers"`
	Inconsistent bool               `json:"inconsistent,omitempty"`
	Exact        bool               `json:"exact"`
	Incomplete   bool               `json:"incomplete,omitempty"`
	Truncation   *limits.Truncation `json:"truncation,omitempty"`

	Depth         int `json:"depth"`
	Rounds        int `json:"rounds"`
	TriggersFired int `json:"triggers_fired"`
	FactsDerived  int `json:"facts_derived"`
	NullsInvented int `json:"nulls_invented"`

	// Deepening lists the depth steps the chase took, in order, the closing
	// pass that ended them included; the counters above are their sum unless a
	// step started over (a step past the first that did not resume, whose
	// facts are a whole chase).
	Deepening []chase.DeepenStep `json:"deepening,omitempty"`
	// Rules is the per-rule chase breakdown, sorted by cumulative time
	// (slowest first). Trigger/fact totals equal the run's chase.Stats.
	Rules []RuleExplain `json:"rules"`
	// Stages summarizes every span histogram the run produced.
	Stages []StageExplain `json:"stages,omitempty"`
	// Prover is set when the exact (ProofTree) procedure ran.
	Prover *ProverExplain `json:"prover,omitempty"`

	// TotalUS is the wall-clock time of the whole explained evaluation.
	TotalUS int64 `json:"total_us"`

	// Resources is the request's resource account when the evaluation ran
	// under a traced request (internal/serve fills it); nil otherwise. Its
	// chase counters mirror the final evaluation's chase.Stats exactly.
	Resources *obs.Account `json:"resources,omitempty"`
}

// Explained is the one explain wrap: it runs eval — any evaluation, handed
// the options it must evaluate under — with a fresh private *obs.Obs in place
// of opts.Chase.Obs, so stage times and counters are this query's
// alone, and distills the run into a report of the given kind. Taking the
// evaluation as a closure lets a caller put more than the chase inside the
// measured region (the facade translates and decodes SPARQL there, so the
// translate.* spans land in the report's stage table). If the caller had an
// Obs attached, the private registry is folded back into it afterwards, so
// long-lived metrics (triqd's /metrics) still see the run. Span JSONL sinks
// are not forwarded. On an error there is no report.
func Explained(kind string, opts Options, eval func(Options) (*Result, error)) (*Result, *ExplainReport, error) {
	priv, orig := obs.New(), opts.Chase.Obs
	opts.Chase.Obs = priv
	start := time.Now()
	res, err := eval(opts)
	elapsed := time.Since(start)
	if orig != nil {
		orig.Registry().MergeFrom(priv.Registry())
	}
	if err != nil {
		return res, nil, err
	}
	rep := buildExplain(res, priv.Registry(), elapsed)
	rep.Kind = kind
	return res, rep, nil
}

// buildExplain distills an evaluation result plus the private registry it
// ran under into a report.
func buildExplain(res *Result, reg *obs.Registry, elapsed time.Duration) *ExplainReport {
	rep := &ExplainReport{
		Path:       res.Path,
		Exact:      res.Exact,
		Incomplete: res.Incomplete,
		Truncation: res.Truncation,
		Depth:      res.Depth,
		TotalUS:    elapsed.Microseconds(),
	}
	if res.Answers != nil {
		rep.Answers = len(res.Answers.Tuples)
		rep.Inconsistent = res.Answers.Inconsistent
	}
	st := res.Stats
	rep.Rounds = st.Rounds
	rep.TriggersFired = st.TriggersFired
	rep.FactsDerived = st.FactsDerived
	rep.NullsInvented = st.NullsInvented
	rep.Deepening = st.Deepening
	for _, rs := range st.PerRule {
		rep.Rules = append(rep.Rules, RuleExplain{
			Index:             rs.Index,
			Rule:              rs.Rule,
			Origin:            rs.Origin,
			TriggersAttempted: rs.TriggersAttempted,
			TriggersFired:     rs.TriggersFired,
			FactsDerived:      rs.FactsDerived,
			NullsInvented:     rs.NullsInvented,
			TimeUS:            rs.Time.Microseconds(),
		})
	}
	sort.SliceStable(rep.Rules, func(i, j int) bool {
		return rep.Rules[i].TimeUS > rep.Rules[j].TimeUS
	})

	snap := reg.Snapshot()
	for name, h := range snap.Hists {
		if !strings.HasPrefix(name, "span.") {
			continue
		}
		rep.Stages = append(rep.Stages, StageExplain{
			Stage:   strings.TrimPrefix(name, "span."),
			Count:   h.Count,
			TotalUS: h.Sum,
			P50US:   h.P50,
			P95US:   h.P95,
			P99US:   h.P99,
			MaxUS:   h.Max,
		})
	}
	sort.Slice(rep.Stages, func(i, j int) bool {
		return rep.Stages[i].TotalUS > rep.Stages[j].TotalUS
	})

	if snap.Counters["prover.proofs"] > 0 || snap.Counters["prover.expansions"] > 0 {
		rep.Prover = &ProverExplain{
			Proofs:      snap.Counters["prover.proofs"],
			Components:  snap.Counters["prover.components"],
			Expansions:  snap.Counters["prover.expansions"],
			MemoHits:    snap.Counters["prover.memo_hits"],
			MemoMisses:  snap.Counters["prover.memo_misses"],
			Resolutions: snap.Counters["prover.resolutions"],
		}
	}
	return rep
}

// String renders the report as the human-readable block printed by
// `triq -explain`.
func (r *ExplainReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN %s", r.Kind)
	if r.Language != "" {
		fmt.Fprintf(&b, " (%s)", r.Language)
	}
	if r.Regime != "" {
		fmt.Fprintf(&b, " regime=%s", r.Regime)
	}
	fmt.Fprintf(&b, "  total=%s", obs.FormatDuration(time.Duration(r.TotalUS)*time.Microsecond))
	if r.Path != "" {
		fmt.Fprintf(&b, "  path=%s", r.Path)
	}
	b.WriteByte('\n')
	switch {
	case r.Inconsistent:
		b.WriteString("result: ⊤ (inconsistent)\n")
	default:
		fmt.Fprintf(&b, "result: %d answers, exact=%v", r.Answers, r.Exact)
		if r.Incomplete {
			b.WriteString(", INCOMPLETE")
			if r.Truncation != nil {
				fmt.Fprintf(&b, " (%s budget)", r.Truncation.Limit)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "chase: %d rounds at depth %d, %d triggers fired, %d facts, %d nulls\n",
		r.Rounds, r.Depth, r.TriggersFired, r.FactsDerived, r.NullsInvented)
	for i, d := range r.Deepening {
		sep := " → "
		if i == 0 {
			sep = "deepening: "
		}
		if d.Closing {
			// The pass that proved the step before it complete — or that a
			// limit cut short, the one way a listed pass leaves the evaluation
			// inexact — and whether it ran on the ladder's coarse rung.
			verb := "closed"
			if !r.Exact {
				verb = "closing cut short"
			}
			if d.Coarse {
				verb += " (coarse)"
			}
			fmt.Fprintf(&b, "%s%s: +%d facts, %d ground", sep, verb, d.NewFacts, d.NewGround)
		} else {
			fmt.Fprintf(&b, "%sdepth %d: +%d facts", sep, d.Depth, d.NewFacts)
		}
		if i > 0 && !d.Resumed {
			b.WriteString(" (started over)")
		}
		if d.Parked > 0 {
			fmt.Fprintf(&b, ", %d parked", d.Parked)
		}
		if d.Stable > 0 {
			fmt.Fprintf(&b, ", stable ×%d", d.Stable)
		}
		if i == len(r.Deepening)-1 {
			b.WriteByte('\n')
		}
	}
	if len(r.Rules) > 0 {
		fmt.Fprintf(&b, "%-5s %-9s %9s %9s %9s %7s %10s  %s\n",
			"rule", "origin", "attempted", "fired", "facts", "nulls", "time", "definition")
		for _, ru := range r.Rules {
			def := ru.Rule
			if len([]rune(def)) > 48 {
				def = string([]rune(def)[:45]) + "..."
			}
			origin := ru.Origin
			if origin == "" {
				origin = "-"
			}
			fmt.Fprintf(&b, "#%-4d %-9s %9d %9d %9d %7d %10s  %s\n",
				ru.Index, origin, ru.TriggersAttempted, ru.TriggersFired,
				ru.FactsDerived, ru.NullsInvented,
				obs.FormatDuration(time.Duration(ru.TimeUS)*time.Microsecond), def)
		}
	}
	if r.Prover != nil {
		fmt.Fprintf(&b, "prover: %d proofs, %d components, %d expansions, memo %d hits / %d misses, %d resolutions\n",
			r.Prover.Proofs, r.Prover.Components, r.Prover.Expansions,
			r.Prover.MemoHits, r.Prover.MemoMisses, r.Prover.Resolutions)
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(&b, "%-20s %7s %12s %10s %10s %10s\n",
			"stage", "count", "total", "p50", "p95", "max")
		us := func(v float64) string {
			return obs.FormatDuration(time.Duration(v) * time.Microsecond)
		}
		for _, s := range r.Stages {
			fmt.Fprintf(&b, "%-20s %7d %12s %10s %10s %10s\n",
				s.Stage, s.Count, us(s.TotalUS), us(s.P50US), us(s.P95US), us(s.MaxUS))
		}
	}
	return b.String()
}
