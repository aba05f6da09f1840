package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/chase"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
	"repro/internal/workload"
)

// e11Reps is how many times each (workload, workers) point is run; the
// minimum wall clock is reported, which damps scheduler noise without
// hiding a missing speedup.
const e11Reps = 3

// e11Run is one measured point: the canonical answer rendering, the stats
// fingerprint that must match the sequential baseline bit for bit, and the
// best-of-reps chase wall clock.
type e11Run struct {
	answers string
	fprint  string
	stats   chase.Stats
	elapsed time.Duration
}

// e11Fingerprint renders the stats fields the determinism contract covers:
// everything except the configured worker count and the per-rule wall
// clocks, which legitimately vary across widths.
func e11Fingerprint(s chase.Stats) string {
	s.Parallelism = 0
	per := make([]chase.RuleStats, len(s.PerRule))
	copy(per, s.PerRule)
	for i := range per {
		per[i].Time = 0
	}
	s.PerRule = per
	return fmt.Sprintf("%+v", s)
}

// e11Workload is one materialization workload of the sweep. run evaluates it
// at the given worker count and returns the rendered answers plus stats.
type e11Workload struct {
	name string
	run  func(workers int) (string, chase.Stats, error)
}

func e11Workloads() []e11Workload {
	return []e11Workload{
		{
			// The paper's transport closure on a large network: a pure
			// Datalog saturation, the headline materialization workload.
			name: "transport lines=48",
			run: func(workers int) (string, chase.Stats, error) {
				db := workload.Transport(48, 3, 6)
				res, err := triq.Eval(db, workload.TransportQuery(), triq.TriQLite10,
					triq.Options{Chase: chase.Options{Parallelism: workers}})
				if err != nil {
					return "", chase.Stats{}, err
				}
				return renderTuples(res), res.Stats, nil
			},
		},
		{
			// Example 4.3's k-clique program: wide joins, the heaviest
			// per-round trigger enumeration in the harness.
			name: "clique n=7 k=4",
			run: func(workers int) (string, chase.Stats, error) {
				nodes, edges := workload.RandomGraph(7, 0.5, 74)
				db := workload.CliqueDB(4, nodes, edges)
				res, err := triq.Eval(db, workload.CliqueQuery(), triq.TriQ10,
					triq.Options{Chase: chase.Options{Parallelism: workers, MaxFacts: 10_000_000}})
				if err != nil {
					return "", chase.Stats{}, err
				}
				return renderTuples(res), res.Stats, nil
			},
		},
		{
			// The OWL 2 QL regime over a university ontology: existential
			// rules, so Skolem-null invention order is on the line too.
			name: "university regime",
			run: func(workers int) (string, chase.Stats, error) {
				o := workload.University(3, 2, 3, false)
				p := sparql.BGP{Triples: []sparql.TriplePattern{
					sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI("person")),
				}}
				tr, err := translate.Translate(p, translate.ActiveDomain)
				if err != nil {
					return "", chase.Stats{}, err
				}
				ans, evalRes, err := tr.EvaluateCtx(context.Background(), o.ToGraph(),
					triq.Options{Chase: chase.Options{Parallelism: workers, MaxDepth: 10}})
				if err != nil {
					return "", chase.Stats{}, err
				}
				return ans.String(), evalRes.Stats, nil
			},
		},
	}
}

// renderTuples gives a canonical string for a result's answer tuples. The
// chase is deterministic, so no sorting is needed — byte equality across
// worker counts is exactly the claim under test.
func renderTuples(res *triq.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "inconsistent=%v\n", res.Answers.Inconsistent)
	for _, tup := range res.Answers.Tuples {
		parts := make([]string, len(tup))
		for i, t := range tup {
			parts[i] = t.String()
		}
		b.WriteString(strings.Join(parts, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// e11Point measures one (workload, workers) cell: best of e11Reps runs.
func e11Point(w e11Workload, workers int) (e11Run, error) {
	var out e11Run
	for rep := 0; rep < e11Reps; rep++ {
		start := time.Now()
		answers, stats, err := w.run(workers)
		elapsed := time.Since(start)
		if err != nil {
			return e11Run{}, err
		}
		if rep == 0 || elapsed < out.elapsed {
			out.elapsed = elapsed
		}
		out.answers, out.stats, out.fprint = answers, stats, e11Fingerprint(stats)
	}
	return out, nil
}

// RunE11 measures the parallel chase: each materialization workload is
// evaluated at 1, 2, 4, and 8 workers. Correctness is the headline claim —
// answers and chase statistics must be byte-identical to the sequential run
// at every width — and the wall-clock speedup over the 1-worker baseline is
// reported alongside. OK tracks only the determinism contract: speedup
// depends on the host's core count (see the GOMAXPROCS note), identity does
// not.
func RunE11() *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Parallel chase: deterministic speedup over the sequential engine",
		Claim:   "trigger enumeration parallelizes across workers while answers, Skolem nulls, and per-rule stats stay bit-identical",
		Columns: []string{"workload", "workers", "chase time", "speedup", "identical"},
		OK:      true,
	}
	widths := []int{1, 2, 4, 8}
	for _, w := range e11Workloads() {
		var base e11Run
		for _, workers := range widths {
			run, err := e11Point(w, workers)
			if err != nil {
				t.OK = false
				t.Notes = append(t.Notes, fmt.Sprintf("%s workers=%d: %v", w.name, workers, err))
				continue
			}
			identical := true
			speedup := "1.00x"
			if workers == 1 {
				base = run
			} else {
				identical = run.answers == base.answers && run.fprint == base.fprint
				if !identical {
					t.OK = false
				}
				speedup = fmt.Sprintf("%.2fx", float64(base.elapsed)/float64(run.elapsed))
			}
			t.Breakdown = append(t.Breakdown,
				chaseBreakdown(fmt.Sprintf("%s workers=%d", w.name, workers), run.stats)...)
			t.Rows = append(t.Rows, []string{
				w.name, fmt.Sprintf("%d", workers), dur(run.elapsed), speedup,
				fmt.Sprintf("%v", identical),
			})
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Host: GOMAXPROCS=%d. Wall-clock speedup needs >1 core; the identity columns are the load-bearing result on single-core hosts.",
		runtime.GOMAXPROCS(0)))
	return t
}
