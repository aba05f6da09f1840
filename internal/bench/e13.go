package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chase"
	"repro/internal/obs"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
	"repro/internal/workload"
)

// e13Reps mirrors e12Reps: interleaved baseline/traced pairs, minima
// compared.
const e13Reps = 5

// e13Overhead is the accepted tracing overhead at the default 10% sampling
// rate. The target recorded in EXPERIMENTS.md is 5%; the gate is doubled so a
// noisy CI host does not flip the table.
const e13Overhead = 0.10

// e13Sample is the head-sampling rate the overhead is projected at — the
// server's default.
const e13Sample = 0.10

// e13Workload is one E12 workload evaluated under a caller-supplied context,
// so the same code path runs without a trace, with an account-only
// (non-recording) trace, and with a recording trace.
type e13Workload struct {
	name string
	run  func(ctx context.Context, o chase.Options) error
}

func e13Workloads() []e13Workload {
	return []e13Workload{
		{
			name: "transport lines=48",
			run: func(ctx context.Context, o chase.Options) error {
				db := workload.Transport(48, 3, 6)
				_, err := triq.EvalCtx(ctx, db, workload.TransportQuery(), triq.TriQLite10, triq.Options{Chase: o})
				return err
			},
		},
		{
			name: "clique n=7 k=4",
			run: func(ctx context.Context, o chase.Options) error {
				nodes, edges := workload.RandomGraph(7, 0.5, 74)
				db := workload.CliqueDB(4, nodes, edges)
				o.MaxFacts = 10_000_000
				_, err := triq.EvalCtx(ctx, db, workload.CliqueQuery(), triq.TriQ10, triq.Options{Chase: o})
				return err
			},
		},
		{
			name: "university regime",
			run: func(ctx context.Context, o chase.Options) error {
				onto := workload.University(3, 2, 3, false)
				p := sparql.BGP{Triples: []sparql.TriplePattern{
					sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI("person")),
				}}
				tr, err := translate.Translate(p, translate.ActiveDomain)
				if err != nil {
					return err
				}
				o.MaxDepth = 10
				_, _, err = tr.EvaluateCtx(ctx, onto.ToGraph(), triq.Options{Chase: o})
				return err
			},
		},
	}
}

// e13Run evaluates one workload under a fresh trace (recording or not) and
// returns the wall time. The baseline passes a nil trace — plain context.
func e13Run(w e13Workload, ids *obs.IDSource, recording bool, withTrace bool) (time.Duration, error) {
	o := obs.New()
	ctx := context.Background()
	var tr *obs.Trace
	if withTrace {
		tr = obs.NewTrace(ids.TraceID(), ids, recording)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	start := time.Now()
	err := w.run(ctx, par(chase.Options{Obs: o, Progress: &chase.Progress{}}))
	d := time.Since(start)
	tr.Finish()
	return d, err
}

// RunE13 measures the cost of request-scoped tracing on top of the E12
// telemetry baseline. Three variants run interleaved per rep: no trace (the
// E12 "telemetry on" configuration — the PR-5 baseline), an account-only
// trace (what the 90% of unsampled requests pay: resource accounting but no
// span tree), and a recording trace (span-tree nodes, per-rule pprof
// labels). The reported overhead is the expected cost at the server's
// default 10% head-sampling rate:
//
//	cost(10%) = 0.9·account-only + 0.1·recording
//
// compared against the no-trace baseline, minima over e13Reps interleaved
// reps on every side.
func RunE13() *Table {
	t := &Table{
		ID:      "E13",
		Title:   "Tracing overhead: span trees + resource accounts at 10% sampling",
		Claim:   "request tracing costs ≤5% wall clock at the default 10% sampling rate",
		Columns: []string{"workload", "no trace", "account only", "recording", "overhead @10%", "within bound"},
		OK:      true,
	}
	ids := obs.NewIDSource(1)
	for _, w := range e13Workloads() {
		var baseBest, acctBest, recBest time.Duration
		failed := false
		for rep := 0; rep < e13Reps; rep++ {
			base, err1 := e13Run(w, ids, false, false)
			acct, err2 := e13Run(w, ids, false, true)
			rec, err3 := e13Run(w, ids, true, true)
			if err1 != nil || err2 != nil || err3 != nil {
				t.OK = false
				failed = true
				t.Notes = append(t.Notes, fmt.Sprintf("%s: base=%v acct=%v rec=%v", w.name, err1, err2, err3))
				break
			}
			if rep == 0 || base < baseBest {
				baseBest = base
			}
			if rep == 0 || acct < acctBest {
				acctBest = acct
			}
			if rep == 0 || rec < recBest {
				recBest = rec
			}
		}
		if failed {
			continue
		}
		sampled := time.Duration((1-e13Sample)*float64(acctBest) + e13Sample*float64(recBest))
		overhead := float64(sampled-baseBest) / float64(baseBest)
		ok := overhead <= e13Overhead
		if !ok {
			t.gate("%s: tracing overhead %+.1f%% over the %.0f%% bar", w.name, overhead*100, e13Overhead*100)
		}
		t.Rows = append(t.Rows, []string{
			w.name, dur(baseBest), dur(acctBest), dur(recBest),
			fmt.Sprintf("%+.1f%%", overhead*100), fmt.Sprintf("%v", ok),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Best of %d interleaved reps per variant; overhead projected at %.0f%% sampling (0.9·account + 0.1·recording vs no trace). Target ≤5%%; the gate allows %.0f%% headroom for scheduler noise.",
		e13Reps, e13Sample*100, e13Overhead*100))
	return t
}
