package repro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/limits"
	"repro/internal/translate"
	"repro/internal/workload"
)

// TestConcurrentSoak is the race-cleanliness proof for the serving layer: it
// hammers one shared Graph (plus shared parsed Query, SPARQLQuery, and
// Translation values) from many goroutines mixing every facade entry point,
// with per-evaluation fault injection (errors and panics) layered on top of
// whatever TRIQ_FAULTS arms process-wide. Run under -race in CI. Every
// outcome must be either a correct answer or a typed limits error — nothing
// else is acceptable from a server's point of view.
func TestConcurrentSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}

	shared := workload.TransportGraph(3, 2, 4, "svc")
	query, err := ParseQuery(`
		triple(?X, partOf, transportService) -> ts(?X).
		triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
		ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
		ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
		conn(?X, ?Y) -> query(?X, ?Y).
	`, "query")
	if err != nil {
		t.Fatal(err)
	}
	// The exact (ProofTree) mode gets the cheaper reachability query: full
	// transitive connectivity is exponential for proof enumeration, and the
	// soak is about shared-state safety, not prover throughput.
	exactQuery, err := ParseQuery(`
		triple(?X, partOf, transportService) -> ts(?X).
		triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
		ts(?X) -> q(?X).
	`, "q")
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ParseSPARQL(`SELECT ?x ?y WHERE { ?x partOf ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(sq.Pattern(), PlainRegime)
	if err != nil {
		t.Fatal(err)
	}

	// The full answer row count, computed once single-threaded, is the
	// correctness oracle for every fault-free concurrent evaluation. An armed
	// TRIQ_FAULTS plan can cut an oracle short too, and then the soak has
	// nothing to check against and is skipped.
	baseline, err := AskCtx(context.Background(), shared, query, TriQLite10, Options{})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(baseline.Tuples)
	if wantRows == 0 {
		t.Fatal("baseline produced no answers; soak would prove nothing")
	}
	baseMS, _, err := AskSPARQLCtx(context.Background(), sq, shared, PlainRegime, Options{})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	wantMappings := baseMS.Len()
	baseExact, err := AskCtx(context.Background(), shared, exactQuery, TriQLite10, Options{})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	wantExactRows := len(baseExact.Tuples)
	if wantExactRows == 0 {
		t.Fatal("exact baseline produced no answers")
	}

	const workers = 32
	const itersPerWorker = 8

	var ok, faulted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < itersPerWorker; i++ {
				if err := soakIteration(shared, query, exactQuery, sq, tr, wantRows, wantMappings, wantExactRows, w, i, &ok, &faulted); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("soak: %d clean evaluations, %d typed fault outcomes", ok.Load(), faulted.Load())
	if ok.Load() == 0 {
		t.Error("no evaluation completed cleanly; fault plans are drowning the soak")
	}
	if faulted.Load() == 0 {
		t.Error("no fault ever fired; the soak is not exercising the error paths")
	}
}

// soakIteration runs one mixed-mode evaluation. Iterations cycle through the
// entry points and fault styles deterministically from (worker, iter), so a
// failing seed reproduces.
func soakIteration(g *Graph, q, exactQ Query, sq *SPARQLQuery, tr *Translation,
	wantRows, wantMappings, wantExactRows, worker, iter int, ok, faulted *atomic.Int64) error {
	mode := (worker*itersPrime + iter) % 6
	opts := Options{}
	// With TRIQ_FAULTS armed process-wide (the CI soak), even iterations with
	// no per-evaluation plan can legitimately see injected errors.
	injected := os.Getenv("TRIQ_FAULTS") != ""
	switch mode % 3 {
	case 1: // transient injected error deep into the chase
		opts.Chase.Faults = limits.NewPlan(limits.Fault{
			Point: "chase.rule", After: 2 + worker%5, Times: 1,
		})
		injected = true
	case 2: // injected panic, must surface as ErrInternal, never escape
		opts.Chase.Faults = limits.NewPlan(limits.Fault{
			Point: "chase.round", After: 1 + worker%2, Times: 1, Action: limits.ActPanic,
		})
		injected = true
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	checkErr := func(err error) error {
		if errors.Is(err, limits.ErrInjected) || errors.Is(err, ErrInternal) ||
			errors.Is(err, ErrDeadline) || errors.Is(err, ErrCanceled) || IsBudget(err) {
			faulted.Add(1)
			return nil
		}
		return fmt.Errorf("outcome outside the taxonomy: %w", err)
	}

	switch mode {
	case 0, 1, 2:
		res, err := AskCtx(ctx, g, q, TriQLite10, opts)
		if err != nil {
			if !injected {
				return fmt.Errorf("Ask failed without injection: %w", err)
			}
			return checkErr(err)
		}
		if len(res.Tuples) != wantRows {
			return fmt.Errorf("Ask: got %d rows, want %d", len(res.Tuples), wantRows)
		}
	case 3, 4:
		ms, _, err := AskSPARQLCtx(ctx, sq, g, PlainRegime, opts)
		if err != nil {
			if mode == 3 && !injected {
				return fmt.Errorf("AskSPARQL failed without injection: %w", err)
			}
			return checkErr(err)
		}
		if ms.Len() != wantMappings {
			return fmt.Errorf("AskSPARQL: got %d mappings, want %d", ms.Len(), wantMappings)
		}
		// Exercise the shared compiled Translation from the same goroutine:
		// its query, evaluated as a Datalog request, has one answer tuple per
		// mapping.
		res, err := Eval(ctx, g, Request{Query: tr.Query, Language: Unrestricted})
		if err != nil {
			return checkErr(err)
		}
		if len(res.Tuples) != wantMappings {
			return fmt.Errorf("Translation: got %d tuples, want %d", len(res.Tuples), wantMappings)
		}
	default:
		opts.Exact = true
		res, err := Eval(ctx, g, Request{Query: exactQ, Language: TriQLite10, Options: opts})
		if err != nil {
			return checkErr(err)
		}
		if len(res.Tuples) != wantExactRows {
			return fmt.Errorf("exact Eval: got %d rows, want %d", len(res.Tuples), wantExactRows)
		}
	}
	ok.Add(1)
	return nil
}

// itersPrime decorrelates worker id from mode so every worker visits every
// entry point.
const itersPrime = 7
