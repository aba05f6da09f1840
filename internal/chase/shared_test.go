package chase_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/mat"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
	"repro/internal/workload"
)

// openChain is a query composed with τ_owl2ql_core whose evaluation ends
// truncated with an open goal: cyc(a) needs an r-cycle, which only the closing
// pass's merged summary null has.
const openChain = `
triple(?X, rdf:type, start) -> p(?X).
p(?X) -> exists ?Y r(?X, ?Y).
r(?X, ?Y) -> exists ?Z r(?Y, ?Z).
r(?X, ?Y), r(?Y, ?X), p(?W) -> cyc(?W).
`

// TestComposedEvaluationsShareLibrary races 32 goroutines on composed
// evaluations that run one compiled library at once — SELECT requests under
// U, All and RDFS over two graphs, from the fixpoint of the library's database
// part and, over a copy of the load, without it; exact requests; the open
// goals of a truncated evaluation; and the cold materialized build of an RDFS
// query, which prepares its engine through NewIncremental — and checks every
// answer against a sequential run afterwards. Every engine runs the library's
// compiled rules themselves, resolving their patterns in scratch of its own, so
// the compiled libraries must come out of it equal to a fresh compile.
func TestComposedEvaluationsShareLibrary(t *testing.T) {
	graphs := []*rdf.Graph{
		workload.University(2, 2, 2, false).ToGraph(),
		workload.University(1, 3, 1, true).ToGraph(),
	}
	open := workload.University(1, 1, 1, false).ToGraph()
	open.Add(rdf.T("a", "rdf:type", "start"))
	sel := sparql.MustParseQuery(`SELECT ?X ?Y WHERE { ?X worksFor ?Y . OPTIONAL { ?X rdf:type professor } }`)
	person := sparql.MustParseQuery(`SELECT ?X WHERE { ?X rdf:type person }`)
	chain := datalog.Compose(datalog.MustParse(openChain), owl.Library(), true, "")
	if chain.Composed() == nil {
		t.Fatal("the open chain takes the from-scratch path")
	}
	type request func() (string, error)
	var requests []request
	for _, g := range graphs {
		for _, regime := range []translate.Regime{translate.ActiveDomain, translate.All, translate.RDFS} {
			requests = append(requests, func() (string, error) {
				resp, err := repro.Eval(context.Background(), g, repro.Request{SPARQL: sel, Regime: regime})
				if err != nil {
					return "", err
				}
				rows := resp.Rows()
				slices.Sort(rows)
				return fmt.Sprint(resp.Inconsistent, rows), nil
			})
		}
		for _, regime := range []translate.Regime{translate.ActiveDomain, translate.RDFS} {
			requests = append(requests, func() (string, error) {
				tr, err := translate.Translate(person.Pattern(), regime)
				if err != nil {
					return "", err
				}
				res, err := triq.EvalCtx(context.Background(), translate.DB(g).Clone(), tr.Query, triq.Unrestricted, triq.Options{})
				if err != nil {
					return "", err
				}
				if res.LibraryBase != nil {
					return "", fmt.Errorf("%v over a copy of the load started from the library base", regime)
				}
				return fmt.Sprint(res.Answers, res.Stats.FactsDerived, res.Stats.NullsInvented), nil
			})
		}
		requests = append(requests, func() (string, error) {
			resp, err := repro.Eval(context.Background(), g, repro.Request{SPARQL: person, Regime: translate.ActiveDomain,
				Options: repro.Options{Exact: true}})
			if err != nil {
				return "", err
			}
			rows := resp.Rows()
			slices.Sort(rows)
			return fmt.Sprint(resp.Inconsistent, resp.Exact, rows), nil
		})
		requests = append(requests, func() (string, error) {
			tr, err := translate.Translate(person.Pattern(), translate.RDFS)
			if err != nil {
				return "", err
			}
			m := mat.New(mat.Config{})
			m.Reset(1)
			served, err := m.BuildServeKey(context.Background(), translate.DB(g), tr.Query.Program, "q", 1, tr.Query.Output, chase.Options{})
			if err != nil || served == nil {
				return "", fmt.Errorf("the cold build served %v: %v", served, err)
			}
			return fmt.Sprint(served.Inconsistent, served.Output, served.Facts), nil
		})
	}
	requests = append(requests,
		func() (string, error) {
			gr, err := chase.StableGroundCtx(context.Background(), translate.DB(open), chain, chase.Options{MaxDepth: 6})
			if err != nil {
				return "", err
			}
			goals, err := gr.OpenGoals("cyc")
			if err != nil || gr.Exact || len(goals) == 0 {
				return "", fmt.Errorf("open goals %v (exact %v): %v", goals, gr.Exact, err)
			}
			return fmt.Sprint(goals, gr.Depth, gr.Stats.FactsDerived), nil
		},
		func() (string, error) {
			res, err := triq.EvalCtx(context.Background(), translate.DB(open), datalog.NewQuery(chain, "cyc"), triq.TriQLite10,
				triq.Options{Exact: true, Chase: chase.Options{MaxDepth: 6}})
			if err != nil {
				return "", err
			}
			return fmt.Sprint(res.Answers, res.Exact), nil
		})

	const goroutines = 32
	got := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := requests[i%len(requests)]()
			if err != nil {
				t.Error(err)
			}
			got[i] = out
		}()
	}
	wg.Wait()
	for i := range goroutines {
		want, err := requests[i%len(requests)]()
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("goroutine %d: the concurrent evaluation answered\n%s\nthe sequential run\n%s", i, got[i], want)
		}
	}
	for _, lib := range []*datalog.Library{owl.Library(), owl.RDFSLibrary()} {
		if !reflect.DeepEqual(chase.CompiledOf(lib), chase.Compile(lib)) {
			t.Errorf("the compiled library of %d rules changed under the evaluations that ran it", len(lib.Work(false)))
		}
	}
}

// TestComposedPrepareAllocs: preparing a composed program compiles the
// query's rules and points at the library's compiled ones, so it allocates as
// often whether its library is τ_owl2ql_core (28 evaluation rules) or ρdf (8).
// A library rule costs the engine its stats slot (80 B), its place in its
// stratum and its buffer of parked triggers: 256 B measured, against the 997 B
// it cost while every engine copied the compiled rule's patterns.
func TestComposedPrepareAllocs(t *testing.T) {
	q := datalog.MustParse(`triple1(?X, rdf:type, ?Y), C(?X), not triple1(?Y, rdf:type, ?X) -> query(?X, ?Y).`)
	libs := []*datalog.Library{owl.Library(), owl.RDFSLibrary()}
	var allocs, bytes [2]float64
	for i, lib := range libs {
		prog := datalog.Compose(q, lib, false, "ontology")
		if prog.Composed() == nil {
			t.Fatalf("the query over the library of %d rules takes the from-scratch path", len(lib.Work(false)))
		}
		if err := chase.Prepare(prog); err != nil { // compiles the library
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(200, func() { chase.Prepare(prog) })
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			chase.Prepare(prog)
		}
		runtime.ReadMemStats(&after)
		bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	extra := float64(len(libs[0].Work(false)) - len(libs[1].Work(false)))
	t.Logf("τ_owl2ql_core: %.0f allocations, %.0f B; ρdf: %.0f allocations, %.0f B; %.0f B per further rule",
		allocs[0], bytes[0], allocs[1], bytes[1], (bytes[0]-bytes[1])/extra)
	if lo, hi := min(allocs[0], allocs[1]), max(allocs[0], allocs[1]); hi > 1.1*lo {
		t.Errorf("preparing over τ_owl2ql_core allocates %.0f times, over ρdf %.0f: more than 10%% apart", allocs[0], allocs[1])
	}
	if per := (bytes[0] - bytes[1]) / extra; per > 320 {
		t.Errorf("each further library rule costs %.0f B to prepare, want at most 320", per)
	}
}
