package repro

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestEvalMatrix drives the one evaluation path through every combination of
// its axes — {Datalog, SPARQL} × {default, exact} × {plain, explained} — over
// each kind of outcome, and checks what the single path promises: asking for
// a report never changes the answer, the exact path answers what the default
// one does — here the chase leaves no goal open, so it is the same evaluation
// and asks ProofTree nothing — and limits surface the same way on every
// combination (budget trips degrade, cancellation and panics are typed
// errors).
func TestEvalMatrix(t *testing.T) {
	const reach = `
		triple(?X, partOf, transportService) -> ts(?X).
		triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
		ts(?X) -> query(?X).
	`
	plainGraph, err := ParseGraph(facadeData)
	if err != nil {
		t.Fatal(err)
	}
	onto, err := ParseOntology(`SubClassOf(student, person) SubClassOf(∃advises⁻, student)
		DisjointClasses(person, course)
		ObjectPropertyAssertion(advises, ada, bob) ClassAssertion(course, bob)`)
	if err != nil {
		t.Fatal(err)
	}
	topGraph := onto.ToGraph()
	mustQuery := func(src string) Query {
		q, err := ParseQuery(src, "query")
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	mustSPARQL := func(src string) *SPARQLQuery {
		q, err := ParseSPARQL(src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	// input is one spelling of a request: the language axis.
	type input struct {
		name string
		g    *Graph
		req  Request
	}
	datalog := func(g *Graph, src string) input {
		return input{"datalog", g, Request{Query: mustQuery(src), Language: TriQLite10}}
	}
	sparql := func(g *Graph, src string, regime Regime) input {
		return input{"sparql", g, Request{SPARQL: mustSPARQL(src), Regime: regime}}
	}
	partOf := sparql(plainGraph, `SELECT ?X ?Y WHERE { ?X partOf ?Y }`, PlainRegime)

	type scenario struct {
		name   string
		inputs []input
		ctx    context.Context
		// tune adjusts the options.
		tune func(o *Options)
		// check judges one successful response; wantErr, when set, is the
		// sentinel every combination must fail with instead.
		check   func(t *testing.T, in input, exact bool, resp *Response)
		wantErr error
	}
	scenarios := []scenario{
		{
			name:   "consistent",
			inputs: []input{datalog(plainGraph, reach), partOf},
			check: func(t *testing.T, in input, exact bool, resp *Response) {
				// Two transport services reach; two triples have partOf.
				if resp.Inconsistent || resp.Incomplete || !resp.Exact || len(resp.Rows()) != 2 {
					t.Errorf("got %d rows (inconsistent=%v incomplete=%v exact=%v), want 2 exact rows",
						len(resp.Rows()), resp.Inconsistent, resp.Incomplete, resp.Exact)
				}
			},
		},
		{
			name: "inconsistent",
			inputs: []input{
				datalog(plainGraph, reach+`ts(?X), triple(?X, partOf, transportService) -> false.`),
				sparql(topGraph, `SELECT ?X WHERE { ?X rdf:type person }`, ActiveDomainRegime),
			},
			check: func(t *testing.T, in input, exact bool, resp *Response) {
				if len(resp.Rows()) != 0 || resp.Mappings != nil && resp.Mappings.Len() != 0 {
					t.Errorf("⊤ has no rows, got %v", resp.Rows())
				}
				if !resp.Inconsistent || resp.Incomplete {
					t.Errorf("got inconsistent=%v incomplete=%v, want ⊤", resp.Inconsistent, resp.Incomplete)
				}
			},
		},
		{
			name:   "budget",
			inputs: []input{datalog(plainGraph, reach), partOf},
			// The exact path trips the chase's budget too: its chase leaves no
			// goal open for ProofTree.
			tune: func(o *Options) { o.Chase.MaxFacts = 6 },
			check: func(t *testing.T, in input, exact bool, resp *Response) {
				if !resp.Incomplete || resp.Exact || resp.Truncation == nil || resp.Truncation.Limit != limits.LimitFacts {
					t.Errorf("got incomplete=%v exact=%v truncation=%v, want a facts trip", resp.Incomplete, resp.Exact, resp.Truncation)
				}
				if in.name == "sparql" && (!resp.Mappings.Incomplete || resp.Mappings.Truncation != resp.Truncation) {
					t.Error("the mapping set does not carry the truncation")
				}
				// Soundness: a partial answer is a subset of the full one.
				full, err := Eval(context.Background(), in.g, in.req)
				skipInjected(t, err)
				if err != nil {
					t.Fatal(err)
				}
				fullRows := strings.Join(full.Rows(), "\n")
				if len(resp.Rows()) >= len(full.Rows()) {
					t.Errorf("partial answer has %d rows, the full one %d", len(resp.Rows()), len(full.Rows()))
				}
				for _, row := range resp.Rows() {
					if !strings.Contains(fullRows, row) {
						t.Errorf("partial row %q is not a certain answer", row)
					}
				}
			},
		},
		{
			name:    "canceled",
			inputs:  []input{datalog(plainGraph, reach), partOf},
			ctx:     canceled,
			wantErr: ErrCanceled,
		},
		{
			name:   "panic",
			inputs: []input{datalog(plainGraph, reach), partOf},
			tune: func(o *Options) {
				o.Chase.Faults = limits.NewPlan(
					limits.Fault{Point: "chase.rule", Action: limits.ActPanic},
					limits.Fault{Point: "prover.expand", Action: limits.ActPanic})
			},
			wantErr: ErrInternal,
		},
	}

	// answer is what must not depend on how the request asked.
	answer := func(resp *Response) string {
		limit := ""
		if resp.Truncation != nil {
			limit = resp.Truncation.Limit
		}
		return fmt.Sprintf("rows=%q inconsistent=%v exact=%v incomplete=%v limit=%s",
			resp.Rows(), resp.Inconsistent, resp.Exact, resp.Incomplete, limit)
	}
	for _, sc := range scenarios {
		for _, in := range sc.inputs {
			answers := map[bool]string{} // by exact, of the unexplained run
			for _, exact := range []bool{false, true} {
				for _, explain := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/exact=%v/explain=%v", sc.name, in.name, exact, explain), func(t *testing.T) {
						req := in.req
						req.Options.Exact, req.Explain = exact, explain
						if sc.tune != nil {
							sc.tune(&req.Options)
						}
						ctx := sc.ctx
						if ctx == nil {
							ctx = t.Context()
						}
						resp, err := Eval(ctx, in.g, req)
						skipInjected(t, err)
						if sc.wantErr != nil {
							if !errors.Is(err, sc.wantErr) || resp != nil {
								t.Fatalf("got (%v, %v), want %v and no response", resp, err, sc.wantErr)
							}
							var ie *limits.InternalError
							if sc.wantErr == ErrInternal && (!errors.As(err, &ie) || len(ie.Stack) == 0) {
								t.Errorf("ErrInternal must carry the captured stack: %v", err)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						sc.check(t, in, exact, resp)
						if (resp.Mappings != nil) != (in.name == "sparql" && !resp.Inconsistent) || (in.name == "sparql" && resp.Tuples != nil) {
							t.Errorf("rows in the wrong shape: tuples=%v mappings=%v", resp.Tuples, resp.Mappings)
						}
						if !explain {
							if resp.Explain != nil {
								t.Error("a report nobody asked for")
							}
							answers[exact] = answer(resp)
							return
						}
						if want, ran := answers[exact]; !ran {
							t.Skip("the unexplained run was skipped (TRIQ_FAULTS armed)")
						} else if got := answer(resp); got != want {
							t.Errorf("the explained answer differs:\n explained: %s\n     plain: %s", got, answers[exact])
						}
						rep := resp.Explain
						if rep == nil {
							t.Fatal("no report")
						}
						wantKind := map[string]string{"datalog": "triq", "sparql": "sparql"}[in.name]
						if exact {
							wantKind += "-exact"
						}
						if rep.Kind != wantKind || (rep.Regime != "") != (in.name == "sparql") || (rep.Language != "") != (in.name == "datalog") {
							t.Errorf("report labelled kind=%q language=%q regime=%q, want kind %q", rep.Kind, rep.Language, rep.Regime, wantKind)
						}
						if rep.Answers != len(resp.Rows()) || rep.Inconsistent != resp.Inconsistent || rep.Exact != resp.Exact || rep.Incomplete != resp.Incomplete {
							t.Errorf("report (answers=%d inconsistent=%v exact=%v incomplete=%v) disagrees with the response (%s)",
								rep.Answers, rep.Inconsistent, rep.Exact, rep.Incomplete, answer(resp))
						}
						if rep.Prover != nil {
							t.Errorf("ProofTree ran (%+v), but the chase leaves no goal open", rep.Prover)
						}
					})
				}
			}
			if len(answers) == 2 && answers[false] != answers[true] {
				t.Errorf("%s/%s: the default and the exact path disagree:\n default: %s\n   exact: %s", sc.name, in.name, answers[false], answers[true])
			}
		}
	}
}

// TestDeepenedEvaluationNumbersAgree: every number an operator reads about an
// evaluation that deepened — Stats, the EXPLAIN report and its per-rule and
// per-step breakdowns, the request's resource account, the registry counters
// behind /metrics — counts the same work, because the depth steps share one
// engine that derives each fact once, and the closing pass that ends them is
// one more step of that engine. (When every step chased from scratch the
// counters added up three runs, 12 205 facts, and the rest reported the last,
// 6 303; one engine deepening to bound 6 derived those 6 303 once.)
func TestDeepenedEvaluationNumbersAgree(t *testing.T) {
	g := workload.University(4, 2, 3, false).ToGraph()
	sq, err := ParseSPARQL("SELECT ?X WHERE { ?X rdf:type person }")
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	ids := obs.NewIDSource(16)
	tr := obs.NewTrace(ids.TraceID(), ids, false)
	req := Request{SPARQL: sq, Regime: ActiveDomainRegime, Explain: true}
	req.Options.Chase.Obs = o
	resp, err := Eval(obs.ContextWithTrace(context.Background(), tr), g, req)
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	st, rep := resp.Stats, resp.Explain
	// The probe at depth 0 and a closing pass on rung 1 (2 311 facts at depth 2
	// before there was a probe), over the fixpoint of τ_owl2ql_core's database
	// part, which this first request over the graph builds (891 facts while
	// every request derived that part too).
	if len(st.Deepening) != 2 || !st.Deepening[1].Closing || !st.Deepening[1].Coarse || st.FactsDerived != 612 || !resp.Exact || resp.Depth != 0 {
		t.Fatalf("the university request must take the probe and a closing pass on rung 1 to 612 facts, exact at depth 0: %+v", st.Deepening)
	}
	if lb := rep.LibraryBase; lb == nil || !lb.Built || !strings.Contains(rep.String(), fmt.Sprintf("library base: built, %d facts\n", lb.Facts)) {
		t.Errorf("EXPLAIN reports library base %+v:\n%s", lb, rep)
	}
	for name, want := range map[string]int{
		"chase.runs":                1, // engines, not steps
		"chase.deepen_restarts":     0,
		"chase.closed":              1,
		"chase.closing_failed":      0,
		"chase.library_base_builds": 1,
		"chase.rounds":              st.Rounds,
		"chase.triggers_fired":      st.TriggersFired,
		"chase.facts_derived":       st.FactsDerived,
		"chase.nulls_invented":      st.NullsInvented,
	} {
		if got := o.Registry().Counter(name); got != int64(want) {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	ruleFacts, stepFacts := 0, 0
	for _, ru := range rep.Rules {
		ruleFacts += ru.FactsDerived
	}
	for i, d := range rep.Deepening {
		stepFacts += d.NewFacts
		if d.Resumed != (i > 0) {
			t.Errorf("step %d: resumed = %v", i, d.Resumed)
		}
	}
	if rep.FactsDerived != st.FactsDerived || ruleFacts != st.FactsDerived || stepFacts != st.FactsDerived {
		t.Errorf("EXPLAIN: %d facts, %d over its rules, %d over its steps; Stats: %d",
			rep.FactsDerived, ruleFacts, stepFacts, st.FactsDerived)
	}
	if acct := tr.Account(); acct.ChaseRuns != 1 || acct.FactsDerived != int64(st.FactsDerived) || acct.Rounds != int64(st.Rounds) {
		t.Errorf("account: %+v", acct)
	}
	if want := "deepening: depth 0: +408 facts, 60 parked → closed (coarse): +204 facts, 0 ground\n"; !strings.Contains(rep.String(), want) {
		t.Errorf("EXPLAIN text lacks the deepening line %q:\n%s", want, rep)
	}
}

// TestExactUniversityIsTheChase: the headline request with Exact set is the
// default evaluation — the probe at depth 0 and a closing pass, 612 facts over
// the library base, 32 rows — and asks ProofTree nothing. (When the exact path asked ProofTree
// about every tuple over dom instead, it returned no row and tripped a
// 200 000-visit budget.)
func TestExactUniversityIsTheChase(t *testing.T) {
	g := workload.University(4, 2, 3, false).ToGraph()
	sq, err := ParseSPARQL("SELECT ?X WHERE { ?X rdf:type person }")
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	var resps []*Response
	for _, exact := range []bool{false, true} {
		req := Request{SPARQL: sq, Regime: ActiveDomainRegime}
		req.Options.Exact = exact
		req.Options.Chase.Obs = o
		resp, err := Eval(t.Context(), g, req)
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
	}
	def, exact := resps[0], resps[1]
	if len(exact.Rows()) != 32 || !exact.Exact || exact.Incomplete || exact.Depth != 0 || exact.Stats.FactsDerived != 612 {
		t.Errorf("exact: %d rows, exact %v, incomplete %v, depth %d, %d facts; want 32 exact rows at depth 0 from 612 facts",
			len(exact.Rows()), exact.Exact, exact.Incomplete, exact.Depth, exact.Stats.FactsDerived)
	}
	if strings.Join(def.Rows(), "\n") != strings.Join(exact.Rows(), "\n") || def.Stats.Rounds != exact.Stats.Rounds ||
		def.Stats.TriggersFired != exact.Stats.TriggersFired || def.Stats.NullsInvented != exact.Stats.NullsInvented ||
		fmt.Sprint(def.Stats.Deepening) != fmt.Sprint(exact.Stats.Deepening) {
		t.Errorf("the exact evaluation differs from the default one:\n default: %+v\n   exact: %+v", def.Stats.Deepening, exact.Stats.Deepening)
	}
	if n := o.Registry().Counter("prover.components"); n != 0 {
		t.Errorf("ProofTree visited %d components", n)
	}
}

// TestEvalRejectsEmptyRequest: a Request naming no query is an error, not a
// panic recovered as ErrInternal.
func TestEvalRejectsEmptyRequest(t *testing.T) {
	g, _ := ParseGraph("a p b .")
	if _, err := Eval(t.Context(), g, Request{}); err == nil || errors.Is(err, ErrInternal) {
		t.Fatalf("Eval(Request{}) = %v, want a plain error", err)
	}
}

// TestFacadeSurface pins the exported identifiers of triq.go against
// testdata/facade_api.golden, so a new entry point is a reviewed golden diff
// rather than drift. Regenerate with: go test -run TestFacadeSurface . -update
func TestFacadeSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "triq.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(kind string, id *ast.Ident) {
		if id.IsExported() {
			names = append(names, kind+" "+id.Name)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			kind := "func"
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				kind = "method " + recv.(*ast.Ident).Name
			}
			add(kind, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add("type", spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(d.Tok.String(), id)
					}
				}
			}
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	const golden = "testdata/facade_api.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("the facade's exported surface changed; review and rerun with -update:\n--- got\n%s--- want\n%s", got, want)
	}
}
