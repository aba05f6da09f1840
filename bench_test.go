package repro_test

// One benchmark per reproduced paper artifact (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for the recorded results). The
// benchmarks exercise the same code paths as the internal/bench runners but
// at testing.B granularity.

import (
	"context"
	"fmt"
	"testing"

	"repro"

	"repro/internal/bench"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/pep"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
	"repro/internal/workload"
)

// BenchmarkT1_AxiomRDFRoundTrip measures the Table 1 mapping: axioms →
// RDF graph → axioms.
func BenchmarkT1_AxiomRDFRoundTrip(b *testing.B) {
	o := workload.University(2, 2, 2, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := o.ToGraph()
		if _, err := owl.FromGraph(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF1_ProofTree measures the ProofTree decision procedure on the
// Figure 1 instance.
func BenchmarkF1_ProofTree(b *testing.B) {
	db := chase.NewInstance(
		datalog.MustParseAtom("s(a, a, a)"),
		datalog.MustParseAtom("t(a)"),
	)
	prog := datalog.MustParse(`
		s(?X, ?Y, ?Z) -> exists ?W s(?X, ?Z, ?W).
		s(?X, ?Y, ?Z), s(?Y, ?Z, ?W) -> q(?X, ?Y).
		t(?X) -> exists ?Z p(?X, ?Z).
		p(?X, ?Y), q(?X, ?Z) -> r(?X, ?Y, ?Z).
		r(?X, ?Y, ?Z) -> p(?X, ?Z).
	`)
	goal := datalog.MustParseAtom("p(a, a)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pv, err := triq.NewProver(db, prog, triq.ProofOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ok, err := pv.Proves(goal)
		if err != nil || !ok {
			b.Fatalf("proof failed: %v %v", ok, err)
		}
	}
}

// BenchmarkE1_CliqueTriQ measures the ExpTime-hard Example 4.3 query for
// growing n and k (Theorem 4.4): watch the per-op time explode with k.
func BenchmarkE1_CliqueTriQ(b *testing.B) {
	q := workload.CliqueQuery()
	for _, cfg := range []struct{ n, k int }{{5, 3}, {7, 3}, {5, 4}, {7, 4}} {
		nodes, edges := workload.RandomGraph(cfg.n, 0.5, int64(cfg.n*10+cfg.k))
		db := workload.CliqueDB(cfg.k, nodes, edges)
		b.Run(fmt.Sprintf("n=%d/k=%d", cfg.n, cfg.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := triq.Eval(db, q, triq.TriQ10, triq.Options{
					Chase: chase.Options{MaxFacts: 10_000_000},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_TransportTriQLite measures the PTime TriQ-Lite transport
// query across database sizes (Theorem 6.7): per-op time grows polynomially.
func BenchmarkE2_TransportTriQLite(b *testing.B) {
	q := workload.TransportQuery()
	for _, lines := range []int{4, 8, 16} {
		db := workload.Transport(lines, 3, 6)
		b.Run(fmt.Sprintf("facts=%d", db.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := triq.Eval(db, q, triq.TriQLite10, triq.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_TranslationVsDirect compares direct SPARQL algebra evaluation
// with evaluation through the Datalog translation (Theorem 5.2).
func BenchmarkE3_TranslationVsDirect(b *testing.B) {
	g := ParseGraphOrDie(benchGraph(80))
	p := sparql.Opt{
		L: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("name"), sparql.Var("N"))}},
		R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("phone"), sparql.Var("P"))}},
	}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparql.Eval(p, g)
		}
	})
	b.Run("translated", func(b *testing.B) {
		tr, err := translate.Translate(p, translate.Plain)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := tr.Evaluate(g, triq.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4_EntailmentRegime measures SPARQL evaluation under the OWL 2 QL
// core direct semantics entailment regime (Theorem 5.3) across ontology
// sizes.
func BenchmarkE4_EntailmentRegime(b *testing.B) {
	p := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI("person")),
	}}
	for _, depts := range []int{1, 2, 4} {
		o := workload.University(depts, 2, 3, false)
		g := o.ToGraph()
		b.Run(fmt.Sprintf("inds=%d", len(o.Individuals())), func(b *testing.B) {
			tr, err := translate.Translate(p, translate.ActiveDomain)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := tr.Evaluate(g, triq.Options{Chase: chase.Options{MaxDepth: 10}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_UGCP measures the warded chase over the UGCP family O_n
// (Lemma 6.5).
func BenchmarkE5_UGCP(b *testing.B) {
	for _, n := range []int{4, 16} {
		db, err := chase.FromFacts(owl.GraphToDB(workload.UGCP(n).ToGraph()))
		if err != nil {
			b.Fatal(err)
		}
		prog := owl.Program().Positive()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chase.Run(db, prog, chase.Options{MaxDepth: 6}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_MinimalInteractionATM measures the Theorem 6.15 reduction:
// chase size doubles with each configuration-tree level.
func BenchmarkE6_MinimalInteractionATM(b *testing.B) {
	m := workload.ParityATM()
	prog := workload.ATMQuery().Program
	for _, bits := range [][]int{{1, 1}, {1, 0, 1}} {
		input := workload.ParityInput(bits)
		db := m.ATMDatabase(input)
		b.Run(fmt.Sprintf("tape=%d", len(input)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chase.Run(db, prog, chase.Options{
					MaxDepth: len(input) + 4, MaxFacts: 10_000_000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_ProgramExpressivePower measures the Theorem 7.1 witness
// evaluation.
func BenchmarkE7_ProgramExpressivePower(b *testing.B) {
	w := pep.Theorem71()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h1, err := w.Holds(w.Lambda1)
		if err != nil || !h1 {
			b.Fatal("Λ1 must hold")
		}
		h2, err := w.Holds(w.Lambda2)
		if err != nil || h2 {
			b.Fatal("Λ2 must not hold")
		}
	}
}

// BenchmarkE8_FixedOntologyProgram measures per-query compile+evaluate cost
// with the fixed τ_owl2ql_core (Section 5.2 modularity).
func BenchmarkE8_FixedOntologyProgram(b *testing.B) {
	o := workload.University(2, 2, 2, false)
	g := o.ToGraph()
	p := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("advises"), sparql.Var("Y")),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := translate.Translate(p, translate.ActiveDomain)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tr.Evaluate(g, triq.Options{Chase: chase.Options{MaxDepth: 8}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalTransport measures the transport_chase request in process:
// the full closure of workload.Transport(16, 3, 6), 83 rounds deriving 6 528
// facts over 128 triples, plus reading and sorting the answers.
func BenchmarkEvalTransport(b *testing.B) {
	db, q := workload.Transport(16, 3, 6), workload.TransportQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := triq.Eval(db, q, triq.TriQLite10, triq.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalUniversity measures the university_regime request end to end
// through the facade: translation, τ_db(G), the depth-0 probe and its closing
// pass, and decoding 32 mappings.
func BenchmarkEvalUniversity(b *testing.B) {
	g := workload.University(4, 2, 3, false).ToGraph()
	sq, err := repro.ParseSPARQL("SELECT ?X WHERE { ?X rdf:type person }")
	if err != nil {
		b.Fatal(err)
	}
	req := repro.Request{SPARQL: sq, Regime: repro.ActiveDomainRegime}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Eval(context.Background(), g, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadDB measures loading τ_db(G) for the 10 001-triple graph of
// the lookup_big workload into an instance.
func BenchmarkLoadDB(b *testing.B) {
	g := lookupGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		translate.DB(g)
	}
}

// BenchmarkExperimentHarness runs the full experiment suite once per
// iteration.
func BenchmarkExperimentHarness(b *testing.B) {
	if testing.Short() {
		b.Skip("harness skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		for _, tbl := range bench.RunAll() {
			if !tbl.OK {
				b.Fatalf("experiment %s failed", tbl.ID)
			}
		}
	}
}

// benchGraph builds the phone-book style graph used by E3.
func benchGraph(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += fmt.Sprintf("u%d name n%d .\n", i, i)
		if i%2 == 0 {
			s += fmt.Sprintf("u%d phone t%d .\n", i, i)
		}
	}
	return s
}

// ParseGraphOrDie is a test helper.
func ParseGraphOrDie(src string) *repro.Graph {
	g, err := repro.ParseGraph(src)
	if err != nil {
		panic(err)
	}
	return g
}
