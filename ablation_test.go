package repro

// Ablation benchmarks for the design choices called out in DESIGN.md:
// semi-naive vs naive evaluation, top-down ProofTree vs bottom-up chase for
// single-atom certification, and the exponential growth of the OPT
// translation (the Section 5.1 remark that P_dat has exponential size).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
	"repro/internal/workload"
)

func BenchmarkAblationSemiNaive(b *testing.B) {
	prog := datalog.MustParse(`
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
	`)
	db := workload.Chain(60)
	for _, naive := range []bool{false, true} {
		name := "semi-naive"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chase.RunCtx(context.Background(), db, prog, chase.Options{NaiveEvaluation: naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationProofTreeVsChase(b *testing.B) {
	// Certifying one ground atom: top-down ProofTree vs computing the whole
	// bottom-up stable ground semantics.
	db := chase.NewInstance(
		datalog.MustParseAtom("e(a, b)"),
		datalog.MustParseAtom("g(b)"),
	)
	prog := datalog.MustParse(`
		e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
		e(?X, ?Y), g(?Y) -> out(?X).
	`)
	goal := datalog.MustParseAtom("out(a)")
	b.Run("prooftree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pv, err := triq.NewProver(db, prog, triq.ProofOptions{})
			if err != nil {
				b.Fatal(err)
			}
			ok, err := pv.ProvesCtx(context.Background(), goal)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("stable-ground", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gr, err := chase.StableGroundCtx(context.Background(), db, prog, chase.Options{MaxDepth: 30})
			if err != nil || !gr.Ground().Has(goal) {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE9_PropertyPathBaseline(b *testing.B) {
	g := workload.TransportGraph(2, 2, 3, "acme")
	var alphabet []string
	for _, p := range g.Predicates() {
		alphabet = append(alphabet, p.Value)
	}
	exprs := sparql.EnumeratePaths(alphabet, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range exprs {
			sparql.EvalPath(g, e)
		}
	}
}

// nestedOpt builds (… ((B0 OPT B1) OPT B2) … OPT Bd).
func nestedOpt(depth int) sparql.Pattern {
	mk := func(i int) sparql.Pattern {
		return sparql.BGP{Triples: []sparql.TriplePattern{
			sparql.TP(sparql.Var("X"), sparql.IRI(fmt.Sprintf("p%d", i)), sparql.Var(fmt.Sprintf("V%d", i))),
		}}
	}
	p := mk(0)
	for i := 1; i <= depth; i++ {
		p = sparql.Opt{L: p, R: mk(i)}
	}
	return p
}

// TestTranslationSizeExponentialInOpt checks the Section 5.1 remark: P_dat
// is a non-recursive program of exponential size — nested OPT doubles the
// number of possible domains (and hence predicates/rules) per level.
func TestTranslationSizeExponentialInOpt(t *testing.T) {
	var sizes []int
	for depth := 1; depth <= 6; depth++ {
		tr, err := translate.Translate(nestedOpt(depth), translate.Plain)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(tr.Query.Program.Rules))
	}
	for i := 1; i < len(sizes); i++ {
		if float64(sizes[i]) < 1.5*float64(sizes[i-1]) {
			t.Errorf("rule count not exponential: %v", sizes)
			break
		}
	}
	t.Logf("rules per OPT depth 1..6: %v", sizes)
}

func BenchmarkAblationOptTranslationSize(b *testing.B) {
	for _, depth := range []int{2, 4, 6} {
		p := nestedOpt(depth)
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := translate.Translate(p, translate.Plain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestNaiveEvaluationAgrees(t *testing.T) {
	prog := datalog.MustParse(`
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
		tc(?X, ?X) -> cyc(?X).
	`)
	db := chase.NewInstance(
		datalog.MustParseAtom("e(a, b)"),
		datalog.MustParseAtom("e(b, c)"),
		datalog.MustParseAtom("e(c, a)"),
	)
	semi, err := chase.RunCtx(context.Background(), db, prog, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := chase.RunCtx(context.Background(), db, prog, chase.Options{NaiveEvaluation: true})
	if err != nil {
		t.Fatal(err)
	}
	if !semi.Instance.Equal(naive.Instance) {
		t.Error("naive and semi-naive evaluation disagree")
	}
}
