package translate_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/datalog"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
)

func nreTestGraph() *rdf.Graph {
	return rdf.NewGraph(
		rdf.T("a", "p", "b"),
		rdf.T("b", "q", "c"),
		rdf.T("p", "sub", "r"),
		rdf.T("c", "p", "a"),
	)
}

// evalNRE translates the expression and evaluates its Datalog query through
// repro.Eval, reading the answer tuples as the pair set ⟦e⟧_G.
func evalNRE(g *rdf.Graph, e sparql.NRE) (sparql.PairSet, error) {
	tr, err := translate.TranslateNRE(e)
	if err != nil {
		return nil, err
	}
	resp, err := repro.Eval(context.Background(), g, repro.Request{Query: tr.Query, Language: repro.TriQLite10})
	if err != nil {
		return nil, err
	}
	out := make(sparql.PairSet)
	for _, tup := range resp.Tuples {
		out[sparql.TermPair{tup[0], tup[1]}] = true
	}
	return out, nil
}

func TestTranslateNREMatchesEvaluator(t *testing.T) {
	exprs := []string{
		"next::p",
		"next",
		"next⁻¹::p",
		"edge::b",
		"node::a",
		"self",
		"self::a",
		"next::p/next::q",
		"next::p|next::q",
		"next::p*",
		"next::p+",
		"(next::p|next::q)+",
		"next::[ next::sub / self::r ]",
		"(next::[ next::sub / self::r ])+",
		"next::[ next::sub ]",
		"edge⁻¹",
		"node⁻¹::a",
	}
	g := nreTestGraph()
	for _, src := range exprs {
		t.Run(src, func(t *testing.T) {
			e := sparql.MustParseNRE(src)
			want := sparql.EvalNRE(g, e)
			got, err := evalNRE(g, e)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("⟦%s⟧: datalog %v vs direct %v", src, got.Sorted(), want.Sorted())
			}
		})
	}
}

// The translated programs are plain Datalog — no existentials, no negation —
// hence trivially TriQ-Lite 1.0 (the executable content of Corollary 7.3:
// every navigational query of [32] lives inside Datalog^{¬s,⊥}, which
// Theorem 7.2 separates from TriQ-Lite 1.0).
func TestTranslateNREIsPlainDatalog(t *testing.T) {
	e := sparql.MustParseNRE("(next::[ (next::partOf)+ / self::transportService ])+")
	tr, err := translate.TranslateNRE(e)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Query.Program.HasExistentials() || tr.Query.Program.HasNegation() {
		t.Error("NRE translation must be plain Datalog")
	}
	if err := triq.Validate(tr.Query, triq.TriQLite10); err != nil {
		t.Errorf("NRE translation should be TriQ-Lite 1.0: %v", err)
	}
	if err := datalog.CheckDialect(tr.Query.Program, datalog.NearlyFrontierGuarded); err != nil {
		t.Errorf("plain Datalog should be nearly frontier-guarded: %v", err)
	}
}

// randomNRE builds a random expression over a small alphabet.
func randomNRE(rng *rand.Rand, depth int) sparql.NRE {
	labels := []string{"p", "q", "sub"}
	step := func() sparql.NRE {
		s := sparql.NREStep{
			Axis:    sparql.Axis(rng.Intn(4)),
			Inverse: rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			l := rdf.NewIRI(labels[rng.Intn(len(labels))])
			s.Label = &l
		}
		return s
	}
	if depth <= 0 {
		return step()
	}
	switch rng.Intn(5) {
	case 0:
		return sparql.NRESeq{L: randomNRE(rng, depth-1), R: randomNRE(rng, depth-1)}
	case 1:
		return sparql.NREAlt{L: randomNRE(rng, depth-1), R: randomNRE(rng, depth-1)}
	case 2:
		return sparql.NREStar{P: randomNRE(rng, depth-1)}
	case 3:
		s := sparql.NREStep{Axis: sparql.Axis(1 + rng.Intn(3)), Test: randomNRE(rng, depth-1)}
		return s
	default:
		return step()
	}
}

func TestTranslateNRERandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	names := []string{"a", "b", "c", "p", "q"}
	for round := 0; round < 80; round++ {
		g := rdf.NewGraph()
		for i := 0; i < 2+rng.Intn(6); i++ {
			g.Add(rdf.T(
				names[rng.Intn(len(names))],
				names[rng.Intn(len(names))],
				names[rng.Intn(len(names))]))
		}
		e := randomNRE(rng, 2)
		want := sparql.EvalNRE(g, e)
		got, err := evalNRE(g, e)
		if err != nil {
			t.Fatalf("round %d: evaluate %s: %v", round, e, err)
		}
		if !got.Equal(want) {
			t.Fatalf("round %d: ⟦%s⟧ mismatch over\n%s\ndatalog: %v\ndirect:  %v",
				round, e, g, got.Sorted(), want.Sorted())
		}
	}
}
