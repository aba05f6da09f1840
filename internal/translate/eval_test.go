package translate_test

// The tests in this package evaluate translations the way a request does,
// through repro.Eval, and compare the answers with an independent oracle:
// Pérez et al.'s algebra (Theorem 5.2), the DL-LiteR reasoner (Theorem 5.3),
// the ρdf rules and the nSPARQL evaluator. Tests of a translation's shape stay
// in package translate.

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
)

// evalSPARQL evaluates the pattern over the graph under the regime through
// repro.Eval: ⟦(P_dat, τ_db(G))⟧ and whether it is ⊤, which can arise only
// under the entailment regimes.
func evalSPARQL(g *rdf.Graph, p sparql.Pattern, regime translate.Regime, opts triq.Options) (*sparql.MappingSet, bool, error) {
	resp, err := repro.Eval(context.Background(), g, repro.Request{SPARQL: &sparql.Query{Where: p}, Regime: regime, Options: opts})
	if err != nil {
		return nil, false, err
	}
	return resp.Mappings, resp.Inconsistent, nil
}

func assertTheorem52(t *testing.T, p sparql.Pattern, g *rdf.Graph) {
	t.Helper()
	direct := sparql.Eval(p, g)
	got, inconsistent, err := evalSPARQL(g, p, translate.Plain, triq.Options{})
	if err != nil {
		t.Fatalf("evaluate %s: %v", p, err)
	}
	if inconsistent {
		t.Fatalf("plain translation can never be inconsistent: %s", p)
	}
	if !direct.Equal(got) {
		t.Errorf("Theorem 5.2 violated for %s:\nSPARQL:\n%s\nDatalog:\n%s", p, direct, got)
	}
}

func TestTranslateBGPAuthors(t *testing.T) {
	g := rdf.NewGraph(
		rdf.Triple{S: rdf.NewIRI("dbUllman"), P: rdf.NewIRI("is_author_of"), O: rdf.NewLiteral("The Complete Book")},
		rdf.Triple{S: rdf.NewIRI("dbUllman"), P: rdf.NewIRI("name"), O: rdf.NewLiteral("Jeffrey Ullman")},
	)
	p := sparql.Select{Proj: []string{"?X"}, P: sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("Y"), sparql.IRI("is_author_of"), sparql.Var("Z")),
		sparql.TP(sparql.Var("Y"), sparql.IRI("name"), sparql.Var("X")),
	}}}
	assertTheorem52(t, p, g)
}

func TestTranslateOptStarConvention(t *testing.T) {
	// Example 5.1, pattern P3 = (?X,name,?Y) OPT (?X,phone,?Z): the phoneless
	// individual appears with ⋆ in the third position.
	g := rdf.NewGraph(
		rdf.T("u1", "name", "alice"),
		rdf.T("u1", "phone", "tel1"),
		rdf.T("u2", "name", "bob"),
	)
	p := sparql.Opt{
		L: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("name"), sparql.Var("Y"))}},
		R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("phone"), sparql.Var("Z"))}},
	}
	tr := translate.MustTranslate(p, translate.Plain)
	res, err := repro.Eval(context.Background(), g, repro.Request{Query: tr.Query, Language: repro.Unrestricted})
	if err != nil {
		t.Fatal(err)
	}
	// Raw answers: (u1, alice, tel1) and (u2, bob, ⋆).
	star := rdf.NewIRI(datalog.StarConstant)
	foundStar := false
	for _, tup := range res.Tuples {
		if tup[2] == star {
			foundStar = true
			if tup[0] != rdf.NewIRI("u2") {
				t.Errorf("⋆-row = %v", tup)
			}
		}
	}
	if !foundStar {
		t.Error("no ⋆-padded answer emitted")
	}
	assertTheorem52(t, p, g)
}

func TestTranslateAndOverOptP4(t *testing.T) {
	// Example 5.1, pattern P4: the cartesian phenomenon must carry over.
	g := rdf.NewGraph(
		rdf.T("u1", "name", "alice"),
		rdf.T("u1", "phone", "tel1"),
		rdf.T("u2", "name", "bob"),
		rdf.T("tel1", "phone_company", "acme"),
		rdf.T("tel9", "phone_company", "other"),
	)
	p := sparql.And{
		L: sparql.Opt{
			L: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("name"), sparql.Var("Y"))}},
			R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("phone"), sparql.Var("Z"))}},
		},
		R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("Z"), sparql.IRI("phone_company"), sparql.Var("W"))}},
	}
	assertTheorem52(t, p, g)
}

func TestTranslateUnionBlanksFilters(t *testing.T) {
	g := rdf.NewGraph(
		rdf.T("a", "p", "b"), rdf.T("b", "p", "c"), rdf.T("a", "q", "c"),
		rdf.T("c", "q", "a"),
	)
	patterns := []sparql.Pattern{
		sparql.Union{
			L: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("p"), sparql.Var("Y"))}},
			R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("q"), sparql.Var("Z"))}},
		},
		// Blank node as join witness.
		sparql.BGP{Triples: []sparql.TriplePattern{
			sparql.TP(sparql.Var("X"), sparql.IRI("p"), sparql.Blank("B")),
			sparql.TP(sparql.Blank("B"), sparql.IRI("q"), sparql.Var("Y")),
		}},
		// FILTER with equality, inequality, bound.
		sparql.Filter{
			P:    sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("p"), sparql.Var("Y"))}},
			Cond: sparql.Neg{C: sparql.EqConst{Var: "?X", Val: rdf.NewIRI("a")}},
		},
		sparql.Filter{
			P: sparql.Opt{
				L: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("p"), sparql.Var("Y"))}},
				R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("Y"), sparql.IRI("q"), sparql.Var("Z"))}},
			},
			Cond: sparql.Disj{L: sparql.Neg{C: sparql.Bound{Var: "?Z"}}, R: sparql.EqVars{X: "?X", Y: "?X"}},
		},
		// Ground pattern (no variables).
		sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.IRI("a"), sparql.IRI("p"), sparql.IRI("b"))}},
		// Empty BGP.
		sparql.BGP{},
		// SELECT projection.
		sparql.Select{Proj: []string{"?X"}, P: sparql.Opt{
			L: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("p"), sparql.Var("Y"))}},
			R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("Y"), sparql.IRI("q"), sparql.Var("Z"))}},
		}},
	}
	for _, p := range patterns {
		assertTheorem52(t, p, g)
	}
}

// randomPattern builds a random well-formed pattern of bounded depth.
func randomPattern(rng *rand.Rand, depth int) sparql.Pattern {
	vars := []string{"?A", "?B", "?C"}
	iris := []string{"a", "b", "c"}
	preds := []string{"p", "q"}
	term := func() sparql.PTerm {
		switch rng.Intn(4) {
		case 0:
			return sparql.IRI(iris[rng.Intn(len(iris))])
		case 1:
			return sparql.Blank("B" + string(rune('0'+rng.Intn(2))))
		default:
			return sparql.Var(vars[rng.Intn(len(vars))])
		}
	}
	bgp := func() sparql.Pattern {
		n := 1 + rng.Intn(2)
		var ts []sparql.TriplePattern
		for i := 0; i < n; i++ {
			ts = append(ts, sparql.TP(term(), sparql.IRI(preds[rng.Intn(len(preds))]), term()))
		}
		return sparql.BGP{Triples: ts}
	}
	if depth <= 0 {
		return bgp()
	}
	switch rng.Intn(6) {
	case 0:
		return sparql.And{L: randomPattern(rng, depth-1), R: randomPattern(rng, depth-1)}
	case 1:
		return sparql.Union{L: randomPattern(rng, depth-1), R: randomPattern(rng, depth-1)}
	case 2:
		return sparql.Opt{L: randomPattern(rng, depth-1), R: randomPattern(rng, depth-1)}
	case 3:
		inner := randomPattern(rng, depth-1)
		pv := sparql.Pattern(inner).Vars()
		var inScope []string
		for v := range pv {
			inScope = append(inScope, v)
		}
		if len(inScope) == 0 {
			return inner
		}
		cond := randomCond(rng, inScope, 2)
		return sparql.Filter{P: inner, Cond: cond}
	case 4:
		inner := randomPattern(rng, depth-1)
		proj := []string{vars[rng.Intn(len(vars))]}
		return sparql.Select{Proj: proj, P: inner}
	default:
		return bgp()
	}
}

func randomCond(rng *rand.Rand, scope []string, depth int) sparql.Condition {
	v := func() string { return scope[rng.Intn(len(scope))] }
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return sparql.Bound{Var: v()}
		case 1:
			return sparql.EqConst{Var: v(), Val: rdf.NewIRI([]string{"a", "b"}[rng.Intn(2)])}
		default:
			return sparql.EqVars{X: v(), Y: v()}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return sparql.Neg{C: randomCond(rng, scope, depth-1)}
	case 1:
		return sparql.Conj{L: randomCond(rng, scope, depth-1), R: randomCond(rng, scope, depth-1)}
	case 2:
		return sparql.Disj{L: randomCond(rng, scope, depth-1), R: randomCond(rng, scope, depth-1)}
	default:
		return randomCond(rng, scope, 0)
	}
}

func randomGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	names := []string{"a", "b", "c", "d"}
	preds := []string{"p", "q"}
	n := rng.Intn(10)
	for i := 0; i < n; i++ {
		g.Add(rdf.T(
			names[rng.Intn(len(names))],
			preds[rng.Intn(len(preds))],
			names[rng.Intn(len(names))]))
	}
	return g
}

// TestTheorem52Randomized is the main correctness check of the translation:
// ⟦P⟧_G = ⟦(P_dat, τ_db(G))⟧ on randomized patterns and graphs.
func TestTheorem52Randomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20180713))
	for round := 0; round < 120; round++ {
		p := randomPattern(rng, 2)
		if err := sparql.Validate(p); err != nil {
			t.Fatalf("round %d: generator produced invalid pattern: %v", round, err)
		}
		g := randomGraph(rng)
		direct := sparql.Eval(p, g)
		got, _, err := evalSPARQL(g, p, translate.Plain, triq.Options{})
		if err != nil {
			t.Fatalf("round %d: evaluate %s: %v", round, p, err)
		}
		if !direct.Equal(got) {
			t.Fatalf("round %d: Theorem 5.2 violated for %s over\n%s\nSPARQL:\n%s\nDatalog:\n%s",
				round, p, g, direct, got)
		}
	}
}

// TestTranslateConstructRandomized: randomized agreement between the direct
// CONSTRUCT evaluation and the rule translation, up to blank-node isomorphism.
func TestTranslateConstructRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 40; round++ {
		where := randomPattern(rng, 1)
		// Build a template over the pattern's variables plus a blank.
		var vars []string
		for v := range where.Vars() {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		tmpl := []sparql.TriplePattern{}
		pick := func() sparql.PTerm {
			if len(vars) > 0 && rng.Intn(3) > 0 {
				return sparql.Var(vars[rng.Intn(len(vars))])
			}
			if rng.Intn(2) == 0 {
				return sparql.Blank("T")
			}
			return sparql.IRI("out")
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			tmpl = append(tmpl, sparql.TP(pick(), sparql.IRI("emits"), pick()))
		}
		q := &sparql.Query{Kind: sparql.ConstructQuery, Template: tmpl, Where: where}
		g := randomGraph(rng)
		want, err := q.Construct(g)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := translate.TranslateConstruct(q, translate.Plain)
		if err != nil {
			t.Fatalf("round %d: translate: %v", round, err)
		}
		got, _, err := ct.Evaluate(g, triq.Options{})
		if err != nil {
			t.Fatalf("round %d: evaluate: %v", round, err)
		}
		if !rdf.Isomorphic(got, want) {
			t.Fatalf("round %d: CONSTRUCT mismatch for %s over\n%s\ngot:\n%s\nwant:\n%s",
				round, where, g, got, want)
		}
	}
}

// TestEvaluateFull: evaluating a translation through the facade returns the
// chase stats behind the answer and emits the load, evaluation and decode
// spans.
func TestEvaluateFull(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T("u1", "name", "n1"))
	g.Add(rdf.T("u1", "knows", "u2"))
	v, iri := sparql.Var, sparql.IRI
	p := sparql.Union{
		L: sparql.Opt{
			L: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(v("X"), iri("name"), v("N"))}},
			R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(v("X"), iri("phone"), v("P"))}},
		},
		R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(v("X"), iri("knows"), v("N"))}},
	}
	ids := obs.NewIDSource(1)
	tr := obs.NewTrace(ids.TraceID(), ids, true)
	resp, err := repro.Eval(obs.ContextWithTrace(context.Background(), tr), g, repro.Request{SPARQL: &sparql.Query{Where: p},
		Options: triq.Options{Chase: chase.Options{Obs: obs.New()}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Inconsistent || resp.Mappings == nil {
		t.Fatal("no mapping set")
	}
	if resp.Stats.FactsDerived == 0 {
		t.Error("the response carries no chase stats")
	}
	// Tracing changes nothing about the answer.
	plain, _, err := evalSPARQL(g, p, translate.Plain, triq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Mappings.Equal(plain) {
		t.Error("the traced and the untraced evaluation disagree on the mappings")
	}
	kinds := map[string]bool{}
	for _, sp := range tr.Spans() {
		kinds[sp.Name] = true
	}
	for _, k := range []string{"translate.load_db", "translate.decode", "triq.eval"} {
		if !kinds[k] {
			t.Errorf("trace missing span kind %q (got %v)", k, kinds)
		}
	}
}
