package translate

import (
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triq"
)

func evalBoth(t *testing.T, p sparql.Pattern, g *rdf.Graph) (*sparql.MappingSet, *sparql.MappingSet) {
	t.Helper()
	direct := sparql.Eval(p, g)
	tr, err := Translate(p, Plain)
	if err != nil {
		t.Fatalf("translate %s: %v", p, err)
	}
	got, inconsistent, err := tr.Evaluate(g, triq.Options{})
	if err != nil {
		t.Fatalf("evaluate %s: %v", p, err)
	}
	if inconsistent {
		t.Fatalf("plain translation can never be inconsistent: %s", p)
	}
	return direct, got
}

func assertTheorem52(t *testing.T, p sparql.Pattern, g *rdf.Graph) {
	t.Helper()
	direct, got := evalBoth(t, p, g)
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
	tr := MustTranslate(p, Plain)
	res, err := triq.Eval(DB(g), tr.Query, triq.Unrestricted, triq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Raw answers: (u1, alice, tel1) and (u2, bob, ⋆).
	star := datalog.C(datalog.StarConstant)
	foundStar := false
	for _, tup := range res.Answers.Tuples {
		if tup[2] == star {
			foundStar = true
			if tup[0] != datalog.C("u2") {
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
		tr, err := Translate(p, Plain)
		if err != nil {
			t.Fatalf("round %d: translate %s: %v", round, p, err)
		}
		got, _, err := tr.Evaluate(g, triq.Options{})
		if err != nil {
			t.Fatalf("round %d: evaluate %s: %v", round, p, err)
		}
		if !direct.Equal(got) {
			t.Fatalf("round %d: Theorem 5.2 violated for %s over\n%s\nSPARQL:\n%s\nDatalog:\n%s",
				round, p, g, direct, got)
		}
	}
}

// TestTranslationsAreNonRecursiveTriQLite checks Corollary 5.4/6.2
// syntactically: the plain translation is a (stratified, grounded-negation)
// Datalog¬s query, and the regime translations are TriQ-Lite 1.0 (hence also
// TriQ 1.0) queries.
func TestTranslationsAreTriQLite(t *testing.T) {
	p := sparql.Filter{
		P: sparql.Opt{
			L: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("X"), sparql.IRI("name"), sparql.Var("Y"))}},
			R: sparql.BGP{Triples: []sparql.TriplePattern{
				sparql.TP(sparql.Var("X"), sparql.IRI("phone"), sparql.Blank("B")),
				sparql.TP(sparql.Blank("B"), sparql.IRI("q"), sparql.Var("Z")),
			}},
		},
		Cond: sparql.Neg{C: sparql.EqConst{Var: "?Y", Val: rdf.NewIRI("bob")}},
	}
	for _, regime := range []Regime{Plain, ActiveDomain, All} {
		tr, err := Translate(p, regime)
		if err != nil {
			t.Fatalf("%v: %v", regime, err)
		}
		if err := triq.Validate(tr.Query, triq.TriQLite10); err != nil {
			t.Errorf("%v translation should be TriQ-Lite 1.0: %v", regime, err)
		}
		if err := triq.Validate(tr.Query, triq.TriQ10); err != nil {
			t.Errorf("%v translation should be TriQ 1.0: %v", regime, err)
		}
	}
	// The plain translation must also be existential-free (Datalog¬s).
	tr, _ := Translate(p, Plain)
	if tr.Query.Program.HasExistentials() {
		t.Error("plain translation should not use existentials")
	}
}

func TestRegimeStrings(t *testing.T) {
	for _, r := range []Regime{Plain, ActiveDomain, All, Regime(9)} {
		if r.String() == "" {
			t.Errorf("Regime(%d).String empty", int(r))
		}
	}
}

// TestEncodeDecodeTerm: DecodeTerm inverts the one RDF-term → constant
// encoding (owl.TermConst), which is also what τ_db(G) is built with.
func TestEncodeDecodeTerm(t *testing.T) {
	terms := []rdf.Term{
		rdf.NewIRI("http://example.org/x"),
		rdf.NewIRI("bare"),
		rdf.NewBlank("b0"),
		rdf.NewLiteral("plain text"),
		rdf.NewTypedLiteral("3", "xsd:int"),
		rdf.NewLangLiteral("hi", "en"),
		rdf.NewLiteral("say \"hi\"\n"),
	}
	for _, tm := range terms {
		enc := owl.TermConst(tm)
		dec := DecodeTerm(enc.Name)
		if dec != tm {
			t.Errorf("round trip %v → %v → %v", tm, enc, dec)
		}
		atom := owl.TripleAtom(rdf.NewTriple(tm, tm, tm))
		for _, arg := range atom.Args {
			if arg != enc {
				t.Errorf("τ_db encodes %v as %v, the rules as %v", tm, arg, enc)
			}
		}
	}
	// IRIs and literals with the same lexical form must stay distinct.
	if owl.TermConst(rdf.NewIRI("x")) == owl.TermConst(rdf.NewLiteral("x")) {
		t.Error("IRI and literal collide")
	}
}
