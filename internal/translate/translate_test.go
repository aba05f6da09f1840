package translate

import (
	"testing"

	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triq"
)

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

// TestTranslateSelectVars: the translation's output variables are the
// SELECT clause's, not every variable of the pattern.
func TestTranslateSelectVars(t *testing.T) {
	q, err := sparql.ParseQuery(`SELECT ?X WHERE { ?X p ?Y }`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Translate(q.Pattern(), Plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Vars) != 1 || tr.Vars[0] != "?X" {
		t.Errorf("Vars = %v, want [?X]", tr.Vars)
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
