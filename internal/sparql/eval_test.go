package sparql

import (
	"math/rand"
	"testing"

	"repro/internal/rdf"
)

// g1 is the paper's graph G1 (Section 2), with the book title as an IRI-less
// literal replaced by a URI-like constant to stay within the paper's
// URI-only graphs.
func g1() *rdf.Graph {
	return rdf.NewGraph(
		rdf.Triple{S: rdf.NewIRI("dbUllman"), P: rdf.NewIRI("is_author_of"), O: rdf.NewLiteral("The Complete Book")},
		rdf.Triple{S: rdf.NewIRI("dbUllman"), P: rdf.NewIRI("name"), O: rdf.NewLiteral("Jeffrey Ullman")},
	)
}

func TestEvalBGPAuthors(t *testing.T) {
	// Query (1) of Section 2.
	p := Select{Proj: []string{"?X"}, P: BGP{Triples: []TriplePattern{
		TP(Var("Y"), IRI("is_author_of"), Var("Z")),
		TP(Var("Y"), IRI("name"), Var("X")),
	}}}
	got := Eval(p, g1())
	if got.Len() != 1 {
		t.Fatalf("answers = %s", got)
	}
	m := got.Mappings()[0]
	if m["?X"] != rdf.NewLiteral("Jeffrey Ullman") || len(m) != 1 {
		t.Errorf("mapping = %v", m)
	}
}

func TestEvalBGPEmptyPattern(t *testing.T) {
	got := Eval(BGP{}, g1())
	if got.Len() != 1 || len(got.Mappings()[0]) != 0 {
		t.Errorf("⟦{}⟧ should be {µ∅}, got %s", got)
	}
}

func TestEvalBGPBlankNode(t *testing.T) {
	// Pattern P2 = (?X, name, _:B): blank nodes are existential.
	p := BGP{Triples: []TriplePattern{TP(Var("X"), IRI("name"), Blank("B"))}}
	got := Eval(p, g1())
	if got.Len() != 1 {
		t.Fatalf("answers = %s", got)
	}
	m := got.Mappings()[0]
	if _, ok := m["_:B"]; ok {
		t.Error("blank node binding leaked into the mapping")
	}
	if m["?X"] != rdf.NewIRI("dbUllman") {
		t.Errorf("mapping = %v", m)
	}
}

func TestEvalBGPSharedBlank(t *testing.T) {
	// A blank node occurring twice must take a single value.
	g := rdf.NewGraph(
		rdf.T("a", "p", "x"), rdf.T("x", "q", "b"),
		rdf.T("a", "p", "y"), rdf.T("z", "q", "b"),
	)
	p := BGP{Triples: []TriplePattern{
		TP(Var("S"), IRI("p"), Blank("B")),
		TP(Blank("B"), IRI("q"), Var("O")),
	}}
	got := Eval(p, g)
	// Only the x-path connects: (S=a, O=b).
	if got.Len() != 1 || !got.Has(Mapping{"?S": rdf.NewIRI("a"), "?O": rdf.NewIRI("b")}) {
		t.Errorf("answers = %s", got)
	}
}

func TestEvalRepeatedVariableInTriple(t *testing.T) {
	g := rdf.NewGraph(rdf.T("a", "p", "a"), rdf.T("a", "p", "b"))
	p := BGP{Triples: []TriplePattern{TP(Var("X"), IRI("p"), Var("X"))}}
	got := Eval(p, g)
	if got.Len() != 1 || !got.Has(Mapping{"?X": rdf.NewIRI("a")}) {
		t.Errorf("answers = %s", got)
	}
}

// optExampleGraph is the phone-book graph of Example 5.1 (patterns P3/P4).
func optExampleGraph() *rdf.Graph {
	return rdf.NewGraph(
		rdf.T("u1", "name", "alice"),
		rdf.T("u1", "phone", "tel1"),
		rdf.T("u2", "name", "bob"),
		rdf.T("tel1", "phone_company", "acme"),
		rdf.T("tel9", "phone_company", "other"),
	)
}

func TestEvalOptP3(t *testing.T) {
	// P3 = (?X, name, ?Y) OPT (?X, phone, ?Z).
	p := Opt{
		L: BGP{Triples: []TriplePattern{TP(Var("X"), IRI("name"), Var("Y"))}},
		R: BGP{Triples: []TriplePattern{TP(Var("X"), IRI("phone"), Var("Z"))}},
	}
	got := Eval(p, optExampleGraph())
	if got.Len() != 2 {
		t.Fatalf("answers = %s", got)
	}
	if !got.Has(Mapping{"?X": rdf.NewIRI("u1"), "?Y": rdf.NewIRI("alice"), "?Z": rdf.NewIRI("tel1")}) {
		t.Error("u1 with phone missing")
	}
	if !got.Has(Mapping{"?X": rdf.NewIRI("u2"), "?Y": rdf.NewIRI("bob")}) {
		t.Error("u2 without phone missing")
	}
}

func TestEvalAndOverOptP4(t *testing.T) {
	// P4 = ((?X,name,?Y) OPT (?X,phone,?Z)) AND (?Z, phone_company, ?W).
	// The paper points out the cartesian effect for phone-less people.
	p := And{
		L: Opt{
			L: BGP{Triples: []TriplePattern{TP(Var("X"), IRI("name"), Var("Y"))}},
			R: BGP{Triples: []TriplePattern{TP(Var("X"), IRI("phone"), Var("Z"))}},
		},
		R: BGP{Triples: []TriplePattern{TP(Var("Z"), IRI("phone_company"), Var("W"))}},
	}
	got := Eval(p, optExampleGraph())
	// u1: joins with its own phone company (1 mapping). u2: no ?Z → its
	// mapping is compatible with both phone_company rows (2 mappings).
	if got.Len() != 3 {
		t.Fatalf("answers (%d) = %s", got.Len(), got)
	}
	if !got.Has(Mapping{"?X": rdf.NewIRI("u2"), "?Y": rdf.NewIRI("bob"),
		"?Z": rdf.NewIRI("tel9"), "?W": rdf.NewIRI("other")}) {
		t.Error("cartesian mapping for bob missing")
	}
}

func TestEvalUnionSameAs(t *testing.T) {
	// Query (6) of Section 2 over the graph G4.
	g := rdf.NewGraph(
		rdf.Triple{S: rdf.NewIRI("dbUllman"), P: rdf.NewIRI("is_author_of"), O: rdf.NewLiteral("The Complete Book")},
		rdf.T("dbUllman", "owl:sameAs", "yagoUllman"),
		rdf.Triple{S: rdf.NewIRI("yagoUllman"), P: rdf.NewIRI("name"), O: rdf.NewLiteral("Jeffrey Ullman")},
	)
	branch1 := BGP{Triples: []TriplePattern{
		TP(Var("Y"), IRI("is_author_of"), Var("Z")),
		TP(Var("Y"), IRI("name"), Var("X")),
	}}
	branch2 := BGP{Triples: []TriplePattern{
		TP(Var("Y"), IRI("is_author_of"), Var("Z")),
		TP(Var("Y"), IRI("owl:sameAs"), Var("W")),
		TP(Var("W"), IRI("name"), Var("X")),
	}}
	p := Select{Proj: []string{"?X"}, P: Union{L: branch1, R: branch2}}
	got := Eval(p, g)
	if got.Len() != 1 || !got.Has(Mapping{"?X": rdf.NewLiteral("Jeffrey Ullman")}) {
		t.Errorf("answers = %s", got)
	}
	// Without the UNION branch the query (1) has no answers on G4 — the
	// motivation of the example.
	if Eval(Select{Proj: []string{"?X"}, P: branch1}, g).Len() != 0 {
		t.Error("query (1) should be empty on G4")
	}
}

func TestEvalFilter(t *testing.T) {
	g := rdf.NewGraph(rdf.T("u1", "name", "alice"), rdf.T("u2", "name", "bob"))
	base := BGP{Triples: []TriplePattern{TP(Var("X"), IRI("name"), Var("N"))}}
	cases := []struct {
		name string
		cond Condition
		want int
	}{
		{"eq const", EqConst{Var: "?N", Val: rdf.NewIRI("alice")}, 1},
		{"neg eq", Neg{C: EqConst{Var: "?N", Val: rdf.NewIRI("alice")}}, 1},
		{"bound", Bound{Var: "?X"}, 2},
		{"neg bound", Neg{C: Bound{Var: "?X"}}, 0},
		{"conj", Conj{L: Bound{Var: "?X"}, R: EqConst{Var: "?N", Val: rdf.NewIRI("bob")}}, 1},
		{"disj", Disj{L: EqConst{Var: "?N", Val: rdf.NewIRI("alice")}, R: EqConst{Var: "?N", Val: rdf.NewIRI("bob")}}, 2},
		{"eqvars same", EqVars{X: "?X", Y: "?X"}, 2},
		{"eqvars diff", EqVars{X: "?X", Y: "?N"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Eval(Filter{P: base, Cond: tc.cond}, g)
			if got.Len() != tc.want {
				t.Errorf("answers = %s, want %d", got, tc.want)
			}
		})
	}
}

func TestEvalBoundDistinguishesOptBranches(t *testing.T) {
	// bound(?Z) over an OPT separates the two kinds of mappings.
	p := Filter{
		P: Opt{
			L: BGP{Triples: []TriplePattern{TP(Var("X"), IRI("name"), Var("Y"))}},
			R: BGP{Triples: []TriplePattern{TP(Var("X"), IRI("phone"), Var("Z"))}},
		},
		Cond: Neg{C: Bound{Var: "?Z"}},
	}
	got := Eval(p, optExampleGraph())
	if got.Len() != 1 || !got.Has(Mapping{"?X": rdf.NewIRI("u2"), "?Y": rdf.NewIRI("bob")}) {
		t.Errorf("answers = %s", got)
	}
}

func TestEvalSelectProjection(t *testing.T) {
	p := Select{Proj: []string{"?Y"}, P: BGP{Triples: []TriplePattern{
		TP(Var("X"), IRI("name"), Var("Y")),
	}}}
	got := Eval(p, optExampleGraph())
	if got.Len() != 2 {
		t.Fatalf("answers = %s", got)
	}
	for _, m := range got.Mappings() {
		if len(m) != 1 {
			t.Errorf("projection leaked: %v", m)
		}
	}
}

func TestValidateFilterScope(t *testing.T) {
	bad := Filter{
		P:    BGP{Triples: []TriplePattern{TP(Var("X"), IRI("p"), Var("Y"))}},
		Cond: Bound{Var: "?Z"},
	}
	if err := Validate(bad); err == nil {
		t.Error("FILTER over out-of-scope variable must be rejected")
	}
	good := Filter{
		P:    BGP{Triples: []TriplePattern{TP(Var("X"), IRI("p"), Var("Y"))}},
		Cond: Bound{Var: "?X"},
	}
	if err := Validate(good); err != nil {
		t.Errorf("valid filter rejected: %v", err)
	}
}

func TestPatternVars(t *testing.T) {
	p := Opt{
		L: BGP{Triples: []TriplePattern{TP(Var("X"), IRI("p"), Blank("B"))}},
		R: Filter{
			P:    BGP{Triples: []TriplePattern{TP(Var("X"), IRI("q"), Var("Z"))}},
			Cond: Bound{Var: "?Z"},
		},
	}
	vars := p.Vars()
	if len(vars) != 2 || !vars["?X"] || !vars["?Z"] {
		t.Errorf("Vars = %v", vars)
	}
	sel := Select{Proj: []string{"?X", "?Missing"}, P: p}
	sv := sel.Vars()
	if len(sv) != 1 || !sv["?X"] {
		t.Errorf("Select.Vars = %v", sv)
	}
}

func TestBasicPatterns(t *testing.T) {
	p := Union{
		L: And{L: BGP{}, R: BGP{}},
		R: Opt{L: BGP{}, R: Select{Proj: nil, P: Filter{P: BGP{}, Cond: Bound{Var: "?X"}}}},
	}
	if got := len(BasicPatterns(p)); got != 4 {
		t.Errorf("BasicPatterns = %d, want 4", got)
	}
}

func TestPatternStrings(t *testing.T) {
	p := Filter{
		P: Select{Proj: []string{"?X"}, P: Opt{
			L: Union{L: BGP{Triples: []TriplePattern{TP(Var("X"), IRI("p"), Lit("v"))}}, R: BGP{}},
			R: And{L: BGP{}, R: BGP{}},
		}},
		Cond: Conj{L: Neg{C: Bound{Var: "?X"}}, R: Disj{L: EqVars{X: "?X", Y: "?Y"}, R: EqConst{Var: "?X", Val: rdf.NewIRI("c")}}},
	}
	if p.String() == "" {
		t.Error("pattern String empty")
	}
}

// Pattern-level algebra laws (Pérez et al., carried over by the paper's
// semantics): AND and UNION are commutative and associative, AND distributes
// over UNION, and SELECT-to-var(P) is the identity — checked on random
// patterns and graphs.
func TestEvalAlgebraLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	names := []string{"a", "b", "c"}
	preds := []string{"p", "q"}
	randG := func() *rdf.Graph {
		g := rdf.NewGraph()
		for i := 0; i < 1+rng.Intn(8); i++ {
			g.Add(rdf.T(names[rng.Intn(3)], preds[rng.Intn(2)], names[rng.Intn(3)]))
		}
		return g
	}
	randBGP := func() Pattern {
		var ts []TriplePattern
		for i := 0; i < 1+rng.Intn(2); i++ {
			mk := func() PTerm {
				if rng.Intn(2) == 0 {
					return Var([]string{"?A", "?B", "?C"}[rng.Intn(3)])
				}
				return IRI(names[rng.Intn(3)])
			}
			ts = append(ts, TP(mk(), IRI(preds[rng.Intn(2)]), mk()))
		}
		return BGP{Triples: ts}
	}
	for round := 0; round < 40; round++ {
		g := randG()
		p1, p2, p3 := randBGP(), randBGP(), randBGP()
		if !Eval(And{L: p1, R: p2}, g).Equal(Eval(And{L: p2, R: p1}, g)) {
			t.Fatalf("AND not commutative: %s vs %s", p1, p2)
		}
		if !Eval(Union{L: p1, R: p2}, g).Equal(Eval(Union{L: p2, R: p1}, g)) {
			t.Fatalf("UNION not commutative")
		}
		if !Eval(And{L: p1, R: And{L: p2, R: p3}}, g).
			Equal(Eval(And{L: And{L: p1, R: p2}, R: p3}, g)) {
			t.Fatalf("AND not associative")
		}
		if !Eval(And{L: p1, R: Union{L: p2, R: p3}}, g).
			Equal(Eval(Union{L: And{L: p1, R: p2}, R: And{L: p1, R: p3}}, g)) {
			t.Fatalf("AND does not distribute over UNION")
		}
		// SELECT over all of var(P) is the identity.
		vars := p1.Vars()
		var proj []string
		for v := range vars {
			proj = append(proj, v)
		}
		if !Eval(Select{Proj: proj, P: p1}, g).Equal(Eval(p1, g)) {
			t.Fatalf("SELECT var(P) is not the identity for %s", p1)
		}
	}
}

// TestPatternKind covers the operator naming used by spans and metrics.
func TestPatternKind(t *testing.T) {
	cases := map[string]Pattern{
		"BGP":    BGP{},
		"AND":    And{},
		"UNION":  Union{},
		"OPT":    Opt{},
		"FILTER": Filter{},
		"SELECT": Select{},
	}
	for want, p := range cases {
		if got := PatternKind(p); got != want {
			t.Errorf("PatternKind(%T) = %q, want %q", p, got, want)
		}
	}
}
