package datalog

import (
	"strings"
	"testing"
)

func TestParseQueryOne(t *testing.T) {
	// Query (2) of the paper.
	prog, err := Parse(`triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
	r := prog.Rules[0]
	if len(r.BodyPos) != 2 || len(r.BodyNeg) != 0 || len(r.Head) != 1 {
		t.Fatalf("rule shape wrong: %v", r)
	}
	if r.Head[0].Pred != "query" || r.Head[0].Args[0] != V("X") {
		t.Errorf("head = %v", r.Head[0])
	}
	if r.BodyPos[0].Args[1] != C("is_author_of") {
		t.Errorf("constant parsed as %v", r.BodyPos[0].Args[1])
	}
}

func TestParseExistential(t *testing.T) {
	// The co-authorship rule of Section 2.
	prog := MustParse(`
		triple(?X, is_coauthor_of, ?Y) ->
			exists ?Z triple(?X, is_author_of, ?Z), triple(?Y, is_author_of, ?Z).
	`)
	r := prog.Rules[0]
	ex := r.ExistentialVars()
	if len(ex) != 1 || ex[0] != V("Z") {
		t.Fatalf("existential vars = %v", ex)
	}
	if len(r.Head) != 2 {
		t.Errorf("head atoms = %d, want 2", len(r.Head))
	}
}

func TestParseImplicitExistential(t *testing.T) {
	// Head variables absent from the body are existential even without the
	// explicit quantifier.
	prog := MustParse(`subj(?X) -> bn(?X, ?Y).`)
	ex := prog.Rules[0].ExistentialVars()
	if len(ex) != 1 || ex[0] != V("Y") {
		t.Fatalf("existential vars = %v", ex)
	}
}

func TestParseNegation(t *testing.T) {
	for _, src := range []string{
		`less0(?X, ?Y), not not_min(?X) -> zero0(?X).`,
		`less0(?X, ?Y), !not_min(?X) -> zero0(?X).`,
		`less0(?X, ?Y), ¬not_min(?X) -> zero0(?X).`,
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		r := prog.Rules[0]
		if len(r.BodyNeg) != 1 || r.BodyNeg[0].Pred != "not_min" {
			t.Errorf("%s: BodyNeg = %v", src, r.BodyNeg)
		}
	}
}

func TestParsePredicateNamedNot(t *testing.T) {
	// "not" followed by '(' is a predicate, not negation.
	prog := MustParse(`not(?X), p(?X) -> q(?X).`)
	r := prog.Rules[0]
	if len(r.BodyPos) != 2 || r.BodyPos[0].Pred != "not" {
		t.Fatalf("rule = %v", r)
	}
}

func TestParseConstraint(t *testing.T) {
	for _, src := range []string{
		`type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.`,
		`type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> bottom.`,
		`type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> ⊥.`,
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(prog.Constraints) != 1 || len(prog.Rules) != 0 {
			t.Errorf("%s: got %d constraints, %d rules", src, len(prog.Constraints), len(prog.Rules))
		}
		if len(prog.Constraints[0].Body) != 3 {
			t.Errorf("constraint body = %v", prog.Constraints[0].Body)
		}
	}
}

func TestParseUnicodeSyntax(t *testing.T) {
	prog := MustParse(`p(?X) → ∃ ?Z s(?X, ?Z).`)
	r := prog.Rules[0]
	if len(r.ExistentialVars()) != 1 {
		t.Errorf("unicode rule = %v", r)
	}
}

func TestParseZeroArity(t *testing.T) {
	prog := MustParse(`ism(?X, ?Y), max(?Y), not noclique(?X) -> yes().`)
	if prog.Rules[0].Head[0].Arity() != 0 {
		t.Errorf("yes() should be 0-ary")
	}
}

func TestParseQuotedConstants(t *testing.T) {
	prog := MustParse(`triple(?X, name, "Jeffrey Ullman") -> q(?X).`)
	if prog.Rules[0].BodyPos[0].Args[2] != C("Jeffrey Ullman") {
		t.Errorf("quoted constant = %v", prog.Rules[0].BodyPos[0].Args[2])
	}
	prog = MustParse(`p(?X, "esc\"aped\\x\n") -> q(?X).`)
	if prog.Rules[0].BodyPos[0].Args[1] != C("esc\"aped\\x\n") {
		t.Errorf("escapes = %q", prog.Rules[0].BodyPos[0].Args[1].Name)
	}
}

func TestParseComments(t *testing.T) {
	prog := MustParse(`
		% the transport rules of Section 2
		triple(?X, partOf, transportService) -> ts(?X). // seed
		triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
	`)
	if len(prog.Rules) != 2 {
		t.Errorf("rules = %d", len(prog.Rules))
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		`p(?X) -> q(?X)`:                     "missing final dot",
		`p(?X) q(?X).`:                       "missing separator",
		`p(?X,) -> q(?X).`:                   "dangling comma",
		`p(?X) -> exists q(?X).`:             "exists without variables",
		`p(?X) -> exists ?X q(?X).`:          "existential also in body",
		`p(?X) -> exists ?Z q(?X).`:          "declared but unused existential",
		`-> q(?X).`:                          "empty body",
		`p(?X), not r(?Y) -> q(?X).`:         "unsafe negation",
		`p(?X, "unterminated -> q(?X).`:      "unterminated string",
		`p(?) -> q(?X).`:                     "empty variable",
		`p(?X) - q(?X).`:                     "lone dash",
		`p(?X), not r(?X) -> false.`:         "negation in constraint",
		`p(?X) -> q(?X). p(?X,?Y) -> q(?X).`: "arity clash (Validate via Schema is not checked here)",
	}
	for src, why := range bad {
		if _, err := Parse(src); err == nil && why != "arity clash (Validate via Schema is not checked here)" {
			t.Errorf("Parse(%q) succeeded, want error (%s)", src, why)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	// Program String output must re-parse to an identical program.
	srcs := []string{
		`triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X).`,
		`p(?X), not q(?X) -> exists ?Z r(?X, ?Z).`,
		`a(?X, ?Y), b(?Y) -> false.`,
		`t(?X) -> exists ?Z p(?X, ?Z).`,
		`zero(?X) -> exists ?Y ism(?Y, ?X).`,
	}
	for _, src := range srcs {
		p1 := MustParse(src)
		p2, err := Parse(p1.String())
		if err != nil {
			t.Fatalf("re-parse of %q (%q) failed: %v", src, p1.String(), err)
		}
		if p1.String() != p2.String() {
			t.Errorf("round trip changed program:\n%s\nvs\n%s", p1, p2)
		}
	}
}

func TestParseAtomHelper(t *testing.T) {
	a, err := ParseAtom(`triple(?X, rdf:type, owl:Class)`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred != "triple" || a.Args[2] != C("owl:Class") {
		t.Errorf("atom = %v", a)
	}
	if _, err := ParseAtom(`p(?X) trailing`); err == nil {
		t.Error("trailing input should fail")
	}
	if _, err := ParseAtom(`?X`); err == nil {
		t.Error("non-atom should fail")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("p(?X)")
}

func TestParseQueryValidatesOutput(t *testing.T) {
	if _, err := ParseQuery(`p(?X) -> q(?X). q(?X) -> r(?X).`, "q"); err == nil {
		t.Error("output predicate occurring in a body must be rejected")
	}
	if _, err := ParseQuery(`p(?X) -> q(?X).`, "q"); err != nil {
		t.Fatal(err)
	}
}

func TestParseLineNumbersInErrors(t *testing.T) {
	_, err := Parse("p(?X) -> q(?X).\n\nbroken(?X -> q(?X).")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should mention line 3, got %v", err)
	}
}

func TestSchemaArityClash(t *testing.T) {
	prog := MustParse(`p(?X) -> q(?X).`)
	prog.Add(Rule{BodyPos: []Atom{NewAtom("p", V("X"), V("Y"))}, Head: []Atom{NewAtom("r", V("X"))}})
	if _, err := prog.Schema(); err == nil {
		t.Error("arity clash should be detected by Schema")
	}
}
