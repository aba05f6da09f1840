package triq

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
)

func TestLanguageStrings(t *testing.T) {
	for _, l := range []Language{TriQ10, TriQLite10, Unrestricted, Language(9)} {
		if l.String() == "" {
			t.Errorf("Language(%d).String empty", int(l))
		}
	}
}

func TestValidateLanguages(t *testing.T) {
	clique := datalog.MustParseQuery(`
		n(?X) -> exists ?Y ism(?Y, ?X).
		ism(?X, ?Y), n2(?W) -> exists ?U next(?X, ?W, ?U).
		next(?X, ?Y, ?Z), map2(?X, ?U) -> map2(?Z, ?U).
		map2(?X, ?U) -> out(?U).
	`, "out")
	// The map2-propagation joins the ward with next on the harmful ?X:
	// TriQ 1.0 yes, TriQ-Lite 1.0 no.
	if err := Validate(clique, TriQ10); err != nil {
		t.Errorf("should be TriQ 1.0: %v", err)
	}
	if err := Validate(clique, TriQLite10); err == nil {
		t.Error("should not be TriQ-Lite 1.0")
	}
	if err := Validate(clique, Unrestricted); err != nil {
		t.Errorf("unrestricted should accept: %v", err)
	}
}

func TestEvalTransportTriQLite(t *testing.T) {
	db := chase.NewInstance(
		atom("triple", "TheAirline", "partOf", "transportService"),
		atom("triple", "A311", "partOf", "TheAirline"),
		atom("triple", "Oxford", "A311", "London"),
		atom("triple", "BritishAirways", "partOf", "transportService"),
		atom("triple", "BA201", "partOf", "BritishAirways"),
		atom("triple", "London", "BA201", "Madrid"),
	)
	q := datalog.MustParseQuery(`
		triple(?X, partOf, transportService) -> ts(?X).
		triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
		ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
		ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
		conn(?X, ?Y) -> query(?X, ?Y).
	`, "query")
	res, err := Eval(db, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Error("Datalog program should evaluate exactly")
	}
	if len(res.Answers.Tuples) != 3 {
		t.Errorf("answers = %v", res.Answers.Tuples)
	}
	if !res.Answers.HasConstants("Oxford", "Madrid") {
		t.Error("Oxford→Madrid missing")
	}
}

func TestEvalWithConstraints(t *testing.T) {
	q := datalog.MustParseQuery(`
		type(?X, ?Y) -> out(?X).
		type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.
	`, "out")
	bad := chase.NewInstance(atom("type", "a", "C1"), atom("type", "a", "C2"), atom("disj", "C1", "C2"))
	res, err := Eval(bad, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Inconsistent {
		t.Error("Q(D) should be ⊤")
	}
	if len(res.Answers.Tuples) != 0 {
		t.Error("⊤ must carry no tuples")
	}
	good := chase.NewInstance(atom("type", "a", "C1"))
	res, err = Eval(good, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Inconsistent || len(res.Answers.Tuples) != 1 {
		t.Errorf("answers = %+v", res.Answers)
	}
}

func TestEvalInfiniteChaseWarded(t *testing.T) {
	// Warded program with an infinite chase: Eval must stabilize and agree
	// with the ProofTree certifier.
	db := chase.NewInstance(atom("e", "a", "b"), atom("g", "b"))
	prog := datalog.MustParse(`
		e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
		e(?X, ?Y), g(?Y) -> reach(?X).
		reach(?X) -> out(?X).
	`)
	q := datalog.NewQuery(prog, "out")
	res, err := Eval(db, q, TriQLite10, Options{Chase: chase.Options{MaxDepth: 30}})
	if err != nil {
		t.Fatal(err)
	}
	// No bound finishes this chase; rung 1 of the closing pass proves the probe
	// at depth 0 complete.
	if steps := res.Stats.Deepening; !res.Exact || res.Depth != 0 || len(steps) != 2 || !steps[1].Closing || !steps[1].Coarse {
		t.Errorf("exact %v at depth %d, steps %+v; want an evaluation closed on rung 1 at depth 0", res.Exact, res.Depth, steps)
	}
	if len(res.Answers.Tuples) != 1 || !res.Answers.HasConstants("a") {
		t.Errorf("answers = %v", res.Answers.Tuples)
	}
	pv, err := NewProver(db, prog, ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := pv.Proves(atom("out", "a"))
	if err != nil || !ok {
		t.Errorf("ProofTree disagrees: out(a) = %v, %v", ok, err)
	}
}

// TestEvalConstraintThroughClosingFactsIsNotTop: the ⊥ marker a closing pass
// derives from its summary nulls — r(s, s), where s stands for every null
// beyond the bound and so succeeds itself — is the pass's failure, not Q(D) = ⊤.
func TestEvalConstraintThroughClosingFactsIsNotTop(t *testing.T) {
	db := chase.NewInstance(atom("p", "a"))
	q := datalog.MustParseQuery(`
		p(?X) -> exists ?Y r(?X, ?Y).
		r(?X, ?Y) -> exists ?Z r(?Y, ?Z).
		p(?X) -> out(?X).
		r(?X, ?X) -> false.
	`, "out")
	res, err := Eval(db, q, TriQLite10, Options{Chase: chase.Options{MaxDepth: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Inconsistent || !res.Answers.HasConstants("a") {
		t.Errorf("answers = %+v, want out(a) and no ⊤", res.Answers)
	}
	// Every pass failed, so nothing is proved: the window stopped it, after the
	// probe it does not count and depths 2, 4 and 6.
	if res.Exact || res.Depth != 6 || len(res.Stats.Deepening) != 4 {
		t.Errorf("exact %v at depth %d, steps %+v; want the fallback's depth 6", res.Exact, res.Depth, res.Stats.Deepening)
	}
}

func TestEvalRejectsWrongDialect(t *testing.T) {
	q := datalog.MustParseQuery(`
		n(?X) -> exists ?Y s(?X, ?Y).
		s(?X, ?Y) -> s(?Y, ?X).
		s(?X, ?Y), s(?Y, ?W) -> out(?X).
	`, "out")
	if _, err := Eval(chase.NewInstance(), q, TriQLite10, Options{}); err == nil {
		t.Error("non-warded query must be rejected under TriQ-Lite 1.0")
	}
	if _, err := Eval(chase.NewInstance(), q, TriQ10, Options{}); err != nil {
		t.Errorf("TriQ 1.0 should accept: %v", err)
	}
}

func TestEvalAnswersSorted(t *testing.T) {
	db := chase.NewInstance(atom("p", "c"), atom("p", "a"), atom("p", "b"))
	q := datalog.MustParseQuery(`p(?X) -> out(?X).`, "out")
	res, err := Eval(db, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers.Tuples) != 3 {
		t.Fatalf("answers = %v", res.Answers.Tuples)
	}
	for i, want := range []string{"a", "b", "c"} {
		if res.Answers.Tuples[i][0] != datalog.C(want) {
			t.Errorf("tuple %d = %v, want %s", i, res.Answers.Tuples[i], want)
		}
	}
}

func TestEvalStarAnswersAreNotInconsistency(t *testing.T) {
	// Legitimate answers containing ⋆ (as produced by the SPARQL
	// translation for unbound positions) must not be mistaken for ⊤.
	db := chase.NewInstance(atom("p", "a"))
	q := datalog.MustParseQuery(`p(?X) -> out(?X, ⋆).`, "out")
	res, err := Eval(db, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Inconsistent {
		t.Error("⋆-answers misread as ⊤")
	}
	if len(res.Answers.Tuples) != 1 || res.Answers.Tuples[0][1] != datalog.C(datalog.StarConstant) {
		t.Errorf("answers = %v", res.Answers.Tuples)
	}
}
