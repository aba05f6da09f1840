package datalog

import (
	"strings"
	"testing"
)

func TestRuleAccessors(t *testing.T) {
	r := MustParse(`p(?X, ?Y), not n(?X) -> exists ?Z q(?X, ?Z).`).Rules[0]
	if got := len(r.Body()); got != 2 {
		t.Errorf("Body len = %d", got)
	}
	if got := r.BodyVars(); len(got) != 2 {
		t.Errorf("BodyVars = %v", got)
	}
	if got := r.HeadVars(); len(got) != 2 {
		t.Errorf("HeadVars = %v", got)
	}
	if got := r.ExistentialVars(); len(got) != 1 || got[0] != V("Z") {
		t.Errorf("ExistentialVars = %v", got)
	}
	if got := r.Frontier(); len(got) != 1 || got[0] != V("X") {
		t.Errorf("Frontier = %v", got)
	}
	if !r.HasExistential() {
		t.Error("HasExistential false")
	}
	dl := MustParse(`p(?X) -> q(?X).`).Rules[0]
	if dl.HasExistential() {
		t.Error("Datalog rule has no existentials")
	}
}

func TestRuleValidate(t *testing.T) {
	bad := []Rule{
		{Head: []Atom{NewAtom("q", V("X"))}},                                        // empty body
		{BodyPos: []Atom{NewAtom("p", V("X"))}},                                     // empty head
		{BodyPos: []Atom{NewAtom("p", N("z"))}, Head: []Atom{NewAtom("q")}},         // null in body
		{BodyPos: []Atom{NewAtom("p", V("X"))}, Head: []Atom{NewAtom("q", N("z"))}}, // null in head
		{ // unsafe negation
			BodyPos: []Atom{NewAtom("p", V("X"))},
			BodyNeg: []Atom{NewAtom("n", V("Y"))},
			Head:    []Atom{NewAtom("q", V("X"))},
		},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad rule %d validated: %v", i, r)
		}
	}
	good := NewRule(NewAtom("q", V("X")), NewAtom("p", V("X"), C("c")))
	if err := good.Validate(); err != nil {
		t.Errorf("good rule rejected: %v", err)
	}
}

func TestConstraintValidate(t *testing.T) {
	if err := (Constraint{}).Validate(); err == nil {
		t.Error("empty constraint should fail")
	}
	if err := (Constraint{Body: []Atom{NewAtom("p", N("z"))}}).Validate(); err == nil {
		t.Error("null in constraint should fail")
	}
	if err := (Constraint{Body: []Atom{NewAtom("p", V("X"))}}).Validate(); err != nil {
		t.Errorf("good constraint rejected: %v", err)
	}
}

func TestProgramAccessors(t *testing.T) {
	p := MustParse(`
		e(?X, ?Y) -> tc(?X, ?Y).
		tc(?X, ?Y), not bad(?X) -> good(?X).
		good(?X), good(?Y) -> false.
	`)
	if !p.HasNegation() {
		t.Error("HasNegation false")
	}
	if p.HasExistentials() {
		t.Error("HasExistentials true for Datalog program")
	}
	idb := p.IDBPredicates()
	if !idb["tc"] || !idb["good"] || idb["e"] || idb["bad"] {
		t.Errorf("IDBPredicates = %v", idb)
	}
	preds := p.Predicates()
	if len(preds) != 4 {
		t.Errorf("Predicates = %v", preds)
	}
	pos := p.Positive()
	if pos.HasNegation() || len(pos.Constraints) != 0 {
		t.Error("Positive should drop negation and constraints")
	}
	if len(pos.Rules) != len(p.Rules) {
		t.Error("Positive must keep all rules")
	}
}

func TestProgramCloneIndependence(t *testing.T) {
	p := MustParse(`p(?X) -> q(?X).`)
	q := p.Clone()
	q.Add(MustParse(`a(?X) -> b(?X).`).Rules[0])
	q.Rules[0].Head[0] = NewAtom("changed", V("X"))
	if len(p.Rules) != 1 {
		t.Error("Clone shares rule slice")
	}
	if p.Rules[0].Head[0].Pred != "q" {
		t.Error("Clone shares head atoms")
	}
}

func TestProgramMerge(t *testing.T) {
	p := MustParse(`p(?X) -> q(?X).`)
	q := MustParse(`a(?X) -> b(?X). a(?X), b(?X) -> false.`)
	p.Merge(q)
	if len(p.Rules) != 2 || len(p.Constraints) != 1 {
		t.Errorf("Merge result: %d rules, %d constraints", len(p.Rules), len(p.Constraints))
	}
}

func TestQueryValidate(t *testing.T) {
	q := NewQuery(nil, "out")
	if err := q.Validate(); err == nil {
		t.Error("nil program should fail")
	}
	q = NewQuery(MustParse(`p(?X) -> out(?X). out(?X), p(?X) -> false.`), "out")
	if err := q.Validate(); err == nil {
		t.Error("output predicate in constraint body should fail")
	}
	q = NewQuery(MustParse(`p(?X) -> out(?X).`), "out")
	if err := q.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

func TestProgramString(t *testing.T) {
	p := MustParse(`
		p(?X), not n(?X) -> exists ?Z q(?X, ?Z).
		p(?X), q(?X, ?Y) -> false.
	`)
	s := p.String()
	if !strings.Contains(s, "not n(?X)") || !strings.Contains(s, "exists ?Z") ||
		!strings.Contains(s, "-> false.") {
		t.Errorf("Program.String = %q", s)
	}
}
