package datalog_test

import (
	"slices"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
)

// TestHeadGroundedSplitWithNegation: a split rule's negated atoms go with the
// ward, which alone binds ?V, while the rest hands it ?X and ?U; the split
// program is normalized, keeps its negation grounded, and has the original's
// ground atoms, which the negations shape.
func TestHeadGroundedSplitWithNegation(t *testing.T) {
	p := datalog.MustParse(`
		a(?X) -> exists ?Z s(?X, ?Z).
		s(?X, ?Y) -> s(?Y, ?X).
		s(?X, ?Y), a(?V) -> r(?X, ?Y, ?V).
		r(?X, ?Y, ?V), s(?X, ?W), a(?X), e(?X, ?U), not b(?U), not c(?V), not d(?X, ?V) -> h(?X, ?Y).
	`)
	q, err := datalog.HeadGroundedSplit(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rules) != 5 {
		t.Fatalf("split rules = %d, want 5:\n%s", len(q.Rules), q)
	}
	if rest, ward := q.Rules[3], q.Rules[4]; len(rest.BodyNeg) != 0 || !slices.EqualFunc(ward.BodyNeg, p.Rules[3].BodyNeg, datalog.Atom.Equal) {
		t.Errorf("the negated atoms must go with the ward:\n%s", q)
	}
	an := datalog.Analyze(q)
	for _, r := range q.Rules {
		if !datalog.IsHeadGrounded(an, r) && !datalog.IsSemiBodyGrounded(an, r) {
			t.Errorf("rule %v is neither head-grounded nor semi-body-grounded", r)
		}
	}
	if err := datalog.CheckGroundedNegation(q); err != nil {
		t.Errorf("the split lost grounded negation: %v", err)
	}

	c := func(name string) datalog.Term { return datalog.C(name) }
	db := chase.NewInstance(
		datalog.NewAtom("a", c("x")), datalog.NewAtom("a", c("y")), datalog.NewAtom("a", c("z")),
		datalog.NewAtom("s", c("x"), c("y")), datalog.NewAtom("s", c("z"), c("x")),
		datalog.NewAtom("e", c("x"), c("x")), datalog.NewAtom("e", c("z"), c("y")), datalog.NewAtom("e", c("y"), c("x")),
		datalog.NewAtom("b", c("y")), datalog.NewAtom("c", c("z")), datalog.NewAtom("d", c("x"), c("x")),
	)
	ground := func(prog *datalog.Program) []datalog.Atom {
		t.Helper()
		res, err := chase.Run(db, prog, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := slices.Clone(res.Instance.GroundPart().AtomsOf("h"))
		slices.SortFunc(h, datalog.Atom.Compare)
		return h
	}
	want, got := ground(p), ground(q)
	if !slices.EqualFunc(got, want, datalog.Atom.Equal) {
		t.Errorf("split program derives h %v, the original %v", got, want)
	}
	if positive := ground(p.Positive()); len(positive) <= len(want) {
		t.Errorf("the negations block nothing: %v without them, %v with", positive, want)
	}
}
