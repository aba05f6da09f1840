package triq

import (
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
)

// The tests named for Step 1 of Section 6.3 hold its fixtures and answers on
// the path that replaced its complements: EvalExactCtx answers as the chase
// does, and certifyNegated copies each negated derived predicate's certified
// extent into the database, so the program it returns negates database
// predicates only.

// exactAnswers is the exact path's answer for one predicate, which must be
// Exact.
func exactAnswers(t *testing.T, db *chase.Instance, prog *datalog.Program, pred string) string {
	t.Helper()
	res, err := exactOf(t.Context(), db, prog, pred, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Errorf("%s: not exact", pred)
	}
	return fmt.Sprint(res.Answers.Tuples)
}

// certifiedCopy runs certifyNegated and checks that its program negates no
// derived predicate.
func certifiedCopy(t *testing.T, db *chase.Instance, prog *datalog.Program) *chase.Instance {
	t.Helper()
	dbPlus, progPlus, err := certifyNegated(t.Context(), db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if derived := progPlus.NegatedIDB(); len(derived) > 0 {
		t.Errorf("the rewritten program still negates derived %v:\n%s", derived, progPlus)
	}
	return dbPlus
}

func TestEliminateNegationSimple(t *testing.T) {
	// Unreachable pairs in a graph: a two-stratum program.
	db := chase.NewInstance(
		atom("e", "a", "b"), atom("e", "b", "c"),
		atom("v", "a"), atom("v", "b"), atom("v", "c"),
	)
	prog := datalog.MustParse(`
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
		v(?X), v(?Y), not tc(?X, ?Y) -> un(?X, ?Y).
	`)
	dbPlus := certifiedCopy(t, db, prog)
	if !dbPlus.Has(atom(certifiedPred("tc"), "a", "b")) || dbPlus.Has(atom(certifiedPred("tc"), "b", "a")) {
		t.Errorf("the certified copy of tc is wrong: %v", dbPlus.AtomsOf(certifiedPred("tc")))
	}
	orig, err := chase.Run(db, prog, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exactAnswers(t, db, prog, "un"), fmt.Sprint(answersOf(false, orig.Instance.AtomsOf("un")).Tuples); got != want {
		t.Errorf("un: exact path %s, the chase %s", got, want)
	}
}

func TestEliminateNegationThreeStrata(t *testing.T) {
	db := chase.NewInstance(atom("b", "x"), atom("b", "y"), atom("special", "y"))
	prog := datalog.MustParse(`
		b(?X), not special(?X) -> plain(?X).
		b(?X), not plain(?X) -> fancy(?X).
	`)
	if dbPlus := certifiedCopy(t, db, prog); !dbPlus.Has(atom(certifiedPred("plain"), "x")) || dbPlus.Has(atom(certifiedPred("special"), "y")) {
		t.Errorf("only the derived plain is copied: %v", dbPlus)
	}
	if got := exactAnswers(t, db, prog, "plain"); got != "[[x]]" {
		t.Errorf("plain = %s, want [[x]]", got)
	}
	if got := exactAnswers(t, db, prog, "fancy"); got != "[[y]]" {
		t.Errorf("fancy = %s, want [[y]]", got)
	}
}

func TestEliminateNegationWithExistentials(t *testing.T) {
	// Negation upstream of value invention: warded, grounded, and of a
	// database predicate, which needs no copy.
	db := chase.NewInstance(atom("p", "c"), atom("p", "d"), atom("seen", "d"))
	prog := datalog.MustParse(`
		p(?X), not seen(?X) -> fresh(?X).
		fresh(?X) -> exists ?Y s(?X, ?Y).
		s(?X, ?Y), p(?X) -> out(?X).
	`)
	if err := datalog.CheckGroundedNegation(prog); err != nil {
		t.Fatal(err)
	}
	if dbPlus := certifiedCopy(t, db, prog); dbPlus.Len() != db.Len() {
		t.Errorf("a program negating database predicates only got copies: %v", dbPlus)
	}
	if got := exactAnswers(t, db, prog, "out"); got != "[[c]]" {
		t.Errorf("out = %s, want [[c]]: out(d) is blocked by the negation", got)
	}
}

func TestEliminateNegationRejects(t *testing.T) {
	db := chase.NewInstance()
	for name, src := range map[string]string{
		"ungrounded": `
			a(?X) -> exists ?Z s(?X, ?Z).
			s(?X, ?Y), not b(?Y) -> d(?X).
		`,
		"unstratified": `
			a(?X), not d(?X) -> e(?X).
			e(?X) -> d(?X).
		`,
	} {
		prog := datalog.MustParse(src + `d(?X) -> out(?X).`)
		if _, err := EvalExactCtx(t.Context(), db, datalog.Query{Program: prog, Output: "out"}, Options{}); err == nil {
			t.Errorf("%s negation must be rejected", name)
		}
	}
}

// TestProverWithNegation: ProofTree decides the atoms of a program whose
// grounded negation reads a database predicate as it stands, the way the exact
// path decides its open goals.
func TestProverWithNegation(t *testing.T) {
	db := chase.NewInstance(atom("p", "c"), atom("p", "d"), atom("seen", "d"))
	prog := datalog.MustParse(`
		p(?X), not seen(?X) -> fresh(?X).
		fresh(?X) -> exists ?Y s(?X, ?Y).
		s(?X, ?Y), p(?X) -> out(?X).
	`)
	pv, err := NewProver(db, prog, ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := pv.Proves(atom("out", "c")); err != nil || !ok {
		t.Errorf("out(c) should be provable: %v %v", ok, err)
	}
	if ok, err := pv.Proves(atom("out", "d")); err != nil || ok {
		t.Errorf("out(d) should not be provable: %v %v", ok, err)
	}
}

// TestEliminateNegationCertifiesItsReference: the extent copied for the stratum
// above comes from the exact procedure, below and above the ground part. q(a)
// needs a null of depth 8, the stability window stops the chase of stratum 0
// at depth 6 without it, and a copy read off that ground part would lack q(a):
// the closing pass leaves q(a) open, and ProofTree proves it. cyc(a) needs an
// r-cycle, which only the pass's summary null has: it is open too, and a copy
// read off the pass's model would hold it and block acyclic(a); ProofTree
// refutes it.
func TestEliminateNegationCertifiesItsReference(t *testing.T) {
	db, prog := deepNegationFixture()
	if dbPlus := certifiedCopy(t, db, prog); !dbPlus.Has(atom(certifiedPred("q"), "a")) {
		t.Error("the certified copy of q lacks q(a), which is in Π(D)")
	}
	chain := datalog.MustParse(`
		p(?X) -> exists ?Y r(?X, ?Y).
		r(?X, ?Y) -> exists ?Z r(?Y, ?Z).
		r(?X, ?Y), r(?Y, ?X), p(?W) -> cyc(?W).
		p(?X), not cyc(?X) -> acyclic(?X).
	`)
	if dbPlus := certifiedCopy(t, db, chain); dbPlus.Has(atom(certifiedPred("cyc"), "a")) {
		t.Error("the certified copy of cyc holds cyc(a), which is not in Π(D)")
	}
	if got := exactAnswers(t, db, chain, "acyclic"); got != "[[a]]" {
		t.Errorf("acyclic = %s, want [[a]]", got)
	}
}
