package triq

import (
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
)

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
	dbPlus, progPlus, err := EliminateNegation(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if progPlus.HasNegation() {
		t.Fatal("Π+ must be negation-free")
	}
	// The complement predicate must be populated: tc misses e.g. (b,a).
	if !dbPlus.Has(atom("not#tc", "b", "a")) {
		t.Error("complement fact not#tc(b,a) missing")
	}
	if dbPlus.Has(atom("not#tc", "a", "b")) {
		t.Error("not#tc(a,b) should be absent: tc(a,b) holds")
	}
	// Q(D) = Q+(D+) on the output predicate.
	orig, err := chase.Run(db, prog, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plus, err := chase.Run(dbPlus, progPlus, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, wantAtom := range orig.Instance.AtomsOf("un") {
		if !plus.Instance.Has(wantAtom) {
			t.Errorf("Π+ lost %v", wantAtom)
		}
	}
	if len(plus.Instance.AtomsOf("un")) != len(orig.Instance.AtomsOf("un")) {
		t.Errorf("un counts differ: %d vs %d",
			len(plus.Instance.AtomsOf("un")), len(orig.Instance.AtomsOf("un")))
	}
}

func TestEliminateNegationThreeStrata(t *testing.T) {
	db := chase.NewInstance(atom("b", "x"), atom("b", "y"), atom("special", "y"))
	prog := datalog.MustParse(`
		b(?X), not special(?X) -> plain(?X).
		b(?X), not plain(?X) -> fancy(?X).
	`)
	dbPlus, progPlus, err := EliminateNegation(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := chase.Run(dbPlus, progPlus, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Instance.Has(atom("plain", "x")) || res.Instance.Has(atom("plain", "y")) {
		t.Errorf("plain wrong: %v", res.Instance.AtomsOf("plain"))
	}
	if !res.Instance.Has(atom("fancy", "y")) || res.Instance.Has(atom("fancy", "x")) {
		t.Errorf("fancy wrong: %v", res.Instance.AtomsOf("fancy"))
	}
}

func TestEliminateNegationWithExistentials(t *testing.T) {
	// Negation downstream of value invention: warded, grounded.
	db := chase.NewInstance(atom("p", "c"), atom("p", "d"), atom("seen", "d"))
	prog := datalog.MustParse(`
		p(?X), not seen(?X) -> fresh(?X).
		fresh(?X) -> exists ?Y s(?X, ?Y).
		s(?X, ?Y), p(?X) -> out(?X).
	`)
	if err := datalog.CheckGroundedNegation(prog); err != nil {
		t.Fatal(err)
	}
	dbPlus, progPlus, err := EliminateNegation(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := chase.StableGround(dbPlus, progPlus, chase.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Ground().Has(atom("out", "c")) {
		t.Error("out(c) missing")
	}
	if gr.Ground().Has(atom("out", "d")) {
		t.Error("out(d) must be blocked by the negation")
	}
}

func TestEliminateNegationRejects(t *testing.T) {
	db := chase.NewInstance()
	withConstraint := datalog.MustParse(`
		p(?X) -> q(?X).
		q(?X) -> false.
	`)
	if _, _, err := EliminateNegation(db, withConstraint, Options{}); err == nil {
		t.Error("constraints must be rejected")
	}
	ungrounded := datalog.MustParse(`
		a(?X) -> exists ?Z s(?X, ?Z).
		s(?X, ?Y), not b(?Y) -> d(?X).
	`)
	if _, _, err := EliminateNegation(db, ungrounded, Options{}); err == nil {
		t.Error("ungrounded negation must be rejected")
	}
}

// TestProverWithNegation: ProofTree decides the atoms of a program with
// grounded negation over (D+, Π+), the way the exact path decides its open
// goals.
func TestProverWithNegation(t *testing.T) {
	db := chase.NewInstance(atom("p", "c"), atom("p", "d"), atom("seen", "d"))
	prog := datalog.MustParse(`
		p(?X), not seen(?X) -> fresh(?X).
		fresh(?X) -> exists ?Y s(?X, ?Y).
		s(?X, ?Y), p(?X) -> out(?X).
	`)
	dbPlus, progPlus, err := EliminateNegation(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pv, err := NewProver(dbPlus, progPlus, ProofOptions{})
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

// TestEliminateNegationCertifiesItsReference is the reference ground part of a
// stratum coming from the exact procedure: q(a) needs a null of depth 8, the
// stability window stops the chase of stratum 0 at depth 6 without it, and a
// complement read off that ground part would hold not#q(a). The closing pass
// leaves q(a) open, and ProofTree proves it.
func TestEliminateNegationCertifiesItsReference(t *testing.T) {
	db, prog := deepNegationFixture()
	dbPlus, _, err := EliminateNegation(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dbPlus.Has(atom("not#q", "a")) {
		t.Error("not#q(a) is in D+, but q(a) is in Π(D)")
	}
}

func TestComplementPredNaming(t *testing.T) {
	if !strings.HasPrefix(complementPred("tc"), "not#") {
		t.Error("complement naming changed")
	}
}
