package triq

import (
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
)

// example610 is the warded program of Example 6.10 / Figure 1.
const example610Src = `
	s(?X, ?Y, ?Z) -> exists ?W s(?X, ?Z, ?W).
	s(?X, ?Y, ?Z), s(?Y, ?Z, ?W) -> q(?X, ?Y).
	t(?X) -> exists ?Z p(?X, ?Z).
	p(?X, ?Y), q(?X, ?Z) -> r(?X, ?Y, ?Z).
	r(?X, ?Y, ?Z) -> p(?X, ?Z).
`

func atom(pred string, names ...string) datalog.Atom {
	args := make([]datalog.Term, len(names))
	for i, n := range names {
		args[i] = datalog.C(n)
	}
	return datalog.NewAtom(pred, args...)
}

func TestProofTreeFigure1(t *testing.T) {
	// Figure 1: p(a,a) has a proof-tree w.r.t. D = {s(a,a,a), t(a)} and the
	// program of Example 6.10.
	db := chase.NewInstance(atom("s", "a", "a", "a"), atom("t", "a"))
	pv, err := NewProver(db, datalog.MustParse(example610Src), ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	node, ok, err := pv.Prove(atom("p", "a", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("p(a,a) should be provable (Figure 1)")
	}
	if node == nil || node.Size() < 3 {
		t.Errorf("proof tree too small: %v", node)
	}
	rendered := node.Render()
	if !strings.Contains(rendered, "p(a, a)") {
		t.Errorf("rendered tree missing root:\n%s", rendered)
	}
	// q(a,a) is derivable directly from s(a,a,a) twice.
	if ok, err := pv.Proves(atom("q", "a", "a")); err != nil || !ok {
		t.Errorf("q(a,a) should be provable: %v %v", ok, err)
	}
}

func TestProofTreeNegativeGoal(t *testing.T) {
	// Without t(a), p(a,a) is not derivable.
	db := chase.NewInstance(atom("s", "a", "a", "a"))
	pv, err := NewProver(db, datalog.MustParse(example610Src), ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := pv.Proves(atom("p", "a", "a")); err != nil || ok {
		t.Errorf("p(a,a) should not be provable, got %v %v", ok, err)
	}
	// q(a,a) still is.
	if ok, _ := pv.Proves(atom("q", "a", "a")); !ok {
		t.Error("q(a,a) should still be provable")
	}
}

func TestProofTreeInfiniteChaseTerminates(t *testing.T) {
	// The chase of this warded program is infinite, yet every ground goal is
	// decided finitely.
	db := chase.NewInstance(atom("e", "a", "b"), atom("g", "b"))
	prog := datalog.MustParse(`
		e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
		e(?X, ?Y), g(?Y) -> out(?X).
	`)
	pv, err := NewProver(db, prog, ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := pv.Proves(atom("out", "a")); err != nil || !ok {
		t.Errorf("out(a) should be provable: %v %v", ok, err)
	}
	if ok, err := pv.Proves(atom("out", "b")); err != nil || ok {
		t.Errorf("out(b) should NOT be provable: %v %v", ok, err)
	}
	if ok, _ := pv.Proves(atom("e", "a", "b")); !ok {
		t.Error("database fact should be provable")
	}
	if ok, _ := pv.Proves(atom("e", "b", "a")); ok {
		t.Error("e(b,a) should not be provable")
	}
}

func TestProofTreeDatalogCycles(t *testing.T) {
	// Mutual recursion without base case must fail finitely; with a base
	// case it succeeds.
	prog := datalog.MustParse(`
		q(?X) -> p(?X).
		p(?X) -> q(?X).
		r(?X) -> p(?X).
	`)
	db := chase.NewInstance(atom("seed", "a"))
	pv, err := NewProver(db, prog, ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := pv.Proves(atom("p", "a")); ok {
		t.Error("p(a) should not be provable without a base fact")
	}
	db2 := chase.NewInstance(atom("r", "a"))
	pv2, _ := NewProver(db2, prog, ProofOptions{})
	if ok, _ := pv2.Proves(atom("q", "a")); !ok {
		t.Error("q(a) should be provable via r(a) → p(a) → q(a)")
	}
}

func TestProverRejectsBadPrograms(t *testing.T) {
	db := chase.NewInstance()
	// Negation of a database predicate is a lookup in db; negation of a derived
	// one, or with a null in reach, is not.
	if _, err := NewProver(db, datalog.MustParse(`a(?X), not b(?X) -> c(?X).`), ProofOptions{}); err != nil {
		t.Errorf("negation of a database predicate: %v", err)
	}
	if _, err := NewProver(db, datalog.MustParse(`a(?X) -> b(?X). a(?X), not b(?X) -> c(?X).`), ProofOptions{}); err == nil {
		t.Error("negation of a derived predicate must be rejected")
	}
	ungrounded := datalog.MustParse(`
		a(?X) -> exists ?Z s(?X, ?Z).
		s(?X, ?Y), not b(?Y) -> c(?X).
	`)
	if _, err := NewProver(db, ungrounded, ProofOptions{}); err == nil {
		t.Error("ungrounded negation must be rejected")
	}
	if _, err := NewProver(db, datalog.MustParse(`a(?X), a(?Y) -> false.`), ProofOptions{}); err == nil {
		t.Error("constraints must be rejected")
	}
	unwarded := datalog.MustParse(`
		a(?X) -> exists ?Z s(?X, ?Z).
		s(?X, ?Y) -> s(?Y, ?X).
		s(?X, ?Y), s(?Y, ?W) -> h(?X).
	`)
	if _, err := NewProver(db, unwarded, ProofOptions{}); err == nil {
		t.Error("unwarded program must be rejected")
	}
}

func TestProveRejectsNonGroundGoal(t *testing.T) {
	db := chase.NewInstance(atom("a", "c"))
	pv, err := NewProver(db, datalog.MustParse(`a(?X) -> b(?X).`), ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pv.Proves(datalog.NewAtom("b", datalog.V("X"))); err == nil {
		t.Error("variable goal must be rejected")
	}
	if _, err := pv.Proves(datalog.NewAtom("b", datalog.N("z"))); err == nil {
		t.Error("null goal must be rejected")
	}
}

// closedByPass reports that a closing pass ended the evaluation, proving its
// ground part complete.
func closedByPass(gr *chase.GroundResult) bool {
	steps := gr.Stats.Deepening
	return gr.Exact && len(steps) > 0 && steps[len(steps)-1].Closing
}

// crossValidate checks that ProofTree and the bottom-up stable-ground chase
// agree on every candidate ground atom of the program's schema over the
// database's constants, and reports whether a closing pass ended the chase:
// ProofTree, which has no depth bound, then certifies what the pass proved.
func crossValidate(t *testing.T, name string, db *chase.Instance, prog *datalog.Program) (closed bool) {
	t.Helper()
	gr, err := chase.StableGround(db, prog, chase.Options{MaxDepth: 24}, 2)
	if err != nil {
		t.Fatalf("%s: chase: %v", name, err)
	}
	if !gr.Exact {
		t.Errorf("%s: the chase neither terminated nor closed: %+v", name, gr.Stats.Deepening)
	}
	pv, err := NewProver(db, prog, ProofOptions{})
	if err != nil {
		t.Fatalf("%s: prover: %v", name, err)
	}
	sch, err := prog.Schema()
	if err != nil {
		t.Fatal(err)
	}
	consts := db.Constants()
	for _, a := range prog.Rules {
		_ = a
	}
	var tuples func(arity int) [][]datalog.Term
	tuples = func(arity int) [][]datalog.Term {
		if arity == 0 {
			return [][]datalog.Term{{}}
		}
		var out [][]datalog.Term
		for _, rest := range tuples(arity - 1) {
			for _, c := range consts {
				out = append(out, append(append([]datalog.Term{}, rest...), c))
			}
		}
		return out
	}
	for pred, arity := range sch {
		for _, tup := range tuples(arity) {
			goal := datalog.Atom{Pred: pred, Args: tup}
			want := gr.Ground().Has(goal)
			got, err := pv.Proves(goal)
			if err != nil {
				t.Fatalf("%s: prove %v: %v", name, goal, err)
			}
			if got != want {
				t.Errorf("%s: %v: prooftree=%v chase=%v", name, goal, got, want)
			}
		}
	}
	return closedByPass(gr)
}

func TestProofTreeAgreesWithChase(t *testing.T) {
	cases := []struct {
		name string
		db   *chase.Instance
		src  string
	}{
		{
			"example 6.10",
			chase.NewInstance(atom("s", "a", "a", "a"), atom("t", "a")),
			example610Src,
		},
		{
			"example 6.10 richer db",
			chase.NewInstance(atom("s", "a", "b", "a"), atom("s", "b", "a", "b"), atom("t", "b")),
			example610Src,
		},
		{
			"infinite chain with join-back",
			chase.NewInstance(atom("e", "a", "b"), atom("g", "b"), atom("g", "a")),
			`
				e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
				e(?X, ?Y), g(?Y) -> out(?X).
			`,
		},
		{
			"existential transitive closure",
			chase.NewInstance(atom("a", "x"), atom("e", "x", "y"), atom("e", "y", "x")),
			`
				a(?X) -> exists ?Z e(?X, ?Z).
				e(?X, ?Y), e(?Y, ?Z) -> e(?X, ?Z).
			`,
		},
		{
			"plain datalog transitive closure",
			chase.NewInstance(atom("e", "a", "b"), atom("e", "b", "c")),
			`
				e(?X, ?Y) -> tc(?X, ?Y).
				e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
			`,
		},
	}
	closed := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if crossValidate(t, tc.name, tc.db, datalog.MustParse(tc.src)) {
				closed++
			}
		})
	}
	// Example 6.10 and the infinite chain are: ProofTree certifies closed
	// evaluations too.
	if closed == 0 && !t.Failed() {
		t.Error("no case was ended by a closing pass")
	}
}

func TestProofTreeVisitBudget(t *testing.T) {
	db := chase.NewInstance(atom("e", "a", "b"), atom("g", "b"))
	prog := datalog.MustParse(`
		e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
		e(?X, ?Y), g(?Y) -> out(?X).
	`)
	pv, err := NewProver(db, prog, ProofOptions{MaxVisits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pv.Proves(atom("out", "a")); err == nil {
		t.Error("tiny budget should produce an error")
	}
}

func TestProofNodeRenderShape(t *testing.T) {
	n := &ProofNode{
		Atom: atom("p", "a"),
		Rule: "ρ1",
		Children: []*ProofNode{
			{Atom: atom("q", "a")},
			{Atom: atom("r", "a"), Rule: "ρ2", Children: []*ProofNode{{Atom: atom("s", "a")}}},
		},
	}
	out := n.Render()
	for _, want := range []string{"p(a)", "├─ q(a)", "└─ r(a)", "   └─ s(a)", "[db]", "[ρ1]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if n.Size() != 4 {
		t.Errorf("Size = %d", n.Size())
	}
}
