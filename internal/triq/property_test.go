package triq

import (
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
)

// randomWardedProgram generates random positive Datalog∃ programs and keeps
// the warded ones: rule shapes are drawn from templates known to often land
// inside the fragment, then CheckWarded filters.
func randomWardedProgram(rng *rand.Rand) *datalog.Program {
	x, y, z, w := datalog.V("X"), datalog.V("Y"), datalog.V("Z"), datalog.V("W")
	templates := []datalog.Rule{
		// guarded existential invention
		{BodyPos: []datalog.Atom{datalog.NewAtom("a", x)},
			Head: []datalog.Atom{datalog.NewAtom("s", x, w)}},
		// chain invention (infinite chase shape)
		{BodyPos: []datalog.Atom{datalog.NewAtom("s", x, y)},
			Head: []datalog.Atom{datalog.NewAtom("s", y, w)}},
		// transitive closure over the affected relation
		{BodyPos: []datalog.Atom{datalog.NewAtom("s", x, y), datalog.NewAtom("s", y, z)},
			Head: []datalog.Atom{datalog.NewAtom("s", x, z)}},
		// join back on ground anchors
		{BodyPos: []datalog.Atom{datalog.NewAtom("s", x, y), datalog.NewAtom("g", y)},
			Head: []datalog.Atom{datalog.NewAtom("out", x)}},
		{BodyPos: []datalog.Atom{datalog.NewAtom("s", x, y), datalog.NewAtom("a", x)},
			Head: []datalog.Atom{datalog.NewAtom("hit", x)}},
		// copy rules
		{BodyPos: []datalog.Atom{datalog.NewAtom("a", x)},
			Head: []datalog.Atom{datalog.NewAtom("g", x)}},
		{BodyPos: []datalog.Atom{datalog.NewAtom("out", x)},
			Head: []datalog.Atom{datalog.NewAtom("hit", x)}},
		{BodyPos: []datalog.Atom{datalog.NewAtom("g", x), datalog.NewAtom("s", x, y)},
			Head: []datalog.Atom{datalog.NewAtom("s2", x, y)}},
	}
	for tries := 0; tries < 50; tries++ {
		prog := &datalog.Program{}
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			prog.Add(templates[rng.Intn(len(templates))])
		}
		if err := datalog.CheckWarded(prog); err == nil {
			return prog
		}
	}
	// Fallback: a fixed warded program.
	return datalog.MustParse(`
		a(?X) -> exists ?W s(?X, ?W).
		s(?X, ?Y), g(?Y) -> out(?X).
	`)
}

// TestPropertyProofTreeAgreesWithChaseRandom cross-validates the paper's
// top-down decision procedure against the bottom-up stable-ground chase on
// randomly drawn warded programs and databases, over every candidate ground
// atom of arity ≤ 2.
func TestPropertyProofTreeAgreesWithChaseRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("random cross-validation skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(63))
	names := []string{"a", "b"}
	closed := 0 // evaluations a closing pass ended, which ProofTree certifies atom by atom
	for round := 0; round < 30; round++ {
		prog := randomWardedProgram(rng)
		db := chase.NewInstance()
		for i := 0; i < 1+rng.Intn(3); i++ {
			switch rng.Intn(3) {
			case 0:
				db.Add(atom("a", names[rng.Intn(2)]))
			case 1:
				db.Add(atom("g", names[rng.Intn(2)]))
			default:
				db.Add(atom("s", names[rng.Intn(2)], names[rng.Intn(2)]))
			}
		}
		gr, err := chase.StableGround(db, prog, chase.Options{MaxDepth: 16}, 2)
		if err != nil {
			t.Fatalf("round %d: chase: %v\n%s", round, err, prog)
		}
		if closedByPass(gr) {
			closed++
		}
		pv, err := NewProver(db, prog, ProofOptions{})
		if err != nil {
			t.Fatalf("round %d: prover: %v\n%s", round, err, prog)
		}
		sch, _ := prog.Schema()
		for pred, arity := range sch {
			var tuples [][]datalog.Term
			switch arity {
			case 1:
				for _, n := range names {
					tuples = append(tuples, []datalog.Term{datalog.C(n)})
				}
			case 2:
				for _, n := range names {
					for _, m := range names {
						tuples = append(tuples, []datalog.Term{datalog.C(n), datalog.C(m)})
					}
				}
			}
			for _, tup := range tuples {
				goal := datalog.Atom{Pred: pred, Args: tup}
				want := gr.Ground().Has(goal)
				got, err := pv.Proves(goal)
				if err != nil {
					t.Fatalf("round %d: prove %v: %v\n%s", round, goal, err, prog)
				}
				if got != want {
					t.Fatalf("round %d: %v: prooftree=%v chase=%v\nprogram:\n%s\ndb:\n%s",
						round, goal, got, want, prog, db)
				}
			}
		}
	}
	t.Logf("%d of 30 evaluations were ended by a closing pass", closed)
	if closed == 0 {
		t.Error("no evaluation was ended by a closing pass: the generator no longer certifies one")
	}
}
