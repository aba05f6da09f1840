package chase

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datalog"
)

// randomProgram builds a random safe positive Datalog∃ program over unary
// and binary predicates p/1, e/2, q/1, r/2 with occasional existentials.
func randomProgram(rng *rand.Rand, allowExistentials bool) *datalog.Program {
	x, y, z := datalog.V("X"), datalog.V("Y"), datalog.V("Z")
	bodies := [][]datalog.Atom{
		{datalog.NewAtom("p", x)},
		{datalog.NewAtom("e", x, y)},
		{datalog.NewAtom("e", x, y), datalog.NewAtom("e", y, z)},
		{datalog.NewAtom("e", x, y), datalog.NewAtom("p", y)},
		{datalog.NewAtom("r", x, y), datalog.NewAtom("q", y)},
		{datalog.NewAtom("p", x), datalog.NewAtom("q", x)},
	}
	heads := []datalog.Atom{
		datalog.NewAtom("q", x),
		datalog.NewAtom("r", x, y),
		datalog.NewAtom("r", x, x),
		datalog.NewAtom("e", x, y),
		datalog.NewAtom("p", y),
	}
	exHeads := []datalog.Atom{
		datalog.NewAtom("r", x, datalog.V("W")),
		datalog.NewAtom("e", x, datalog.V("W")),
	}
	prog := &datalog.Program{}
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		body := bodies[rng.Intn(len(bodies))]
		var head datalog.Atom
		if allowExistentials && rng.Intn(3) == 0 {
			head = exHeads[rng.Intn(len(exHeads))]
		} else {
			head = heads[rng.Intn(len(heads))]
		}
		// Safety: non-existential head vars must occur in the body.
		bv := map[datalog.Term]bool{}
		for _, v := range datalog.VarsOf(body) {
			bv[v] = true
		}
		ok := true
		for _, v := range head.Vars() {
			if v != datalog.V("W") && !bv[v] {
				ok = false
			}
		}
		if !ok {
			continue
		}
		prog.Add(datalog.Rule{BodyPos: body, Head: []datalog.Atom{head}})
	}
	if len(prog.Rules) == 0 {
		prog.Add(datalog.MustParse(`p(?X) -> q(?X).`).Rules[0])
	}
	return prog
}

func randomDB(rng *rand.Rand) *Instance {
	db := NewInstance()
	names := []string{"a", "b", "c"}
	for i := 0; i < 2+rng.Intn(5); i++ {
		switch rng.Intn(3) {
		case 0:
			db.Add(atom("p", names[rng.Intn(3)]))
		case 1:
			db.Add(atom("q", names[rng.Intn(3)]))
		default:
			db.Add(atom("e", names[rng.Intn(3)], names[rng.Intn(3)]))
		}
	}
	return db
}

// Property: semi-naive and naive evaluation produce the same instance on
// random existential programs.
func TestPropertySemiNaiveEqualsNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng, true)
		db := randomDB(rng)
		opts := Options{MaxDepth: 4}
		semi, err1 := RunCtx(context.Background(), db, prog, opts)
		naiveOpts := opts
		naiveOpts.NaiveEvaluation = true
		naive, err2 := RunCtx(context.Background(), db, prog, naiveOpts)
		if err1 != nil || err2 != nil {
			t.Logf("errors: %v %v\n%s", err1, err2, prog)
			return false
		}
		// The Skolem naming may differ between strategies, so compare the
		// ground parts (which determine all answers).
		if !semi.Instance.GroundPart().Equal(naive.Instance.GroundPart()) {
			t.Logf("program:\n%s\ndb:\n%s", prog, db)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the chase is monotone in the database for positive programs —
// adding facts never removes derivable ground atoms.
func TestPropertyChaseMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng, true)
		db := randomDB(rng)
		bigger := db.Clone()
		bigger.Add(atom("e", "a", "c"))
		bigger.Add(atom("p", "b"))
		small, err1 := RunCtx(context.Background(), db, prog, Options{MaxDepth: 4})
		big, err2 := RunCtx(context.Background(), bigger, prog, Options{MaxDepth: 4})
		if err1 != nil || err2 != nil {
			return false
		}
		for _, a := range small.Instance.GroundPart().All() {
			if !big.Instance.Has(a) {
				t.Logf("lost %v for program:\n%s", a, prog)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: SingleHead and SingleExistential preserve the ground semantics
// on the original schema.
func TestPropertyNormalizationsPreserveGround(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng, true)
		// Multi-head variant: merge two random rules' heads.
		if len(prog.Rules) >= 2 && rng.Intn(2) == 0 {
			r0 := prog.Rules[0]
			r0.Head = append(append([]datalog.Atom{}, r0.Head...), prog.Rules[1].Head...)
			// Keep safety: all non-existential head vars must be in body.
			bv := map[datalog.Term]bool{}
			for _, v := range datalog.VarsOf(r0.BodyPos) {
				bv[v] = true
			}
			ok := true
			for _, v := range datalog.VarsOf(r0.Head) {
				if v != datalog.V("W") && !bv[v] {
					ok = false
				}
			}
			if ok {
				prog.Rules[0] = r0
			}
		}
		db := randomDB(rng)
		sch, err := prog.Schema()
		if err != nil {
			return true // arity clash in generated program: skip
		}
		base, err := RunCtx(context.Background(), db, prog, Options{MaxDepth: 4})
		if err != nil {
			return false
		}
		for name, norm := range map[string]*datalog.Program{
			"single-head":        datalog.SingleHead(prog),
			"single-existential": datalog.SingleExistential(datalog.SingleHead(prog)),
		} {
			got, err := RunCtx(context.Background(), db, norm, Options{MaxDepth: 4})
			if err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
			for pred := range sch {
				for _, a := range base.Instance.GroundPart().AtomsOf(pred) {
					if !got.Instance.Has(a) {
						t.Logf("%s lost %v for\n%s", name, a, prog)
						return false
					}
				}
				for _, a := range got.Instance.GroundPart().AtomsOf(pred) {
					if !base.Instance.Has(a) {
						t.Logf("%s invented %v for\n%s", name, a, prog)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Instance.Has agrees with linear scan after random adds.
func TestPropertyInstanceHasConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := NewInstance()
		var all []datalog.Atom
		for i := 0; i < 30; i++ {
			a := atom(fmt.Sprintf("p%d", rng.Intn(3)),
				fmt.Sprintf("c%d", rng.Intn(4)), fmt.Sprintf("c%d", rng.Intn(4)))
			inst.Add(a)
			all = append(all, a)
		}
		for _, a := range all {
			if !inst.Has(a) {
				return false
			}
		}
		if inst.Has(atom("absent", "x")) {
			return false
		}
		// Lookup cross-check against brute force.
		probe := atom("p0", "c1", "c2")
		want := 0
		for _, a := range inst.AtomsOf("p0") {
			if a.Args[0] == probe.Args[0] {
				want++
			}
		}
		if len(inst.Lookup("p0", 0, probe.Args[0])) != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
