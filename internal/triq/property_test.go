package triq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
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

// negationRules are grounded negations to append to a random warded program:
// each negated variable is bound by a or g, which no null reaches, and no
// predicate of the program depends on the head. The last negates a derived
// predicate of arity 3, whose complement Step 1 would build over dom^3; built
// on cycleRule's cyc, its atoms are open goals wherever cyc(·) is.
var negationRules = []string{
	`a(?X), not hit(?X) -> miss(?X).`,
	`g(?X), not out(?X) -> lone(?X).`,
	`a(?X), a(?Y), not s(?X, ?Y) -> apart(?X, ?Y).`,
	`cyc(?X), s(?X, ?Y), g(?Z) -> tri(?X, ?Y, ?Z). a(?X), a(?Y), g(?Z), not tri(?X, ?Y, ?Z) -> wide(?X, ?Y, ?Z).`,
}

// cycleRule asks for an s-cycle, which a chain of nulls never closes but the
// closing pass's summary null, its own successor, does: where the program has
// the chain rule, cyc(·) is an open goal that ProofTree refutes.
const cycleRule = `s(?X, ?Y), s(?Y, ?X), a(?W) -> cyc(?W).`

// TestDifferentialExactVsProofTree holds the exact path — the chase, each
// negated derived predicate certified and read as database facts, and
// ProofTree on the open goals only — against the exact path as it was before
// it ran the chase: ProofTree asked about every tuple over dom, for each
// predicate and for Step 1's complements. Over the random warded programs
// of TestPropertyProofTreeAgreesWithChaseRandom, each also with cycleRule and
// with cycleRule and a grounded negation appended (the seed picks which, in
// turn, so each has inexact evaluations), every predicate's answer
// must agree with that oracle, be Exact, and equal the chase four levels
// deeper wherever that chase terminates. Replay one seed with
// TRIQ_DIFF_SEED=<n>.
func TestDifferentialExactVsProofTree(t *testing.T) {
	seeds := make([]int64, 100)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if env := os.Getenv("TRIQ_DIFF_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad TRIQ_DIFF_SEED %q: %v", env, err)
		}
		seeds = []int64{n}
	} else if testing.Short() {
		seeds = seeds[:10]
	}
	o := obs.New()
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prog := randomWardedProgram(rng)
			names := []string{"a", "b"}
			db := chase.NewInstance()
			for i := 0; i < 1+rng.Intn(4); i++ {
				switch n := names[rng.Intn(2)]; rng.Intn(3) {
				case 0:
					db.Add(atom("a", n))
				case 1:
					db.Add(atom("g", n))
				default:
					db.Add(atom("s", n, names[rng.Intn(2)]))
				}
			}
			withCycle := datalog.MustParse(prog.String() + cycleRule)
			withNeg := datalog.MustParse(withCycle.String() + negationRules[seed%int64(len(negationRules))])
			for _, p := range []*datalog.Program{prog, withCycle, withNeg} {
				diffExact(t, db, p, o)
				if t.Failed() {
					t.Logf("replay: TRIQ_DIFF_SEED=%d go test -run TestDifferentialExactVsProofTree ./internal/triq\nprogram:\n%s\ndb:\n%s", seed, p, db)
					return
				}
			}
		})
	}
	proofs := o.Registry().Counter("prover.proofs")
	t.Logf("ProofTree decided %d open goals", proofs)
	if os.Getenv("TRIQ_DIFF_SEED")+os.Getenv("TRIQ_FAULTS") == "" && !t.Failed() && proofs == 0 {
		t.Error("no evaluation left a goal open: the generator no longer exercises ProofTree")
	}
}

func diffExact(t *testing.T, db *chase.Instance, prog *datalog.Program, o *obs.Obs) {
	t.Helper()
	for _, pred := range prog.Predicates() {
		res, err := exactOf(t.Context(), db, prog, pred, Options{Chase: chase.Options{Obs: o}})
		if errors.Is(err, limits.ErrInjected) {
			return // TRIQ_FAULTS armed: not comparable
		}
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		want, err := proofTreeOracle(t.Context(), db, prog, pred)
		if err != nil {
			t.Fatalf("%s: oracle: %v", pred, err)
		}
		got := fmt.Sprint(res.Answers.Tuples)
		if !res.Exact || got != fmt.Sprint(want.Tuples) {
			t.Errorf("%s: exact path %s (exact %v), ProofTree on every tuple %s", pred, got, res.Exact, fmt.Sprint(want.Tuples))
		}
		far, err := chase.GroundSemantics(db, prog, chase.Options{MaxDepth: res.Depth + 4})
		if errors.Is(err, limits.ErrInjected) {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		if deep := fmt.Sprint(answersOf(false, far.GroundAtomsOf(pred)).Tuples); far.Exact && deep != got {
			t.Errorf("%s: exact path %s, the chase to depth %d %s", pred, got, res.Depth+4, deep)
		}
	}
}

// proofTreeOracle is Q(D) for one predicate the slow way: Step 1 of Section
// 6.3 with every complement decided by ProofTree tuple by tuple over dom, then
// ProofTree on every tuple of the predicate. It is the reference the exact
// path's lookups replaced.
func proofTreeOracle(ctx context.Context, db *chase.Instance, prog *datalog.Program, pred string) (*chase.Answers, error) {
	work := datalog.SingleHead(prog)
	strat, err := datalog.Stratify(work)
	if err != nil {
		return nil, err
	}
	strata, err := strat.Strata(work)
	if err != nil {
		return nil, err
	}
	sch, err := work.Schema()
	if err != nil {
		return nil, err
	}
	var dom []datalog.Term
	for _, c := range db.Constants() {
		dom = append(dom, c)
	}
	dbPlus, progPlus := db.Clone(), &datalog.Program{}
	// decide asks ProofTree about every tuple of p over dom, against (D+, Π+)
	// as they stand.
	decide := func(p string, yield func(datalog.Atom, bool)) error {
		pv, err := NewProver(dbPlus, progPlus, ProofOptions{})
		if err != nil {
			return err
		}
		tuple := make([]datalog.Term, sch[p])
		var rec func(k int) error
		rec = func(k int) error {
			if k == len(tuple) {
				a := datalog.Atom{Pred: p, Args: slices.Clone(tuple)}
				ok, err := pv.ProvesCtx(ctx, a)
				if err == nil {
					yield(a, ok)
				}
				return err
			}
			for _, c := range dom {
				tuple[k] = c
				if err := rec(k + 1); err != nil {
					return err
				}
			}
			return nil
		}
		return rec(0)
	}
	for _, rules := range strata {
		var complements []datalog.Atom
		decided := map[string]bool{}
		for _, r := range rules {
			for _, n := range r.BodyNeg {
				if decided[n.Pred] {
					continue
				}
				decided[n.Pred] = true
				if err := decide(n.Pred, func(a datalog.Atom, in bool) {
					if !in {
						complements = append(complements, datalog.Atom{Pred: complementPred(a.Pred), Args: a.Args})
					}
				}); err != nil {
					return nil, err
				}
			}
		}
		for _, a := range complements {
			dbPlus.Add(a)
		}
		for _, r := range rules {
			progPlus.Add(positivize(r))
		}
	}
	var out []datalog.Atom
	err = decide(pred, func(a datalog.Atom, in bool) {
		if in {
			out = append(out, a)
		}
	})
	return answersOf(false, out), err
}

// complementPred names Step 1's complement relation of a predicate.
func complementPred(pred string) string { return "not#" + pred }

// positivize is Step 1's rewrite of a rule: ¬s(t) becomes s̄(t).
func positivize(r datalog.Rule) datalog.Rule {
	out := datalog.Rule{BodyPos: slices.Clone(r.BodyPos), Head: r.Head}
	for _, a := range r.BodyNeg {
		out.BodyPos = append(out.BodyPos, datalog.Atom{Pred: complementPred(a.Pred), Args: a.Args})
	}
	return out
}
