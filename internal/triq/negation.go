package triq

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/chase"
	"repro/internal/datalog"
)

// This file implements Step 1 of the evaluation algorithm of Section 6.3:
// eliminating stratified *grounded* negation from a warded Datalog^{∃,¬sg}
// program by materializing complement relations. For each stratum i and each
// predicate s negated in it, the relation s̄ holds the complement of s with
// respect to the ground semantics Π⋆_{i-1}(D⋆_{i-1})↓ over the active
// domain; negative atoms ¬s(t) become positive atoms s̄(t). Because the
// negation is grounded, negated atoms only ever instantiate to constant
// tuples, so the complement construction is sound. The result (D+, Π+)
// satisfies Q(D) = Q+(D+) on the original schema.

// complementPred names the complement relation of a predicate.
func complementPred(pred string) string { return "not#" + pred }

// EliminateNegation computes (D+, Π+). The program must be stratified with
// grounded negation and free of constraints (apply the Π⊥ reduction first).
// The reference ground part of each stratum is computed the way the exact
// path computes an answer — the chase, and ProofTree on the goals its closing
// pass leaves open — and the options bound both.
func EliminateNegation(db *chase.Instance, prog *datalog.Program, opts Options) (*chase.Instance, *datalog.Program, error) {
	return EliminateNegationCtx(context.Background(), db, prog, opts)
}

// EliminateNegationCtx is EliminateNegation under a context: the
// intermediate ground-semantics computations honor cancellation, deadlines,
// and budgets. Complement materialization is NOT degradable — an incomplete
// reference instance would make complements unsound — so any limit abort is
// returned as an error.
func EliminateNegationCtx(ctx context.Context, db *chase.Instance, prog *datalog.Program, opts Options) (*chase.Instance, *datalog.Program, error) {
	if len(prog.Constraints) > 0 {
		return nil, nil, fmt.Errorf("triq: EliminateNegation requires a constraint-free program")
	}
	if err := datalog.CheckGroundedNegation(prog); err != nil {
		return nil, nil, err
	}
	work := datalog.SingleHead(prog)
	strat, err := datalog.Stratify(work)
	if err != nil {
		return nil, nil, err
	}
	strata, err := strat.Strata(work)
	if err != nil {
		return nil, nil, err
	}
	sch, err := work.Schema()
	if err != nil {
		return nil, nil, err
	}
	dbPlus := db.Clone()
	progPlus := &datalog.Program{}
	// The active domain for complements: constants of D and of Π.
	domSet := make(map[datalog.Term]bool)
	for _, c := range db.Constants() {
		domSet[c] = true
	}
	for _, r := range work.Rules {
		for _, a := range append(r.Body(), r.Head...) {
			for _, t := range a.Args {
				if t.IsConst() {
					domSet[t] = true
				}
			}
		}
	}
	var dom []datalog.Term
	for t := range domSet {
		dom = append(dom, t)
	}

	for i, rules := range strata {
		// Materialize complements for the predicates negated in this
		// stratum. In stratum 0 they are purely extensional; above it the
		// reference is the ground semantics of the accumulated positive
		// program.
		var negPreds []string
		for _, r := range rules {
			for _, a := range r.BodyNeg {
				if !slices.Contains(negPreds, a.Pred) {
					negPreds = append(negPreds, a.Pred)
				}
			}
		}
		ref := dbPlus
		if i > 0 && len(negPreds) > 0 {
			gr, proven, err := certify(ctx, dbPlus, progPlus, negPreds, opts)
			if err != nil {
				return nil, nil, err
			}
			// The chase's instance is a layer over dbPlus: copy the reference
			// out before the complements go in.
			ref = chase.NewInstance(proven...)
			for _, pred := range negPreds {
				for _, a := range gr.GroundAtomsOf(pred) {
					ref.Add(a)
				}
			}
		}
		var complements []datalog.Atom
		for _, pred := range negPreds {
			var err error
			if complements, err = appendComplement(complements, ref, pred, sch[pred], dom); err != nil {
				return nil, nil, err
			}
		}
		for _, a := range complements {
			dbPlus.Add(a)
		}
		for _, r := range rules {
			progPlus.Add(positivize(r))
		}
	}
	return dbPlus, progPlus, nil
}

func positivize(r datalog.Rule) datalog.Rule {
	out := datalog.Rule{
		BodyPos: append([]datalog.Atom(nil), r.BodyPos...),
		Head:    r.Head,
	}
	for _, a := range r.BodyNeg {
		out.BodyPos = append(out.BodyPos, datalog.Atom{Pred: complementPred(a.Pred), Args: a.Args})
	}
	return out
}

// appendComplement appends s̄(t) for every constant tuple t over the domain
// with s(t) absent from the reference instance.
func appendComplement(out []datalog.Atom, ref *chase.Instance, pred string, arity int, dom []datalog.Term) ([]datalog.Atom, error) {
	if arity > 4 && len(dom) > 32 {
		return nil, fmt.Errorf("triq: complement of %s would need |dom|^%d = %d^%d facts", pred, arity, len(dom), arity)
	}
	tuple := make([]datalog.Term, arity)
	var rec func(k int)
	rec = func(k int) {
		if k == arity {
			a := datalog.Atom{Pred: pred, Args: append([]datalog.Term(nil), tuple...)}
			if !ref.Has(a) {
				out = append(out, datalog.Atom{Pred: complementPred(pred), Args: a.Args})
			}
			return
		}
		for _, c := range dom {
			tuple[k] = c
			rec(k + 1)
		}
	}
	rec(0)
	return out, nil
}
