package triq

import (
	"context"
	"slices"

	"repro/internal/chase"
	"repro/internal/datalog"
)

// Negation on the exact path. Step 1 of Section 6.3 makes a program with
// stratified grounded negation positive, so that ProofTree applies: for each
// predicate s negated in stratum i it materializes s̄, the complement of s
// over dom^arity against the ground part of the strata below, and rewrites
// ¬s(t) to s̄(t). Grounded negation instantiates every negated atom to
// constants, so s̄(t) holds exactly when s(t) is not in that ground part:
// the complement is a membership test, and the chase and ProofTree both run
// it as a lookup instead of building it.
//
// The lookup needs that ground part fixed and known. A negated predicate no
// rule derives is read in D as it is. For a derived one, certifyNegated
// certifies its extent over the strata below — the chase, and ProofTree on the
// goals the closing pass leaves open — and copies it into the database under
// a name of its own, which the rules above negate instead. The copy matters:
// OpenGoals runs the closing pass on to its fixpoint, whose constant-only
// atoms of s are an upper bound of Π(D)↓, not Π(D)↓; read by a negation, the
// spurious ones would block triggers that Π(D) fires.

// certifiedPred names the database copy of a derived predicate's certified
// extent. Like the inconsistency marker, it is an engine-reserved name.
func certifiedPred(pred string) string { return pred + "#certified" }

// certifyNegated returns (D', Π'): Π with every negated atom over a derived
// predicate s rewritten to certifiedPred(s), and D' = D plus the copy of
// Π(D)↓ restricted to s, certified below the first stratum that negates s.
// Π' negates database predicates only, and Q(D) = Q(D') under Π' on the
// original schema. The program must be constraint-free with grounded
// negation. Any error, a budget trip included, comes back as is: a copy
// certified in part would make the strata above unsound.
func certifyNegated(ctx context.Context, db *chase.Instance, prog *datalog.Program, opts Options) (*chase.Instance, *datalog.Program, error) {
	work := datalog.SingleHead(prog)
	strat, err := datalog.Stratify(work)
	if err != nil {
		return nil, nil, err
	}
	strata, err := strat.Strata(work)
	if err != nil {
		return nil, nil, err
	}
	idb := work.IDBPredicates()
	dbPlus, progPlus := db.Clone(), &datalog.Program{}
	certified := map[string]bool{}
	for _, rules := range strata {
		var preds []string
		for _, r := range rules {
			for _, a := range r.BodyNeg {
				if idb[a.Pred] && !certified[a.Pred] && !slices.Contains(preds, a.Pred) {
					preds = append(preds, a.Pred)
				}
			}
		}
		if len(preds) > 0 {
			gr, extent, err := certify(ctx, dbPlus, progPlus, preds, opts)
			if err != nil {
				return nil, nil, err
			}
			// The chase's instance is a layer over dbPlus: read the extent out
			// before the copies go in.
			for _, p := range preds {
				extent = append(extent, gr.GroundAtomsOf(p)...)
				certified[p] = true
			}
			for _, a := range extent {
				dbPlus.Add(datalog.Atom{Pred: certifiedPred(a.Pred), Args: a.Args})
			}
		}
		for _, r := range rules {
			r.BodyNeg = slices.Clone(r.BodyNeg)
			for i, a := range r.BodyNeg {
				if certified[a.Pred] {
					r.BodyNeg[i].Pred = certifiedPred(a.Pred)
				}
			}
			progPlus.Add(r)
		}
	}
	return dbPlus, progPlus, nil
}
