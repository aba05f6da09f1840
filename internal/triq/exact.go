package triq

import (
	"context"
	"slices"

	"repro/internal/chase"
	"repro/internal/datalog"
)

// The exact path: Π(D)↓ by the chase and its closing pass, the evaluation
// EvalCtx always runs, with ProofTree deciding only what the pass leaves open
// when Options.Exact asks for it. A chase that terminates or closes is the
// whole answer. Otherwise the sandwich I_d↓ ⊆ Π(D)↓ ⊆ M↓ of the closing pass
// still holds for a program whose negated predicates are all extensional, so
// every answer outside I_d↓ is an open goal — an atom of M↓ ∖ I_d↓ — and
// deciding those (prove) decides Q(D). For a program that negates a derived
// predicate the sandwich bounds nothing until that predicate's extent is
// certified and read as database facts (certifyNegated): the upper strata of
// an inexact I_d may hold atoms that a fact missing below would have blocked.

// prove decides the open goals with the given predicates of gr, the chase of
// a warded program that negates database predicates only (with grounded
// negation), and returns those it proves: with the ground part of gr, the
// atoms of Π(D)↓ with those predicates. One Prover decides every goal, sharing
// its memo across them. When the inconsistency marker is among the
// predicates, finding it — in the ground part or proven — ends the work,
// since ⊤ is the answer whatever the rest is. On a limit the goals proven
// before it come with the typed error.
func prove(ctx context.Context, db *chase.Instance, prog *datalog.Program, gr *chase.GroundResult, preds []string, opts Options) ([]datalog.Atom, error) {
	if gr.Exact || slices.Contains(preds, datalog.InconsistencyMarker) && gr.Inconsistent {
		return nil, nil
	}
	goals, err := gr.OpenGoals(preds...)
	if err != nil || len(goals) == 0 {
		return nil, err
	}
	pv, err := NewProver(db, prog, ProofOptions{MaxVisits: opts.MaxVisits, Obs: opts.Chase.Obs, Faults: opts.Chase.Faults})
	if err != nil {
		return nil, err
	}
	var proven []datalog.Atom
	for _, g := range goals {
		ok, err := pv.ProvesCtx(ctx, g)
		if err != nil {
			return proven, err
		}
		if ok {
			proven = append(proven, g)
			if g.Pred == datalog.InconsistencyMarker {
				break
			}
		}
	}
	return proven, nil
}
