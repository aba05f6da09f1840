package triq

import (
	"context"
	"slices"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

// The exact path: Π(D)↓ by the chase and its closing pass, the evaluation
// EvalCtx runs, with ProofTree deciding only what the pass leaves open. A
// chase that terminates or closes is the whole answer. Otherwise the sandwich
// I_d↓ ⊆ Π(D)↓ ⊆ M↓ of the closing pass still holds for a program whose
// negated predicates are all extensional, so every answer outside I_d↓ is an
// open goal — an atom of M↓ ∖ I_d↓ — and deciding those decides Q(D). For a
// program that negates a derived predicate the sandwich bounds nothing until
// that predicate's extent is certified and read as database facts
// (certifyNegated): the upper strata of an inexact I_d may hold atoms that a
// fact missing below would have blocked.

// EvalExactCtx evaluates a TriQ-Lite 1.0 query so that the answer is provably
// Q(D), or marked Incomplete. Constraints are reduced per Theorem 4.4 and the
// chase runs as in EvalCtx, without a materializer; when it does not end
// Exact, each negated derived predicate's extent is certified stratum by
// stratum and copied into the database, and the open goals of the program
// that negates those copies are decided with one Prover. A budget trip —
// facts, rounds or visits — degrades to the sound partial answer set with
// Result.Incomplete set (empty when it tripped before every negated derived
// predicate was certified: nothing is known to be sound until then);
// cancellation and deadlines return typed errors.
func EvalExactCtx(ctx context.Context, db *chase.Instance, q datalog.Query, opts Options) (*Result, error) {
	if err := Validate(q, TriQLite10); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, opts.Chase.Obs, "triq.exact",
		obs.F("output", q.Output),
		obs.F("db_facts", db.Len()))
	prog := rewriteConstraints(q.Program)
	preds := []string{inconsistencyMarker, q.Output}
	var (
		gr     *chase.GroundResult
		proven []datalog.Atom
		err    error
	)
	// sound says gr chased a program that negates no derived predicate, so that
	// the ground part of a run a limit cut short is sound; before those
	// predicates are certified it may not be.
	sound := len(prog.NegatedIDB()) == 0
	if sound {
		gr, proven, err = certify(ctx, db, prog, preds, opts)
	} else if gr, err = chase.StableGroundCtx(ctx, db, prog, opts.Chase, 0); err == nil && !gr.Exact {
		var dbPlus *chase.Instance
		var progPlus *datalog.Program
		if dbPlus, progPlus, err = certifyNegated(ctx, db, prog, opts); err == nil {
			sound = true
			gr, proven, err = certify(ctx, dbPlus, progPlus, preds, opts)
		}
	}
	res := &Result{Exact: err == nil, Path: PathChase}
	if err != nil {
		if gr == nil || !limits.IsBudget(err) {
			sp.End(obs.F("error", true))
			return nil, err
		}
		res.Incomplete = true
		res.Truncation, _ = limits.TruncationOf(err)
	}
	res.Depth, res.Stats = gr.Depth, gr.Stats
	accountChase(ctx, res.Stats)
	var marker, output []datalog.Atom
	if err == nil || sound {
		marker, output = gr.GroundAtomsOf(inconsistencyMarker), gr.GroundAtomsOf(q.Output)
	}
	for _, a := range proven {
		if a.Pred == inconsistencyMarker {
			marker = append(marker, a)
		} else {
			output = append(slices.Clip(output), a)
		}
	}
	res.Answers = answersOf(len(marker) > 0, output)
	sp.End(
		obs.F("answers", len(res.Answers.Tuples)),
		obs.F("inconsistent", res.Answers.Inconsistent),
		obs.F("proven", len(proven)),
		obs.F("incomplete", res.Incomplete))
	return res, nil
}

// certify computes the atoms of Π(D)↓ with the given predicates for a
// constraint-free warded program that negates database predicates only (with
// grounded negation): the ground part of the chase, plus the open
// goals a Prover proves when the chase is not Exact. One Prover decides every
// goal, sharing its memo across them. When the inconsistency marker is among
// the predicates, finding it — in the ground part or proven — ends the work,
// since ⊤ is the answer whatever the rest is. On a limit the chase result and
// the goals proven before it come with the typed error.
func certify(ctx context.Context, db *chase.Instance, prog *datalog.Program, preds []string, opts Options) (*chase.GroundResult, []datalog.Atom, error) {
	gr, err := chase.StableGroundCtx(ctx, db, prog, opts.Chase, 0)
	if err != nil || gr.Exact || slices.Contains(preds, inconsistencyMarker) && len(gr.GroundAtomsOf(inconsistencyMarker)) > 0 {
		return gr, nil, err
	}
	goals, err := gr.OpenGoals(preds...)
	if err != nil || len(goals) == 0 {
		return gr, nil, err
	}
	pv, err := NewProver(db, prog, ProofOptions{MaxVisits: opts.MaxVisits, Obs: opts.Chase.Obs, Faults: opts.Chase.Faults})
	if err != nil {
		return gr, nil, err
	}
	var proven []datalog.Atom
	for _, g := range goals {
		ok, err := pv.ProvesCtx(ctx, g)
		if err != nil {
			return gr, proven, err
		}
		if ok {
			proven = append(proven, g)
			if g.Pred == inconsistencyMarker {
				break
			}
		}
	}
	return gr, proven, nil
}
