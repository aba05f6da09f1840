package triq

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

// This file provides the provably-exact counterpart to the fast bottom-up
// evaluator: Π(D)↓ computed by running the ProofTree decision procedure of
// Section 6.3 over every candidate ground atom, sharing the memoized state
// space across goals. For a fixed warded program this is polynomial in the
// database (|sch| · |dom|^arity goals, each decided in polynomial time), so
// it realizes the Theorem 6.7 upper bound end-to-end — the "practical
// algorithm for computing the ground semantics of a warded Datalog^∃
// program" the paper lists as future work, in its simplest correct form.

// ExactGroundCtx computes Π(D)↓ for a warded program with (optional)
// stratified grounded negation. Negation is first eliminated per Step 1 of
// Section 6.3; constraints are not supported (apply the Π⊥ reduction first).
// The predicates of the result are those of the original program.
//
// Only predicates listed in preds are enumerated; nil means every program
// predicate. Restricting the predicates keeps |dom|^arity enumeration
// affordable when only an output relation is needed.
//
// When the proof search is cut short by a limit mid-enumeration, the atoms
// certified before the abort are returned alongside the typed error: each
// carries a proof, so the partial instance is a sound under-approximation of
// Π(D)↓.
func ExactGroundCtx(ctx context.Context, db *chase.Instance, prog *datalog.Program, preds []string, chaseOpts chase.Options, opts ProofOptions) (*chase.Instance, error) {
	if len(prog.Constraints) > 0 {
		return nil, fmt.Errorf("triq: ExactGround requires a constraint-free program")
	}
	workDB, workProg := db, prog
	if prog.HasNegation() {
		var err error
		workDB, workProg, err = EliminateNegationCtx(ctx, db, prog, chaseOpts)
		if err != nil {
			return nil, err
		}
	}
	pv, err := NewProver(workDB, workProg, opts)
	if err != nil {
		return nil, err
	}
	// Enumerate over the ORIGINAL program's schema: negation elimination
	// replaces ¬s atoms by complement predicates, which would otherwise drop
	// purely-extensional negated predicates like s from the schema.
	sch, err := prog.Schema()
	if err != nil {
		return nil, err
	}
	if workProg != prog {
		workSch, err := workProg.Schema()
		if err != nil {
			return nil, err
		}
		for p, a := range workSch {
			if _, ok := sch[p]; !ok {
				sch[p] = a
			}
		}
	}
	if preds == nil {
		preds = append(preds, prog.Predicates()...)
		sort.Strings(preds)
	}
	// The goal domain: constants of the (negation-eliminated) database and
	// the program.
	domSet := make(map[datalog.Term]bool)
	for _, c := range workDB.Constants() {
		domSet[c] = true
	}
	for _, r := range workProg.Rules {
		for _, a := range append(r.Body(), r.Head...) {
			for _, t := range a.Args {
				if t.IsConst() {
					domSet[t] = true
				}
			}
		}
	}
	dom := make([]datalog.Term, 0, len(domSet))
	for t := range domSet {
		dom = append(dom, t)
	}
	sort.Slice(dom, func(i, j int) bool { return dom[i].Compare(dom[j]) < 0 })

	out := chase.NewInstance()
	for _, pred := range preds {
		arity, ok := sch[pred]
		if !ok {
			return nil, fmt.Errorf("triq: predicate %s not in the program schema", pred)
		}
		tuple := make([]datalog.Term, arity)
		var rec func(k int) error
		rec = func(k int) error {
			if k == arity {
				goal := datalog.Atom{Pred: pred, Args: append([]datalog.Term(nil), tuple...)}
				proven, err := pv.ProvesCtx(ctx, goal)
				if err != nil {
					return err
				}
				if proven {
					out.Add(goal)
				}
				return nil
			}
			for _, c := range dom {
				tuple[k] = c
				if err := rec(k + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(0); err != nil {
			// The atoms certified so far each carry a proof: return them as a
			// sound partial result alongside the typed error.
			return out, err
		}
	}
	return out, nil
}

// EvalExactCtx evaluates a TriQ-Lite 1.0 query with the exact procedure: the
// constraints are reduced per Theorem 4.4, negation is eliminated per
// Step 1, and the output predicate (plus the inconsistency marker) is
// enumerated with ProofTree. Slower than EvalCtx, but its answers carry a
// per-tuple proof, and it is exact even when the chase of the program is
// infinite. A visit-budget trip degrades to the sound partial answer set
// (every tuple certified by a proof) with Result.Incomplete set;
// cancellation and deadlines return typed errors.
func EvalExactCtx(ctx context.Context, db *chase.Instance, q datalog.Query, opts Options) (*Result, error) {
	if err := Validate(q, TriQLite10); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, opts.Chase.Obs, "triq.exact",
		obs.F("output", q.Output),
		obs.F("db_facts", db.Len()))
	prog := rewriteConstraints(q.Program)
	preds := []string{q.Output}
	if len(q.Program.Constraints) > 0 {
		preds = append(preds, inconsistencyMarker)
	}
	ground, err := ExactGroundCtx(ctx, db, prog, preds, opts.Chase, ProofOptions{MaxVisits: opts.MaxVisits, Obs: opts.Chase.Obs, Faults: opts.Chase.Faults})
	res := &Result{Exact: true}
	if err != nil {
		if ground == nil || !limits.IsBudget(err) {
			sp.End(obs.F("error", true))
			return nil, err
		}
		res.Exact = false
		res.Incomplete = true
		if tr, ok := limits.TruncationOf(err); ok {
			res.Truncation = tr
		}
	}
	ans := answersOf(len(ground.AtomsOf(inconsistencyMarker)) > 0, ground.AtomsOf(q.Output))
	res.Answers = ans
	if ans.Inconsistent {
		sp.End(obs.F("inconsistent", true))
		return res, nil
	}
	sp.End(
		obs.F("answers", len(ans.Tuples)),
		obs.F("exact", res.Exact),
		obs.F("incomplete", res.Incomplete))
	return res, nil
}
