// Package triq implements the paper's two query languages — TriQ 1.0
// (weakly-frontier-guarded Datalog^{∃,¬s,⊥}, Definition 4.2) and
// TriQ-Lite 1.0 (warded Datalog^{∃,¬sg,⊥}, Definition 6.1) — together with
// their evaluation: the Π⊥ constraint reduction of Theorem 4.4, bottom-up
// evaluation through the chase with ground-stabilized iterative deepening,
// and the top-down ProofTree decision procedure of Section 6.3 with
// proof-tree extraction (Definition 6.11, Figure 1).
package triq

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

// Language selects which of the paper's languages a query must belong to.
type Language int

const (
	// TriQ10 is TriQ 1.0: weakly-frontier-guarded Datalog^{∃,¬s,⊥}.
	// Eval is ExpTime-complete in data complexity (Theorem 4.4).
	TriQ10 Language = iota
	// TriQLite10 is TriQ-Lite 1.0: warded Datalog^{∃,¬sg,⊥}.
	// Eval is PTime-complete in data complexity (Theorem 6.7).
	TriQLite10
	// Unrestricted skips the dialect check (plain Datalog^{∃,¬s,⊥}; Eval is
	// undecidable in general, so evaluation is necessarily bounded).
	Unrestricted
)

func (l Language) String() string {
	switch l {
	case TriQ10:
		return "TriQ 1.0"
	case TriQLite10:
		return "TriQ-Lite 1.0"
	case Unrestricted:
		return "Datalog[∃,¬s,⊥]"
	default:
		return fmt.Sprintf("Language(%d)", int(l))
	}
}

// dialect maps a language to its syntactic check.
func (l Language) dialect() datalog.Dialect {
	switch l {
	case TriQ10:
		return datalog.WeaklyFrontierGuarded
	case TriQLite10:
		return datalog.TriQLite
	default:
		return datalog.AnyDialect
	}
}

// Validate checks that the query program belongs to the language.
func Validate(q datalog.Query, lang Language) error {
	if err := q.Validate(); err != nil {
		return err
	}
	return datalog.CheckDialect(q.Program, lang.dialect())
}

// Options configure evaluation.
type Options struct {
	// Chase bounds the underlying chase engine.
	Chase chase.Options
	// MaxVisits caps the proof-search component expansions with which the
	// exact path (EvalExactCtx) decides the goals its chase leaves open; 0
	// selects the ProofOptions default. Ignored by EvalCtx.
	MaxVisits int
	// Mat, when non-nil, lets evaluation answer from an incrementally
	// maintained materialization instead of chasing, provided Mat holds (or
	// can build) an instance for this program at exactly MatEpoch. On any
	// miss evaluation falls back to the from-scratch chase; Result.Path
	// reports which way the answer was produced.
	Mat Materializer
	// MatEpoch is the store epoch the query is pinned to; a materialization
	// serves only on an exact epoch match.
	MatEpoch uint64
}

// Result is the outcome of evaluating a TriQ query.
type Result struct {
	// Answers is Q(D): ⊤ (Inconsistent) or the set of constant tuples.
	Answers *chase.Answers
	// Exact reports that the answer set is provably complete: the chase
	// terminated within its depth bound, or its closing pass proved the ground
	// part complete at that bound (Stats.Deepening then ends with the pass),
	// or — on the exact path — ProofTree decided the goals the pass left open.
	// When false the answers are the stable fixpoint of iterative deepening, a
	// heuristic stop (see chase.StableGround); on the exact path it is false
	// only when Incomplete.
	Exact bool
	// Incomplete is true when a resource budget (facts, rounds, or visits)
	// tripped and the answers are the sound partial set computed before the
	// abort rather than all of Q(D). The chase is monotone, so for positive
	// programs every tuple reported is a certain answer; with stratified
	// negation tuples that depend on a negated atom of a truncated stratum
	// may be unsound and Incomplete should be treated as "approximate".
	Incomplete bool
	// Truncation reports which limit tripped and how far the evaluation got;
	// non-nil exactly when Incomplete.
	Truncation *limits.Truncation
	// Depth is the null-nesting depth at which the result was computed.
	Depth int
	// Path reports how the answer was produced: PathMaterialized (warm
	// materialization hit), PathMaterializedBuild (materialization built
	// during this query), or PathChase (from-scratch chase).
	Path  string
	Stats chase.Stats
}

// inconsistencyMarker is the 0-ary predicate used internally to signal that
// some constraint fired. It is a variant of the Π⊥ construction of
// Theorem 4.4 (whose literal form, deriving the all-⋆ output tuple, is
// available as datalog.ReduceConstraints): using a dedicated marker avoids
// colliding with legitimate all-⋆ answers, which the SPARQL translation of
// Section 5.1 produces for mappings with empty domain.
const inconsistencyMarker = "⊥#marker"

// Eval evaluates the query over the database as defined in Section 3.2:
// Q(D) = ⊤ when D is inconsistent w.r.t. Π, and the set of constant output
// tuples otherwise. The query must belong to the given language.
//
// Internally constraints are first eliminated in the style of Theorem 4.4 —
// they become ordinary rules deriving an inconsistency marker — so that a
// single monotone chase answers both the consistency question and the query.
func Eval(db *chase.Instance, q datalog.Query, lang Language, opts Options) (*Result, error) {
	return EvalCtx(context.Background(), db, q, lang, opts)
}

// EvalCtx is Eval under a context. Cancellation and deadlines abort with a
// typed limits error (ErrCanceled / ErrDeadline, carrying a Truncation
// report). Budget exhaustion — MaxFacts or MaxRounds tripping — degrades
// gracefully instead: the sound partial answer set computed before the
// abort is returned with Result.Incomplete set and the Truncation attached,
// and err is nil.
func EvalCtx(ctx context.Context, db *chase.Instance, q datalog.Query, lang Language, opts Options) (*Result, error) {
	if err := Validate(q, lang); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, opts.Chase.Obs, "triq.eval",
		obs.F("lang", lang.String()),
		obs.F("output", q.Output),
		obs.F("db_facts", db.Len()))
	prog := rewriteConstraints(q.Program)
	if opts.Mat != nil {
		if served := opts.Mat.Serve(prog, opts.MatEpoch, q.Output, opts.Chase); served != nil {
			res := servedResult(served, PathMaterialized)
			sp.End(obs.F("path", res.Path), obs.F("depth", res.Depth))
			return res, nil
		}
		if served, merr := opts.Mat.BuildServe(ctx, db, prog, opts.MatEpoch, q.Output, opts.Chase); merr == nil && served != nil {
			res := servedResult(served, PathMaterializedBuild)
			sp.End(obs.F("path", res.Path), obs.F("depth", res.Depth))
			return res, nil
		}
		// Decline or failed build: fall through to the chase. A failed build
		// is not a query error — the chase remains authoritative.
	}
	gr, err := chase.StableGroundCtx(ctx, db, prog, opts.Chase, 0) // 0: the default stability window
	res := &Result{Path: PathChase}
	if err != nil {
		if gr == nil || !limits.IsBudget(err) {
			sp.End(obs.F("error", true))
			return nil, err
		}
		// Budget trip with a partial instance: degrade to the sound partial
		// answers instead of discarding the work.
		res.Incomplete = true
		if tr, ok := limits.TruncationOf(err); ok {
			res.Truncation = tr
		}
	}
	res.Exact = gr.Exact
	res.Depth = gr.Depth
	res.Stats = gr.Stats
	accountChase(ctx, res.Stats)
	// Marker derivation is monotone, so ⊤ is sound even on a truncated run.
	ans := answersOf(len(gr.GroundAtomsOf(inconsistencyMarker)) > 0, gr.GroundAtomsOf(q.Output))
	res.Answers = ans
	if ans.Inconsistent {
		sp.End(obs.F("inconsistent", true), obs.F("depth", res.Depth))
		return res, nil
	}
	sp.End(
		obs.F("answers", len(ans.Tuples)),
		obs.F("depth", res.Depth),
		obs.F("exact", res.Exact),
		obs.F("incomplete", res.Incomplete))
	return res, nil
}

// answersOf is the tail every evaluation path shares, from a ground part to
// Q(D) of Section 3.2: ⊤ when the inconsistency marker was derived, the
// sorted argument tuples of the output atoms otherwise.
func answersOf(inconsistent bool, output []datalog.Atom) *chase.Answers {
	ans := &chase.Answers{Inconsistent: inconsistent}
	if inconsistent || len(output) == 0 {
		return ans
	}
	ans.Tuples = make([][]datalog.Term, 0, len(output))
	for _, a := range output {
		ans.Tuples = append(ans.Tuples, a.Args)
	}
	sortTuples(ans.Tuples)
	return ans
}

// accountChase writes the final evaluation's chase.Stats into the request's
// resource account (a no-op without a trace on ctx). Storing the very
// snapshot Result.Stats carries keeps the account, EXPLAIN, and Stats in
// exact agreement.
func accountChase(ctx context.Context, st chase.Stats) {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return
	}
	var attempted int64
	for _, r := range st.PerRule {
		attempted += int64(r.TriggersAttempted)
	}
	tr.SetChaseWork(int64(st.Rounds), attempted, int64(st.TriggersFired),
		int64(st.FactsDerived), int64(st.NullsInvented))
}

// sortTuples sorts tuples lexicographically by Term.Compare, a proper prefix
// first.
func sortTuples(ts [][]datalog.Term) {
	slices.SortFunc(ts, func(a, b []datalog.Term) int {
		for k := range min(len(a), len(b)) {
			if c := a[k].Compare(b[k]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(a), len(b))
	})
}
