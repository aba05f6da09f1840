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
	// Exact asks for an answer that is provably all of Q(D), or marked
	// Incomplete: the chase and its closing pass run as without it, and
	// where they do not prove the answer complete, ProofTree (Section 6.3)
	// decides the goals the pass leaves open, after each negated derived
	// predicate has been certified the same way and copied into the database,
	// where its negation is a lookup. The query must be TriQ-Lite 1.0, which
	// the regime translations are by Corollaries 5.4 and 6.2, whatever
	// language the caller names. Materializations are not consulted.
	Exact bool
	// MaxVisits caps the proof-search component expansions with which an
	// Exact evaluation decides the goals its chase leaves open; 0 selects the
	// ProofOptions default. Ignored unless Exact.
	MaxVisits int
	// Mat, when non-nil, lets evaluation answer from an incrementally
	// maintained materialization instead of chasing, provided Mat holds
	// (ServeMaterialized) or EvalCtx can build an instance for this program
	// at exactly MatEpoch. On any miss evaluation falls back to the
	// from-scratch chase; Result.Path reports which way the answer was
	// produced.
	Mat Materializer
	// MatEpoch is the store epoch the query is pinned to; a materialization
	// serves only on an exact epoch match.
	MatEpoch uint64

	// matKey is the rendering of matProg that ServeMaterialized asked Mat by.
	matKey  string
	matProg *datalog.Program
}

// Result is the outcome of evaluating a TriQ query.
type Result struct {
	// Answers is Q(D): ⊤ (Inconsistent) or the set of constant tuples. Its
	// tuples may be shared with other results (a materialized epoch serves
	// one sorted answer to every read), so they must not be modified.
	Answers *Answers
	// Exact reports that the answer set is provably complete: the chase
	// terminated within its depth bound, or its closing pass proved the ground
	// part complete at that bound (Stats.Deepening then ends with the pass),
	// or — under Options.Exact — ProofTree decided the goals the pass left
	// open. When false the answers are the stable fixpoint of iterative
	// deepening, a heuristic stop (see chase.StableGroundCtx); under
	// Options.Exact it is false only when Incomplete.
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
	// LibraryBase is set when the chase started from the fixpoint of the
	// library's database part over the database (chase.StableGroundCtx):
	// whether this evaluation built it or found it, and its size.
	LibraryBase *chase.LibraryBase
}

// EvalCtx evaluates the query over the database as defined in Section 3.2:
// Q(D) = ⊤ when D is inconsistent w.r.t. Π, and the set of constant output
// tuples otherwise. The query must belong to the given language (to
// TriQ-Lite 1.0 under opts.Exact).
//
// The chase turns constraints into rules that derive an inconsistency marker
// (datalog.ConstraintsAsRules), so a single monotone chase answers both the
// consistency question and the query. Under opts.Exact, where the chase does
// not end Exact, ProofTree decides what it leaves open ("The exact path" in
// exact.go).
//
// With opts.Mat set (and opts.Exact not), the materializer builds and installs
// the fixpoint from db and answers from it; a warm materialization is asked
// before db is built (ServeMaterialized), not here.
//
// Cancellation and deadlines abort with a typed limits error (ErrCanceled /
// ErrDeadline, carrying a Truncation report). Budget exhaustion — MaxFacts,
// MaxRounds or MaxVisits tripping — degrades gracefully instead: the sound
// partial answer set computed before the abort is returned with
// Result.Incomplete set and the Truncation attached, and err is nil (under
// opts.Exact the set is empty when the trip came before every negated derived
// predicate was certified: nothing is known to be sound until then).
func EvalCtx(ctx context.Context, db *chase.Instance, q datalog.Query, lang Language, opts Options) (*Result, error) {
	span := "triq.eval"
	if opts.Exact {
		lang, span = TriQLite10, "triq.exact"
	}
	if err := Validate(q, lang); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, opts.Chase.Obs, span,
		obs.F("lang", lang.String()),
		obs.F("output", q.Output),
		obs.F("db_facts", db.Len()))
	if opts.Mat != nil && !opts.Exact {
		if served, merr := opts.Mat.BuildServeKey(ctx, db, q.Program, opts.matKeyOf(q.Program), opts.MatEpoch, q.Output, opts.Chase); merr == nil && served != nil {
			res := servedResult(served, PathMaterializedBuild)
			sp.End(obs.F("path", res.Path), obs.F("depth", res.Depth))
			return res, nil
		}
		// Decline or failed build: fall through to the chase. A failed build
		// is not a query error — the chase remains authoritative.
	}
	gr, err := chase.StableGroundCtx(ctx, db, q.Program, opts.Chase)
	// sound says that the ground part of gr is sound where a limit cut it
	// short; an exact evaluation of a program that negates a derived
	// predicate knows nothing to be sound until those are certified.
	sound := !opts.Exact || len(q.Program.NegatedIDB()) == 0
	var proven []datalog.Atom
	if opts.Exact && err == nil && !gr.Exact {
		prog := q.Program
		if !sound {
			if db, prog, err = certifyNegated(ctx, db, prog, opts); err == nil {
				sound = true
				gr, err = chase.StableGroundCtx(ctx, db, prog, opts.Chase)
			}
		}
		if err == nil {
			proven, err = prove(ctx, db, prog, gr, []string{datalog.InconsistencyMarker, q.Output}, opts)
		}
	}
	res := &Result{Path: PathChase}
	if err != nil {
		if gr == nil || !limits.IsBudget(err) {
			sp.End(obs.F("error", true))
			return nil, err
		}
		// Budget trip with a partial instance: degrade to the sound partial
		// answers instead of discarding the work.
		res.Incomplete = true
		res.Truncation, _ = limits.TruncationOf(err)
	}
	res.Exact = gr.Exact || opts.Exact && err == nil
	res.Depth, res.Stats, res.LibraryBase = gr.Depth, gr.Stats, gr.LibraryBase
	accountChase(ctx, res.Stats)
	// Marker derivation is monotone, so ⊤ is sound even on a truncated run.
	var inconsistent bool
	var output []datalog.Atom
	if sound || err == nil {
		inconsistent, output = gr.Inconsistent, gr.GroundAtomsOf(q.Output)
	}
	for _, a := range proven {
		if a.Pred == datalog.InconsistencyMarker {
			inconsistent = true
		} else {
			output = append(slices.Clip(output), a)
		}
	}
	res.Answers = AnswersOf(inconsistent, output)
	sp.End(
		obs.F("answers", len(res.Answers.Tuples)),
		obs.F("inconsistent", res.Answers.Inconsistent),
		obs.F("depth", res.Depth),
		obs.F("exact", res.Exact),
		obs.F("incomplete", res.Incomplete),
		obs.F("proven", len(proven)))
	return res, nil
}

// Answers is the evaluation Q(D) of a query: either ⊤ (Inconsistent) or the
// set of constant tuples of the output predicate.
type Answers struct {
	Inconsistent bool
	Tuples       [][]datalog.Term
}

// Has reports whether the tuple is among the answers.
func (a *Answers) Has(tuple ...datalog.Term) bool {
	return slices.ContainsFunc(a.Tuples, func(t []datalog.Term) bool { return slices.Equal(t, tuple) })
}

// HasConstants is Has over constant names.
func (a *Answers) HasConstants(names ...string) bool {
	tuple := make([]datalog.Term, len(names))
	for i, n := range names {
		tuple[i] = datalog.C(n)
	}
	return a.Has(tuple...)
}

// AnswersOf is the tail every evaluation path shares, from a ground part to
// Q(D) of Section 3.2: ⊤ when the inconsistency marker was derived, the
// sorted argument tuples of the output atoms otherwise. The tuples are the
// atoms' argument slices, not copies. It is the one constructor of Answers,
// so a chased and a materialized answer list the same rows in the same order.
func AnswersOf(inconsistent bool, output []datalog.Atom) *Answers {
	ans := &Answers{Inconsistent: inconsistent}
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
