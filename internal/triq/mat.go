package triq

import (
	"context"

	"repro/internal/chase"
	"repro/internal/datalog"
)

// InconsistencyMarker is the marker predicate EvalCtx's constraint rewrite
// derives (see inconsistencyMarker). Exported so a materialization layer,
// which maintains the rewritten — hence positive and constraint-free —
// program, can recognize ⊤ in the fixpoint it serves.
const InconsistencyMarker = inconsistencyMarker

// MatServed is a query answer served from a warm materialization instead of
// a chase: the constant-ground atoms of the query's output predicate at the
// pinned epoch, exactly as a from-scratch chase of the same database would
// produce them.
type MatServed struct {
	// Output holds the constant-ground output atoms (ignored when
	// Inconsistent). Order is not significant; EvalCtx sorts tuples.
	Output []datalog.Atom
	// Inconsistent is ⊤: the materialization contains the inconsistency
	// marker, so some constraint of the original program fired.
	Inconsistent bool
	// Facts and Depth describe the materialized instance the answer was read
	// from.
	Facts int
	Depth int
}

// Materializer is the hook through which evaluation consults incrementally
// maintained materializations. Implementations live outside this package
// (internal/mat); evaluation only requires the two-phase contract:
//
//   - Serve answers from an existing materialization if one matches the
//     program (after constraint rewriting), the epoch, and compatible chase
//     bounds; it returns nil on any miss and must be cheap.
//   - BuildServe may build (and retain) a materialization from the given
//     database first. It returns (nil, nil) to decline — wrong mode,
//     negation, stale epoch, over budget — in which case the caller falls
//     back to a from-scratch chase.
//
// Both receive the rewritten program: positive, constraint-free, with
// constraints turned into InconsistencyMarker rules, so serving the marker
// predicate answers the consistency question too.
type Materializer interface {
	Serve(prog *datalog.Program, epoch uint64, output string, copts chase.Options) *MatServed
	BuildServe(ctx context.Context, db *chase.Instance, prog *datalog.Program, epoch uint64, output string, copts chase.Options) (*MatServed, error)
}

// rewriteConstraints eliminates constraints in the style of Theorem 4.4:
// each becomes an ordinary rule deriving the inconsistency marker, so a
// single monotone chase answers both the consistency question and the query.
// The input program is not modified.
func rewriteConstraints(prog *datalog.Program) *datalog.Program {
	if len(prog.Constraints) == 0 {
		return prog
	}
	out := prog.Clone()
	for _, c := range out.Constraints {
		out.Add(datalog.Rule{BodyPos: c.Body, Head: []datalog.Atom{{Pred: inconsistencyMarker}}})
	}
	out.Constraints = nil
	return out
}

// ServeMaterialized answers the query from a warm materialization without
// touching the database: it validates the query, applies the same constraint
// rewrite EvalCtx would, and asks opts.Mat for an epoch-exact hit. It never
// builds. The boolean reports whether the materialization served; on false
// the caller should evaluate normally (facades use this to skip loading the
// graph into an Instance at all — the point of serving warm).
func ServeMaterialized(q datalog.Query, lang Language, opts Options) (*Result, bool) {
	if opts.Mat == nil {
		return nil, false
	}
	if err := Validate(q, lang); err != nil {
		return nil, false
	}
	prog := rewriteConstraints(q.Program)
	served := opts.Mat.Serve(prog, opts.MatEpoch, q.Output, opts.Chase)
	if served == nil {
		return nil, false
	}
	return servedResult(served, PathMaterialized), true
}

// Path values reported by Result.Path.
const (
	// PathMaterialized: answered from an already-warm materialization.
	PathMaterialized = "materialized"
	// PathMaterializedBuild: a materialization was built for this program
	// during the query and then answered from.
	PathMaterializedBuild = "materialized-build"
	// PathChase: answered by the from-scratch chase.
	PathChase = "chase"
)

// servedResult converts a materialization hit into a Result. A served answer
// is always Exact: the materialization layer never installs an instance
// whose build or maintenance tripped a bound.
func servedResult(served *MatServed, path string) *Result {
	res := &Result{Exact: true, Depth: served.Depth, Path: path}
	res.Stats.FactsDerived = served.Facts
	res.Answers = answersOf(served.Inconsistent, served.Output)
	return res
}
