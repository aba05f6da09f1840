package triq

import (
	"context"

	"repro/internal/chase"
	"repro/internal/datalog"
)

// MatServed is a query answer served from a warm materialization instead of
// a chase: Q(D) of the query's output predicate at the pinned epoch, exactly
// as a from-scratch chase of the same database would produce it. One
// MatServed may answer every read of its epoch, so it is read-only: neither
// it nor its tuples may be modified.
type MatServed struct {
	// Output holds the argument tuples of the constant-ground output atoms,
	// sorted as AnswersOf sorts them (nil when Inconsistent).
	Output [][]datalog.Term
	// Inconsistent is ⊤: the materialization contains the inconsistency
	// marker (datalog.InconsistencyMarker), so some constraint fired.
	Inconsistent bool
	// Facts and Depth describe the materialized instance the answer was read
	// from.
	Facts int
	Depth int
}

// Materializer is the hook through which evaluation consults incrementally
// maintained materializations. Implementations live outside this package
// (internal/mat); evaluation only requires the two-phase contract, one phase
// per request each:
//
//   - ServeKey answers from an existing materialization if one matches the
//     program, the epoch, and compatible chase bounds; it returns nil on any
//     miss and must be cheap. ServeMaterialized asks it, before the database
//     is built. It may hand every read of an epoch the same MatServed.
//   - BuildServeKey may build (and retain) a materialization from the given
//     database first. It returns (nil, nil) to decline — wrong mode,
//     negation, stale epoch, over budget — in which case the caller falls
//     back to a from-scratch chase. EvalCtx asks it, after a miss.
//
// Both receive the query's program as written, by its key: the program's
// rendering (Program.String), which a request makes once, for both phases
// (ServeMaterialized hands it on to EvalCtx). The chase maintains the
// program's constraints as rules that derive datalog.InconsistencyMarker, so
// serving the marker predicate answers the consistency question too.
type Materializer interface {
	ServeKey(key string, epoch uint64, output string, copts chase.Options) *MatServed
	BuildServeKey(ctx context.Context, db *chase.Instance, prog *datalog.Program, key string, epoch uint64, output string, copts chase.Options) (*MatServed, error)
}

// ServeMaterialized answers the query from a warm materialization without
// touching the database: it validates the query and asks opts.Mat for an
// epoch-exact hit. It never builds, and an Exact evaluation it leaves to
// EvalCtx. On a miss the result is nil and the caller should evaluate
// normally (facades use this to skip loading the graph into an Instance at
// all — the point of serving warm), with the options returned: they carry the
// program's key, so EvalCtx offers its build under the same rendering
// instead of making another.
func ServeMaterialized(q datalog.Query, lang Language, opts Options) (*Result, Options) {
	if opts.Mat == nil || opts.Exact {
		return nil, opts
	}
	if err := Validate(q, lang); err != nil {
		return nil, opts
	}
	opts.matKey, opts.matProg = q.Program.String(), q.Program
	served := opts.Mat.ServeKey(opts.matKey, opts.MatEpoch, q.Output, opts.Chase)
	if served == nil {
		return nil, opts
	}
	return servedResult(served, PathMaterialized), opts
}

// matKeyOf returns the program's materialization key: the rendering
// ServeMaterialized made of it, or a new one.
func (o Options) matKeyOf(prog *datalog.Program) string {
	if o.matProg == prog && o.matKey != "" {
		return o.matKey
	}
	return prog.String()
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

// servedResult converts a materialization hit into a Result, sharing the
// served tuples: they are already Q(D), sorted. A served answer is always
// Exact: the materialization layer never installs an instance whose build or
// maintenance tripped a bound.
func servedResult(served *MatServed, path string) *Result {
	res := &Result{Exact: true, Depth: served.Depth, Path: path,
		Answers: &Answers{Inconsistent: served.Inconsistent, Tuples: served.Output}}
	res.Stats.FactsDerived = served.Facts
	return res
}
