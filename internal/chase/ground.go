package chase

import (
	"context"

	"repro/internal/datalog"
	"repro/internal/obs"
)

// GroundResult is the outcome of computing the ground semantics Π(D)↓.
type GroundResult struct {
	// Ground holds the constant-only atoms of Π(D): the paper's Π(D)↓.
	Ground *Instance
	// Inconsistent is true when a constraint fired.
	Inconsistent bool
	// Exact is true when the chase terminated within the depth bound, so
	// Ground is provably Π(D)↓. When false, Ground is the stable fixpoint of
	// the iterative-deepening procedure (see StableGround).
	Exact bool
	// Depth is the null-nesting depth at which the result was obtained.
	Depth int
	Stats Stats
}

// GroundSemantics runs the chase once with the given options and restricts
// the result to its constant-only atoms.
func GroundSemantics(db *Instance, prog *datalog.Program, opts Options) (*GroundResult, error) {
	return GroundSemanticsCtx(context.Background(), db, prog, opts)
}

// GroundSemanticsCtx is GroundSemantics under a context. A limit abort
// returns the ground part of the partial instance alongside the typed
// error, never Exact.
func GroundSemanticsCtx(ctx context.Context, db *Instance, prog *datalog.Program, opts Options) (*GroundResult, error) {
	opts = opts.withDefaults()
	res, err := RunCtx(ctx, db, prog, opts)
	if err != nil {
		if res == nil {
			return nil, err
		}
		return &GroundResult{
			Ground: res.Instance.GroundPart(),
			Depth:  opts.MaxDepth,
			Stats:  res.Stats,
		}, err
	}
	return &GroundResult{
		Ground:       res.Instance.GroundPart(),
		Inconsistent: res.Inconsistent,
		Exact:        !res.Stats.DepthTruncated,
		Depth:        opts.MaxDepth,
		Stats:        res.Stats,
	}, nil
}

// StableGround computes Π(D)↓ by iterative deepening on the null-nesting
// depth: the chase is re-run with increasing MaxDepth until either it
// terminates within the bound (the result is then exact), or the ground part
// stays unchanged for `window` consecutive depth increments.
//
// For warded programs the stabilization criterion is justified by the
// wardedness condition: a null-carrying fact can contribute to further
// ground atoms only through the constants it carries (the ward shares only
// harmless — ground — variables with the rest of a rule body), so once an
// extra level of null depth stops producing new ground atoms, deeper levels
// reproduce isomorphic null patterns and cannot produce new ones either. The
// ProofTree decision procedure (internal/triq) provides an independent
// per-atom certification used by the test-suite to cross-check this
// procedure.
func StableGround(db *Instance, prog *datalog.Program, opts Options, window int) (*GroundResult, error) {
	return StableGroundCtx(context.Background(), db, prog, opts, window)
}

// StableGroundCtx is StableGround under a context. On a limit abort it
// returns the partial GroundResult of the interrupted deepening step (when
// one exists) together with the typed error, so callers can degrade to the
// sound partial ground part instead of discarding the work.
func StableGroundCtx(ctx context.Context, db *Instance, prog *datalog.Program, opts Options, window int) (*GroundResult, error) {
	opts = opts.withDefaults()
	if window <= 0 {
		window = 2
	}
	depth := min(2, opts.MaxDepth)
	var prev *Instance
	stable := 0
	var last *GroundResult
	for {
		o := opts
		o.MaxDepth = depth
		_, sp := obs.StartSpan(ctx, opts.Obs, "chase.deepen", obs.F("depth", depth))
		o.Parent = sp
		res, err := GroundSemanticsCtx(ctx, db, prog, o)
		if err != nil {
			sp.End(obs.F("error", true))
			if res != nil {
				res.Depth = depth
			}
			return res, err
		}
		res.Depth = depth
		sp.End(
			obs.F("ground", res.Ground.Len()),
			obs.F("exact", res.Exact),
			obs.F("inconsistent", res.Inconsistent),
			obs.F("stable", stable))
		if res.Inconsistent || res.Exact {
			return res, nil
		}
		if prev != nil && res.Ground.Equal(prev) {
			stable++
			if stable >= window {
				return res, nil
			}
		} else {
			stable = 0
		}
		prev = res.Ground
		last = res
		depth += 2
		if depth > opts.MaxDepth {
			// Give up at the configured ceiling; return the deepest result.
			return last, nil
		}
	}
}
