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
	// Stats describe the engine that produced the result, over all the depth
	// steps it took (Stats.Deepening lists them): FactsDerived is what the
	// evaluation added to the database, not what its last step added.
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

// DeepenStep is what one depth step of StableGround did, in the JSON shape
// the EXPLAIN report lists it in.
type DeepenStep struct {
	// Depth is the null-nesting bound the step ran under.
	Depth int `json:"depth"`
	// Resumed is true when the step continued the previous step's engine; the
	// first step does not, and neither does one that had to start over because
	// a negated predicate grew.
	Resumed bool `json:"resumed"`
	// Refired is the number of triggers the previous bound had blocked that
	// the step fired again, Parked the number its own bound blocks. Both count
	// matches: semi-naive rounds can find one trigger twice (a later round
	// seeds it from another body atom), and then it is parked twice.
	Refired int `json:"refired"`
	Parked  int `json:"parked"`
	// NewFacts and NewGround are the facts and the constant-only facts the
	// step added (the whole chase when it did not resume).
	NewFacts  int `json:"new_facts"`
	NewGround int `json:"new_ground"`
	// Stable is the number of consecutive steps, this one included, that left
	// the ground part unchanged; the evaluation stops at the stability window.
	Stable int `json:"stable"`
}

// StableGround computes Π(D)↓ by iterative deepening on the null-nesting
// depth: the chase runs under the bounds 2, 4, … and last opts.MaxDepth itself,
// until either it terminates within the bound (the result is then exact), or
// the ground part stays unchanged for `window` consecutive depth increments.
//
// The steps share one engine. The depth-d chase is a prefix of the depth-(d+2)
// chase — the bound only blocks triggers — so a step keeps the instance of the
// previous one, re-fires the triggers that one's bound blocked and continues
// semi-naively; every fact is derived once. Only a program that negates a
// predicate which grows with the depth makes a step start over with a new
// engine, as the first step does (counted in chase.deepen_restarts); its
// ground part is then compared, atom by atom, with what the abandoned engine
// held when its last complete step ended. Stats are the returned engine's; the
// chase.* registry counters count work done and so include the abandoned one's.
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
// returns the partial GroundResult reached — everything the earlier steps
// derived plus the interrupted step's part — together with the typed error, so
// callers can degrade to the sound partial ground part instead of discarding
// the work.
func StableGroundCtx(ctx context.Context, db *Instance, prog *datalog.Program, opts Options, window int) (*GroundResult, error) {
	opts = opts.withDefaults()
	if window <= 0 {
		window = 2
	}
	ceiling := opts.MaxDepth
	var (
		e      *engine
		steps  []DeepenStep
		stable int
	)
	for depth := min(2, ceiling); ; depth = min(depth+2, ceiling) {
		_, sp := obs.StartSpan(ctx, opts.Obs, "chase.deepen", obs.F("depth", depth))
		opts.MaxDepth, opts.Parent = depth, sp
		st := DeepenStep{Depth: depth}
		var inconsistent bool
		var err error
		var before groundMark // the engine's ground part before the step
		prev := e
		if e != nil {
			facts := e.stats.FactsDerived
			before = e.markGround()
			st.Resumed, st.Refired = true, e.parkedTriggers()
			e.opts = opts
			if inconsistent, err = e.step(); err == errNegatedGrew {
				opts.Obs.Count("chase.deepen_restarts", 1)
				e = nil
				st.Resumed, st.Refired = false, 0
			} else {
				st.NewFacts, st.NewGround = e.stats.FactsDerived-facts, e.ground-before.n
			}
		}
		if e == nil {
			if e, err = prepare(ctx, db.Overlay(), prog, opts); err != nil {
				sp.End(obs.F("error", true))
				return nil, err
			}
			inconsistent, err = e.step()
			st.NewFacts, st.NewGround = e.stats.FactsDerived, e.ground
		}
		st.Parked = e.parkedTriggers()
		// A resumed step can only add to the ground part. One that started over
		// may also have lost atoms; it is compared with what the engine it
		// abandoned held before that engine's last, failed step.
		unchanged := st.NewGround == 0
		if !st.Resumed {
			unchanged = prev != nil && err == nil && e.sameGround(prev, before)
		}
		if unchanged {
			stable++
		} else {
			stable = 0
		}
		st.Stable = stable
		steps = append(steps, st)
		exact := err == nil && !e.stats.DepthTruncated
		sp.End(
			obs.F("error", err != nil),
			obs.F("resumed", st.Resumed),
			obs.F("refired", st.Refired),
			obs.F("parked", st.Parked),
			obs.F("new_facts", st.NewFacts),
			obs.F("new_ground", st.NewGround),
			obs.F("exact", exact),
			obs.F("inconsistent", inconsistent),
			obs.F("stable", stable))
		if err != nil || inconsistent || exact || stable >= window || depth == ceiling {
			// depth == ceiling gives up; the result is the deepest one.
			res := &GroundResult{
				Ground:       e.inst.GroundPart(),
				Inconsistent: inconsistent,
				Exact:        exact,
				Depth:        depth,
				Stats:        e.snapshotStats(),
			}
			res.Stats.Deepening = steps
			return res, err
		}
	}
}

// groundMark remembers an engine's ground part at one moment: how many
// constant-only facts it had derived, and how long each bucket of its layer
// was. Buckets only grow, so the atoms of that moment are the buckets' prefixes
// whatever the engine derives afterwards.
type groundMark struct {
	n    int
	lens map[string]int
}

func (e *engine) markGround() groundMark {
	m := groundMark{n: e.ground, lens: make(map[string]int, len(e.inst.byPred))}
	for p, bucket := range e.inst.byPred {
		m.lens[p] = len(bucket)
	}
	return m
}

// sameGround reports whether e holds the constant-only atoms that prev, an
// engine over the same database, held at the mark. A resumed step never needs
// it — its ground part only grows, by e.ground — but a step that started over
// may have lost atoms a negated predicate now rules out. The mark matters: by
// the time prev.step reports errNegatedGrew, the strata below the negation have
// already added the deeper bound's facts to prev.
func (e *engine) sameGround(prev *engine, at groundMark) bool {
	if e.ground != at.n {
		return false
	}
	for p, n := range at.lens {
		for _, a := range prev.inst.byPred[p][:n] {
			if a.IsConstantGround() && !e.inst.Has(a) {
				return false
			}
		}
	}
	return true
}
