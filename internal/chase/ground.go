package chase

import (
	"context"

	"repro/internal/datalog"
	"repro/internal/obs"
)

// GroundResult is the outcome of computing the ground semantics Π(D)↓.
type GroundResult struct {
	// Inconsistent is true when a constraint fired.
	Inconsistent bool
	// Exact is true when the ground part is provably Π(D)↓: the chase
	// terminated within the depth bound, or the closing pass proved that no
	// deeper bound adds a constant-only atom (see StableGround). When false,
	// it is the stable fixpoint of the iterative-deepening procedure.
	Exact bool
	// Depth is the null-nesting depth at which the result was obtained: the
	// bound of the last depth step, which a closing pass does not raise.
	Depth int
	// Stats describe the engine that produced the result, over all the depth
	// steps it took (Stats.Deepening lists them): FactsDerived is what the
	// evaluation added to the database, not what its last step added.
	Stats Stats

	inst   *Instance // the chased instance the ground part is read off
	ground *Instance // Ground's result, once built
	open   *engine   // the engine OpenGoals continues, when it may
}

// Ground returns the constant-only atoms of Π(D), the paper's Π(D)↓, as an
// instance of their own. It is built on the first call; GroundAtomsOf reads a
// single predicate without building it.
func (r *GroundResult) Ground() *Instance {
	if r.ground == nil {
		r.ground = r.inst.GroundPart()
	}
	return r.ground
}

// GroundAtomsOf returns the atoms of Π(D)↓ with the given predicate, in the
// order Ground().AtomsOf(pred) lists them; the slice must not be modified.
func (r *GroundResult) GroundAtomsOf(pred string) []datalog.Atom {
	all := r.inst.AtomsOf(pred)
	if r.inst.nullFree() {
		return all
	}
	var out []datalog.Atom
	for _, a := range all {
		if a.IsConstantGround() {
			out = append(out, a)
		}
	}
	return out
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
	if res == nil {
		return nil, err
	}
	return &GroundResult{
		inst:         res.Instance,
		Inconsistent: res.Inconsistent,
		Exact:        err == nil && !res.Stats.DepthTruncated,
		Depth:        opts.MaxDepth,
		Stats:        res.Stats,
	}, err
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
	// Closing marks the closing pass: the step that continued the one before it
	// under the same bound, with summary nulls where the bound blocks, and so
	// proved the ground part complete. A pass that proved nothing is undone and
	// not listed (chase.closing_failed counts each rung of it); one a limit cut
	// short is.
	Closing bool `json:"closing"`
	// Coarse marks a closing pass that ran on rung 1 of the ladder (close.go),
	// whose summary nulls erase the frontier's constants too.
	Coarse bool `json:"coarse,omitempty"`
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
// until it terminates within the bound, or the closing pass proves the ground
// part complete (either way the result is exact), or — the fallback — the
// ground part stays unchanged for `window` consecutive depth increments.
//
// A program the closing pass can close starts with a probe at bound 0: the
// ground chase, every existential trigger parked, which the pass may close at
// once. The window counts neither the probe nor the step compared with it —
// a level without nulls says nothing about levels with them — so where no pass
// closes, the steps after the probe are the ones a program without it takes.
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
// The closing pass (close.go) is the proof. After every step that ends
// truncated and consistent it continues that step on the same engine, closing
// the triggers the bound blocks with summary nulls; the fixpoint is a finite
// model of the program that contains the depth-d chase, so its ground part
// bounds Π(D)↓ from above, and when the pass has added no constant-only fact
// the two bounds meet: the evaluation ends, Exact, at the depth of that step
// (chase.closed). A pass that does add one is undone (chase.closing_failed)
// and deepening goes on. The argument needs a model, not wardedness, so it
// holds for every program; it needs the Skolem chase, and negation to be
// grounded (datalog.CheckGroundedNegation), and is not attempted otherwise.
//
// The stability window is a heuristic and stops only what no pass closed. For
// warded programs it is plausible — a null-carrying fact contributes to
// further ground atoms only through the constants it carries, so a level of
// null depth that adds no ground atom suggests deeper ones repeat isomorphic
// null patterns — but a ground atom first derivable at a depth beyond the
// window is missed, which is why such a result is not Exact. The ProofTree
// decision procedure (internal/triq) certifies single atoms independently and
// the test-suite cross-checks both stops with it.
func StableGround(db *Instance, prog *datalog.Program, opts Options, window int) (*GroundResult, error) {
	return StableGroundCtx(context.Background(), db, prog, opts, window)
}

// StableGroundCtx is StableGround under a context. On a limit abort it
// returns the partial GroundResult reached — everything the earlier steps
// derived plus the interrupted step's part — together with the typed error, so
// callers can degrade to the sound partial ground part instead of discarding
// the work.
func StableGroundCtx(ctx context.Context, db *Instance, prog *datalog.Program, opts Options, window int) (*GroundResult, error) {
	return stableGround(ctx, db, prog, opts, window, (*engine).close)
}

// stableGround is StableGroundCtx with the closing pass handed in, which lets
// the tests pin the fallback: deepening with a pass that never succeeds.
func stableGround(ctx context.Context, db *Instance, prog *datalog.Program, opts Options, window int,
	closePass func(*engine) (closed, coarse bool, err error)) (*GroundResult, error) {
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
	// closable: the program can end a step truncated (it has an existential
	// rule) and the closing pass is sound for it. Such a program starts with the
	// probe at bound 0, and the window does not count its first `uncounted`
	// steps.
	closable := prog.HasExistentials() && (!prog.HasNegation() || datalog.CheckGroundedNegation(prog) == nil)
	depth, uncounted := min(2, ceiling), 0
	if closable {
		depth, uncounted = 0, 2
	}
	for ; ; depth = min(depth+2, ceiling) {
		_, sp := obs.StartSpan(ctx, opts.Obs, "chase.deepen", obs.F("depth", depth))
		opts.MaxDepth, opts.Parent = depth, sp
		st := DeepenStep{Depth: depth}
		var inconsistent bool
		var err error
		var before engineMark // the engine before the step
		prev := e
		if e != nil {
			before = e.mark()
			st.Resumed, st.Refired = true, e.parkedTriggers()
			e.opts = opts
			if inconsistent, err = e.step(); err == errNegatedGrew {
				opts.Obs.Count("chase.deepen_restarts", 1)
				e = nil
				st.Resumed, st.Refired = false, 0
			} else {
				st.NewFacts, st.NewGround = e.stats.FactsDerived-before.stats.FactsDerived, e.ground-before.ground
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
		if unchanged && len(steps) >= uncounted {
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
		if err == nil && !inconsistent && !exact && closable {
			var cl DeepenStep
			if cl, exact, err = closingStepOf(ctx, e, st, closePass); exact || err != nil {
				steps = append(steps, cl) // what the pass added is still there
			}
		}
		if err != nil || inconsistent || exact || stable >= window || depth == ceiling {
			// depth == ceiling gives up; the result is the deepest one.
			res := &GroundResult{
				inst:         e.inst,
				Inconsistent: inconsistent,
				Exact:        exact,
				Depth:        depth,
				Stats:        e.snapshotStats(),
			}
			res.Stats.Deepening = steps
			if err == nil && !inconsistent && !exact && len(prog.NegatedIDB()) == 0 {
				res.open = e
			}
			return res, err
		}
	}
}

// closingStepOf runs the closing pass on an engine whose step st has just ended
// truncated and consistent, under a chase.deepen span of its own, and reports
// what it did as a step. closed says the ground part is proved complete; if
// not, and without an error, the engine is as it was and the step lists nothing
// that is still there.
func closingStepOf(ctx context.Context, e *engine, st DeepenStep, closePass func(*engine) (bool, bool, error)) (cl DeepenStep, closed bool, err error) {
	_, sp := obs.StartSpan(ctx, e.opts.Obs, "chase.deepen", obs.F("depth", st.Depth), obs.F("closing", true))
	e.opts.Parent = sp
	cl = DeepenStep{Depth: st.Depth, Resumed: true, Closing: true, Refired: st.Parked}
	facts, ground := e.stats.FactsDerived, e.ground
	closed, cl.Coarse, err = closePass(e)
	cl.NewFacts, cl.NewGround = e.stats.FactsDerived-facts, e.ground-ground
	if closed {
		e.opts.Obs.Count("chase.closed", 1)
	}
	sp.End(
		obs.F("error", err != nil),
		obs.F("closed", closed),
		obs.F("coarse", cl.Coarse),
		obs.F("refired", cl.Refired),
		obs.F("new_facts", cl.NewFacts),
		obs.F("new_ground", cl.NewGround))
	return cl, closed, err
}

// sameGround reports whether e holds the constant-only atoms that prev, an
// engine over the same database, held at the mark. A resumed step never needs
// it — its ground part only grows, by e.ground — but a step that started over
// may have lost atoms a negated predicate now rules out. The mark matters: by
// the time prev.step reports errNegatedGrew, the strata below the negation have
// already added the deeper bound's facts to prev.
func (e *engine) sameGround(prev *engine, at engineMark) bool {
	if e.ground != at.ground {
		return false
	}
	for pid, n := range at.layer.lens {
		if n == 0 {
			continue
		}
		for _, a := range prev.inst.rels[pid].atoms(prev.inst)[:n] {
			if a.IsConstantGround() && !e.inst.Has(a) {
				return false
			}
		}
	}
	return true
}
