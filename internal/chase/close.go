package chase

import (
	"errors"
	"maps"
	"slices"

	"repro/internal/datalog"
	"repro/internal/obs"
)

// Closing the chase. A depth step that ends with triggers parked holds I_d, a
// prefix of the chase whose ground part is a lower bound of Π(D)↓. The closing
// pass turns it into an upper bound as well: it continues the step, but where
// the bound blocks a trigger it satisfies the head with summary nulls instead
// of parking it. There are finitely many of those, so the pass reaches a
// fixpoint M ⊇ I_d that every rule is satisfied in. M is then a model of Π and
// D, the chase maps into it by a homomorphism that fixes constants, and
//
//	I_d↓ ⊆ Π(D)↓ ⊆ M↓.
//
// A pass that derives no constant-only fact has M↓ = I_d↓ and with it proved
// that I_d↓ is Π(D)↓; one that derives one has proved nothing (M may be too
// coarse) and is undone. Under grounded negation the argument goes stratum by
// stratum: a negated atom sees constants only, so its truth is fixed by the
// ground part of the strata below, which the sandwich has pinned by then. The
// caller checks that precondition; DESIGN.md, "Closing the chase", has the
// proof in full.
//
// Any choice of summary nulls builds a model, so the pass is a ladder of two
// rungs, coarse first. Rung 1 has one summary null per rule and existential
// variable — and frontier shape, the positions that hold a constant — whatever
// constants the frontier binds; it derives least. Where it fails, rung 2 keeps
// the frontier's constants and erases only its nulls, so a trigger on another
// constant gets another null.

// errNotClosed ends a closing pass at the first constant-only fact it derives.
var errNotClosed = errors.New("chase: the closing pass derived a constant-only fact")

// engineMark remembers an engine between two steps: restore returns to it, and
// sameGround compares another engine's ground part with the one held then.
type engineMark struct {
	layer    layerMark
	stats    Stats
	perRule  []RuleStats
	ground   int
	nextNull int
	deepest  int
	strata   []stratumMark
}

// stratumMark is a stratum's resumable state. The parked buffers are saved by
// header: refire reads the triggers of the buffer it replaces and never writes
// them. The rest is copied on the way out as on the way in, so a mark can be
// restored any number of times.
type stratumMark struct {
	parked  []triggerBuf
	started map[string]int
	negLens []int
}

func (e *engine) mark() engineMark {
	m := engineMark{
		layer:    e.inst.mark(),
		stats:    e.stats,
		perRule:  make([]RuleStats, len(e.perRule)),
		ground:   e.ground,
		nextNull: e.nextNull,
		deepest:  e.deepest,
		strata:   make([]stratumMark, len(e.strata)),
	}
	for i, rs := range e.perRule {
		m.perRule[i] = *rs
	}
	for i, s := range e.strata {
		m.strata[i] = stratumMark{slices.Clone(s.parked), maps.Clone(s.started), slices.Clone(s.negLens)}
	}
	return m
}

// restore undoes a closing pass that started at the mark: the facts and nulls
// it added go, and the parked triggers it closed wait again.
func (e *engine) restore(m engineMark) {
	e.inst.truncate(m.layer)
	for _, key := range e.closeKeys {
		delete(e.depth, e.skolem[key])
		delete(e.skolem, key)
	}
	e.closeKeys = e.closeKeys[:0]
	e.stats, e.ground, e.nextNull, e.deepest = m.stats, m.ground, m.nextNull, m.deepest
	for i, rs := range e.perRule {
		*rs = m.perRule[i]
	}
	for i, s := range e.strata {
		sm := m.strata[i]
		copy(s.parked, sm.parked)
		s.started, s.negLens = maps.Clone(sm.started), slices.Clone(sm.negLens)
	}
}

// closingStep runs one rung of the closing pass, the one whose summary nulls
// take Skolem keys of the given kind, on an engine whose last step ended
// truncated and consistent. closed reports that the pass reached its
// fixpoint without a constant-only fact and without matching a constraint —
// which may have matched through summary nulls only, so ⊤ is not its to
// report. A limit error leaves what the pass derived in the instance, as it
// does for any step; none of it is constant-only.
func (e *engine) closingStep(kind byte) (closed bool, err error) {
	e.closeKind = kind
	inconsistent, err := e.step()
	e.closeKind = 0
	if err == errNotClosed {
		return false, nil
	}
	return err == nil && !inconsistent, err
}

// close tries to prove the engine's ground part complete, rung by rung, and
// leaves the engine as it found it when no rung can; chase.closing_failed
// counts every rung undone. coarse names the rung that closed, or that a limit
// cut short.
//
// Once rung 1 has been undone on the engine, later passes skip it. A deeper
// step fires more triggers with nulls of its own and blocks fewer, but what
// made rung 1 fail — witnesses of different constants merged into one null —
// is still there wherever a trigger stays blocked, and a rung that fails on ⊥
// runs to its fixpoint first. Skipping it never delays a close: rung 1's model
// holds an image of rung 2's, so rung 2 closes wherever rung 1 does, with more
// facts.
func (e *engine) close() (closed, coarse bool, err error) {
	m := e.mark()
	for _, kind := range [...]byte{coarseKey, summaryKey} {
		if kind == coarseKey && e.coarseFailed {
			continue
		}
		if closed, err = e.closingStep(kind); closed || err != nil {
			return closed, kind == coarseKey, err
		}
		e.restore(m)
		e.coarseFailed = true
		e.opts.Obs.Count("chase.closing_failed", 1)
	}
	return false, false, nil
}

// OpenGoals reads off a result that is not Exact the atoms of the given
// predicates in M↓ ∖ I_d↓: the constant-only atoms that rung 2's model M holds
// and the ground part does not, M being the closing pass run on to its
// fixpoint instead of stopped at the first such atom. By the sandwich every
// atom of Π(D)↓ with those predicates is in the ground part or among them, so
// deciding them decides the rest. The pass is undone before OpenGoals returns
// and Stats do not count it; a limit inside it returns the typed error.
//
// A program may negate what no rule derives: those extents are the database's
// and never change, so the sandwich holds as for a positive program.
//
// An Exact result has no open goals. One a limit cut short or that found ⊤
// has no fixpoint to continue, and one of a program that negates a derived
// predicate no model to read them off — the upper strata of an inexact I_d may
// hold atoms that a fact missing below would have blocked — so for those
// OpenGoals is an error.
func (r *GroundResult) OpenGoals(preds ...string) ([]datalog.Atom, error) {
	if r.Exact {
		return nil, nil
	}
	e := r.open
	if e == nil {
		return nil, errors.New("chase: open goals need a program that negates no derived predicate and whose evaluation ended truncated and consistent")
	}
	_, sp := obs.StartSpan(e.ctx, e.opts.Obs, "chase.open_goals", obs.F("depth", r.Depth))
	e.opts.Parent = sp
	m := e.mark()
	e.collect = true
	_, err := e.closingStep(summaryKey)
	e.collect = false
	var goals []datalog.Atom
	for _, p := range preds {
		pid, ok := e.inst.predOf(p, false)
		r := e.inst.rel(pid)
		if !ok || r == nil {
			continue
		}
		from := 0
		if int(pid) < len(m.layer.lens) {
			from = m.layer.lens[pid]
		}
		for k := from; k < r.n; k++ {
			if e.inst.constRow(r.row(k)) {
				goals = r.decode(e.inst, goals, k, k+1)
			}
		}
	}
	e.restore(m)
	sp.End(obs.F("error", err != nil), obs.F("goals", len(goals)))
	return goals, err
}
