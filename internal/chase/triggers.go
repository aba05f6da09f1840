package chase

import (
	"repro/internal/limits"
)

// A rule's turn within a round runs in two strictly ordered phases:
//
//  1. enumerate — the rule is matched against the instance as it stands at
//     the start of its turn, and the bindings found are buffered in one
//     canonical order: seed position, then candidate order within the seed.
//  2. apply — the buffer is replayed in that order: cross-seed
//     deduplication, stratified-negation checks, Skolem null invention and
//     the fact-budget boundary all happen here.
//
// Matching never sees a fact its own turn derives, so the derived facts,
// invented null names, Stats counters and truncation points are a function of
// the program and the database alone: the goldens rely on it, and so does
// maintenance (incremental.go), whose passes run these same two phases.

// triggerBuf holds body bindings of one rule as one flat slice of term ids with
// a stride of the rule body's variable slots: the triggers enumerate found in
// the current turn, or the ones the depth bound blocked (see engine.refire).
type triggerBuf struct {
	vals []uint32
	n    int
}

func (b *triggerBuf) push(ev env, slots int) {
	b.vals = append(b.vals, ev[:slots]...)
	b.n++
}

// load restores binding i into the environment; slots past the body are
// cleared so fire sees fresh existential slots.
func (b *triggerBuf) load(i, slots int, ev env) {
	copy(ev[:slots], b.vals[i*slots:(i+1)*slots])
	ev[slots:].reset()
}

// enumerate is phase one: read-only matching of rule c against the engine
// instance into buf, whose storage it reuses. delta holds, per body predicate,
// the rows the previous round derived, and each body position in turn is
// seeded from them (the seed pattern's matchInto drops the ones its constants
// rule out); a nil delta — the stratum's first round, and naive evaluation —
// matches the whole instance, seeded from the first pattern of the precomputed
// join order. The context is polled every 64 candidates and emissions, so a
// canceled chase stops within milliseconds even inside one huge turn.
func (e *engine) enumerate(c *compiledRule, delta map[string]rowSet, buf *triggerBuf) error {
	buf.vals, buf.n = buf.vals[:0], 0
	ev := newEnv(len(c.st.vars))
	if delta == nil && len(c.bodyPos) == 0 {
		buf.push(ev, c.bodySlots) // an empty positive body has exactly one — empty — trigger
		return nil
	}
	// A body atom over a relation that holds nothing, or with a constant the
	// instance has never seen, has no match, whatever the other atoms join to:
	// the rule takes no turn.
	resolveAll(c.bodyPos, e.inst, false)
	for k := range c.bodyPos {
		if e.inst.count(&c.bodyPos[k]) == 0 {
			return nil
		}
	}
	var ctxErr error
	polls := 0
	poll := func() bool {
		if polls++; polls&63 != 0 {
			return true
		}
		ctxErr = limits.CtxKind(e.ctx)
		return ctxErr == nil
	}
	emit := func() bool {
		buf.push(ev, c.bodySlots)
		return poll()
	}
	var added []int
	seed := func(seedPat *pattern, order []int, cands rowSet) {
		for k := range cands.n {
			if ctxErr != nil || !poll() {
				return
			}
			ev.reset()
			added = added[:0]
			if seedPat.matchInto(cands.row(k), ev, &added) {
				matchPatterns(e.inst, c.bodyPos, order, ev, &added, emit)
			}
		}
	}
	if delta == nil {
		first := &c.bodyPos[c.fullOrder[0]]
		base, own := candidatesFor(e.inst, first, ev)
		seed(first, c.fullOrder[1:], base)
		seed(first, c.fullOrder[1:], own)
	} else {
		for j := range c.bodyPos {
			p := &c.bodyPos[j]
			seed(p, c.seeded[j], delta[p.pred])
		}
	}
	if ctxErr != nil {
		return e.abort(ctxErr, 0, 0)
	}
	return nil
}

// apply is phase two: it replays the triggers enumerate buffered, in order.
// dedup enables the cross-seed deduplication of semi-naive matching (a trigger
// whose body holds two delta facts is enumerated once per seed position).
func (e *engine) apply(c *compiledRule, rs *RuleStats, buf *triggerBuf, dedup bool) error {
	if buf.n == 0 {
		return nil
	}
	var seen *relation // the bindings replayed so far, as rows
	if dedup && len(c.bodyPos) > 1 {
		if e.seen == nil {
			e.seen = newRelation("", 0, 0)
		}
		seen = e.seen
		seen.reset(c.bodySlots)
	}
	resolveAll(c.bodyNeg, e.inst, false)
	resolveAll(c.heads, e.inst, true)
	ev := newEnv(len(c.st.vars))
	for i := 0; i < buf.n; i++ {
		buf.load(i, c.bodySlots, ev)
		if seen != nil {
			if _, fresh := seen.insert(ev[:c.bodySlots]); !fresh {
				continue
			}
		}
		rs.TriggersAttempted++
		// Cancellation is polled here too: one turn can fire a huge buffer.
		if e.tick++; e.tick&63 == 0 {
			if err := e.interrupted(); err != nil {
				return err
			}
		}
		// Stratified negation against the current instance (the negated
		// predicates belong to lower strata and are final).
		negated := false
		for k := range c.bodyNeg {
			if np := &c.bodyNeg[k]; np.known {
				if e.row = np.fill(e.row[:0], ev); e.inst.hasRow(np.pid, e.row) {
					negated = true
					break
				}
			}
		}
		if negated {
			continue
		}
		if err := e.fire(c, ev); err != nil {
			return err
		}
	}
	return nil
}
