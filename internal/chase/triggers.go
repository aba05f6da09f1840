package chase

import (
	"repro/internal/datalog"
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

// triggerBuf holds body bindings of one rule as flat parallel slices with a
// stride of the rule body's variable slots: the triggers enumerate found in
// the current turn, or the ones the depth bound blocked (see engine.refire).
type triggerBuf struct {
	vals []datalog.Term
	set  []bool
	n    int
}

func (b *triggerBuf) push(ev *env, slots int) {
	b.vals = append(b.vals, ev.val[:slots]...)
	b.set = append(b.set, ev.set[:slots]...)
	b.n++
}

// load restores binding i into the environment; slots past the body are
// cleared so fire sees fresh existential slots.
func (b *triggerBuf) load(i, slots int, ev *env) {
	copy(ev.val[:slots], b.vals[i*slots:(i+1)*slots])
	copy(ev.set[:slots], b.set[i*slots:(i+1)*slots])
	for s := slots; s < len(ev.set); s++ {
		ev.set[s] = false
	}
}

// enumerate is phase one: read-only matching of rule c against the engine
// instance into buf, whose storage it reuses. delta holds, per body predicate,
// the facts the previous round derived, and each body position in turn is
// seeded from them (the seed pattern's matchInto drops the ones its constants
// rule out); a nil delta — the stratum's first round, and naive evaluation —
// matches the whole instance, seeded from the first pattern of the precomputed
// join order. The context is polled every 64 candidates and emissions, so a
// canceled chase stops within milliseconds even inside one huge turn.
func (e *engine) enumerate(c *compiledRule, delta map[string][]datalog.Atom, buf *triggerBuf) error {
	buf.vals, buf.set, buf.n = buf.vals[:0], buf.set[:0], 0
	ev := newEnv(len(c.st.vars))
	if delta == nil && len(c.bodyPos) == 0 {
		buf.push(ev, c.bodySlots) // an empty positive body has exactly one — empty — trigger
		return nil
	}
	// A body atom over a relation that holds nothing has no match, whatever
	// the other atoms join to: the rule takes no turn.
	for _, p := range c.bodyPos {
		if base, own := e.inst.atomsOf(p.pred); len(base)+len(own) == 0 {
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
	seed := func(seedPat pattern, order []int, cands []datalog.Atom) {
		for _, fact := range cands {
			if ctxErr != nil || !poll() {
				return
			}
			ev.reset()
			added = added[:0]
			if seedPat.matchInto(fact, ev, &added) {
				matchPatterns(e.inst, c.bodyPos, order, ev, emit)
			}
		}
	}
	if delta == nil {
		first := c.bodyPos[c.fullOrder[0]]
		base, own := candidatesFor(e.inst, first, ev)
		seed(first, c.fullOrder[1:], base)
		seed(first, c.fullOrder[1:], own)
	} else {
		for j, p := range c.bodyPos {
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
	var seen map[string]struct{}
	if dedup && len(c.bodyPos) > 1 {
		seen = make(map[string]struct{})
	}
	ev := newEnv(len(c.st.vars))
	for i := 0; i < buf.n; i++ {
		buf.load(i, c.bodySlots, ev)
		if seen != nil {
			// The probe converts in place; only a new key is copied.
			e.keyBuf = appendBindingKey(e.keyBuf[:0], ev, c.bodySlots)
			if _, dup := seen[string(e.keyBuf)]; dup {
				continue
			}
			seen[string(e.keyBuf)] = struct{}{}
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
		for _, np := range c.bodyNeg {
			if e.inst.Has(np.instantiate(ev)) {
				negated = true
				break
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
