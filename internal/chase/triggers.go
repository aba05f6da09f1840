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

// reset empties the buffer and keeps its storage.
func (b *triggerBuf) reset() { b.vals, b.n = b.vals[:0], 0 }

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
// instance into buf, whose storage it reuses. seeds[j] holds the rows body
// position j is seeded from, the tail of its predicate the previous round
// derived (the seed pattern's matchInto drops the ones its constants rule
// out); nil seeds — the stratum's first round, and naive evaluation — match
// the whole instance, seeded from the first pattern of the precomputed join
// order. The context is polled every 64 candidates and emissions, so a
// canceled chase stops within milliseconds even inside one huge turn. The
// environment and the record of bound slots are engine scratch; the callbacks
// do not escape, so a turn allocates only what buf grows by.
func (e *engine) enumerate(c *compiledRule, seeds []rowSet, buf *triggerBuf) error {
	buf.reset()
	ev := e.scratchEnv(len(c.st.vars))
	if seeds == nil && len(c.bodyPos) == 0 {
		buf.push(ev, c.bodySlots) // an empty positive body has exactly one — empty — trigger
		return nil
	}
	// A body atom over a relation that holds nothing, or with a constant the
	// instance has never seen, has no match, whatever the other atoms join to:
	// the rule takes no turn.
	body := e.body.of(c.bodyPos, e.inst, false)
	for k := range body {
		if e.inst.count(&body[k]) == 0 {
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
	added := e.added[:0]
	seed := func(seedPat *resolved, order []int, cands rowSet) {
		for k := range cands.n {
			if ctxErr != nil || !poll() {
				return
			}
			ev.reset()
			added = added[:0]
			if seedPat.matchInto(cands.row(k), ev, &added) {
				matchPatterns(e.inst, body, order, ev, &added, emit)
			}
		}
	}
	if seeds == nil {
		first := &body[c.fullOrder[0]]
		base, own := candidatesFor(e.inst, first, ev)
		seed(first, c.fullOrder[1:], base)
		seed(first, c.fullOrder[1:], own)
	} else {
		for j := range body {
			seed(&body[j], c.seeded[j], seeds[j])
		}
	}
	e.added = added
	if ctxErr != nil {
		return e.abort(ctxErr, 0, 0)
	}
	return nil
}

// apply is phase two: it replays the triggers enumerate buffered, in order.
// dedup enables the cross-seed deduplication of semi-naive matching (a trigger
// whose body holds two delta facts is enumerated once per seed position).
func (e *engine) apply(c *ruleRun, rs *RuleStats, buf *triggerBuf, dedup bool) error {
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
	neg := e.neg.of(c.bodyNeg, e.inst, false)
	heads := e.heads.of(c.heads, e.inst, true)
	ev := e.scratchEnv(len(c.st.vars))
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
		for k := range neg {
			if np := &neg[k]; np.known {
				if e.row = np.fill(e.row[:0], ev); e.inst.hasRow(np.pid, e.row) {
					negated = true
					break
				}
			}
		}
		if negated {
			continue
		}
		if err := e.fire(c, heads, ev); err != nil {
			return err
		}
	}
	return nil
}
