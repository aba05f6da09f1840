package chase

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/datalog"
)

// This file maintains a Skolem-chase fixpoint under EDB delta batches. There is
// no second engine here: an Incremental keeps the engine that chased its
// instance and resumes it, after adding a batch or after DRed took one out. The
// engine's Skolem table outlives deletes, so a fact derived again gets the null
// it had and an insert-then-delete round trip restores the instance exactly.

// ErrMaintainDepth reports that a maintenance pass would have invented a null
// beyond Options.MaxDepth. The chase of a query degrades to a depth-truncated
// result in that situation; a materialization cannot (it would silently serve
// an under-approximation forever), so it invalidates itself instead and
// callers fall back to the from-scratch chase.
var ErrMaintainDepth = errors.New("chase: incremental maintenance exceeded the null-depth bound")

// errBroken latches an Incremental whose last maintenance pass failed partway
// (its instance may be short of its fixpoint); every later call fails.
var errBroken = errors.New("chase: incremental materialization is invalid after a failed maintenance pass")

// MaintainStats reports what one maintenance pass (build, insert, or delete)
// did; the mat layer turns these into the mat.* metrics.
type MaintainStats struct {
	// DeltaIn is how many EDB atoms of the batch actually changed the EDB
	// (inserts of already-present or deletes of never-inserted atoms are
	// no-ops and excluded).
	DeltaIn int
	// Triggers is how many rule triggers the pass matched, Derived how many
	// facts it added to the instance.
	Triggers, Derived int
	// OverDeleted is how many facts DRed removed and Deleted how many of them
	// stayed removed; the rest still had a derivation and count as Derived.
	OverDeleted, Deleted int
}

// Incremental is a materialized Skolem-chase fixpoint that can be maintained
// under EDB insert and delete batches. It is not safe for concurrent use;
// the mat layer serializes access.
type Incremental struct {
	// e chased the instance and is resumed by every pass. Its instance is flat
	// and its own — extensional and derived facts side by side — because a
	// delete shrinks it, which a layer over a shared base cannot do.
	e *engine
	// edb holds the keys (packFact) of the extensional atoms: a delete
	// retracts only those, and never over-deletes one the batch leaves in place.
	edb    map[string]struct{}
	broken bool
}

// NewIncremental builds the materialized fixpoint of a positive program over
// the given EDB — the ordinary chase of a copy of it — and keeps the engine.
// Programs with negation or constraints are rejected (their strata/marker
// semantics do not maintain incrementally); callers fall back to the batch
// chase. A depth or fact budget trip
// during the build is an error, not a truncation: a partial materialization
// must never be served. The build reports to opts.Obs and opts.Progress like
// any chase; maintenance passes report through their MaintainStats only.
func NewIncremental(ctx context.Context, db *Instance, prog *datalog.Program, opts Options) (*Incremental, error) {
	opts = opts.withDefaults()
	if prog.HasNegation() {
		return nil, fmt.Errorf("chase: incremental maintenance cannot handle negation")
	}
	if len(prog.Constraints) > 0 {
		return nil, fmt.Errorf("chase: incremental maintenance cannot handle constraints")
	}
	e, err := prepare(ctx, NewInstance(), prog, opts)
	if err != nil {
		return nil, err
	}
	inc := &Incremental{e: e, edb: make(map[string]struct{}, db.Len())}
	if _, err := inc.Insert(ctx, db.All()); err != nil {
		return nil, err
	}
	// The engine outlives the request that paid for the build: it keeps the
	// bounds and nothing that ties it to that request.
	e.opts = Options{MaxDepth: opts.MaxDepth, MaxFacts: opts.MaxFacts, MaxRounds: opts.MaxRounds, NaiveEvaluation: opts.NaiveEvaluation}
	e.span, e.ruleLabels = nil, false
	return inc, nil
}

// Instance returns the live materialized instance. Callers must treat it as
// read-only and must not retain it across maintenance passes.
func (inc *Incremental) Instance() *Instance { return inc.e.inst }

// Facts returns the current instance size.
func (inc *Incremental) Facts() int { return inc.e.inst.Len() }

// Depth returns the maximum nesting depth of any null ever invented.
func (inc *Incremental) Depth() int { return inc.e.deepest }

// NullKeys returns a copy of the null name → Skolem key table. Two
// materializations of the same program are isomorphic exactly when renaming
// each null to its key makes their instances equal; the differential tests
// rely on this.
func (inc *Incremental) NullKeys() map[string]string { return inc.e.nullKeys() }

// chase runs one maintenance pass: edit changes the instance, and one step of
// the engine brings it back to its fixpoint. Rounds,
// budgets, fault sites and cancellation are therefore the chase's own. A pass
// that fails — or that the depth bound kept from finishing — latches the
// materialization broken.
func (inc *Incremental) chase(ctx context.Context, st *MaintainStats, edit func() error) error {
	e := inc.e
	e.ctx, e.start = ctx, time.Now()
	derived, attempted := e.stats.FactsDerived, e.attempted()
	err := edit()
	if err == nil {
		_, err = e.step()
	}
	if err == nil && (e.stats.DepthTruncated || e.parkedTriggers() > 0) {
		err = ErrMaintainDepth
	}
	e.ctx = nil
	st.Triggers += e.attempted() - attempted
	st.Derived += e.stats.FactsDerived - derived
	inc.broken = err != nil
	return err
}

// attempted sums the triggers the engine's rules have matched so far.
func (e *engine) attempted() int {
	n := 0
	for _, rs := range e.perRule {
		n += rs.TriggersAttempted
	}
	return n
}

// Insert folds a batch of extensional atoms into the materialization; atoms
// already in the EDB are no-ops. The new atoms lie past the engine's
// watermarks, so the step matches semi-naively over them. On error the
// materialization is invalid and every subsequent call fails; callers must
// discard it.
func (inc *Incremental) Insert(ctx context.Context, atoms []datalog.Atom) (MaintainStats, error) {
	var st MaintainStats
	if inc.broken {
		return st, errBroken
	}
	e := inc.e
	err := inc.chase(ctx, &st, func() error {
		for _, a := range atoms {
			if !a.IsConstantGround() {
				return fmt.Errorf("chase: extensional atom %v must contain only constants", a)
			}
			var pid uint32
			pid, e.row, _ = e.inst.encode(e.row[:0], a, true)
			added := e.inst.addRow(pid, e.row)
			e.keyBuf = packFact(e.keyBuf[:0], pid, e.row)
			if _, dup := inc.edb[string(e.keyBuf)]; dup {
				continue
			}
			inc.edb[string(e.keyBuf)] = struct{}{}
			st.DeltaIn++
			if added { // else a rule had derived it already
				st.Derived++
			}
		}
		return nil
	})
	return st, err
}

// Delete removes a batch of extensional atoms and retracts everything that no
// longer has a derivation; atoms not in the EDB are no-ops. It is DRed, keeping
// no count of derivations per fact (DESIGN.md "One chase engine" argues each
// step): over-delete, remove, re-derive. The instance was at its fixpoint, so
// every trigger over the surviving facts has fired and the strata's watermarks
// may move to the shrunken bucket lengths; what re-derivation puts back lies
// past them, and the closing step propagates it like any insert.
func (inc *Incremental) Delete(ctx context.Context, atoms []datalog.Atom) (MaintainStats, error) {
	var st MaintainStats
	if inc.broken {
		return st, errBroken
	}
	e := inc.e
	var removed []fact
	var buf []uint32
	for _, a := range atoms {
		start := len(buf)
		pid, out, ok := e.inst.encode(buf, a, false)
		if !ok {
			continue
		}
		e.keyBuf = packFact(e.keyBuf[:0], pid, out[start:])
		if _, isEDB := inc.edb[string(e.keyBuf)]; isEDB {
			delete(inc.edb, string(e.keyBuf))
			buf = out
			removed = append(removed, fact{pid, buf[start:len(buf):len(buf)]})
		}
	}
	if st.DeltaIn = len(removed); st.DeltaIn == 0 {
		return st, nil
	}
	err := inc.chase(ctx, &st, func() error {
		gone, err := inc.overDelete(removed, &st)
		if err != nil {
			return err
		}
		st.OverDeleted = e.inst.removeFacts(gone)
		for _, s := range e.strata {
			for _, p := range s.bodyPreds {
				s.started[p] = e.inst.ownLen(p)
			}
		}
		return e.rederive(gone)
	})
	st.Deleted = st.OverDeleted - st.Derived
	return st, err
}

// overDelete collects, without touching the instance, the removed atoms and
// every fact some trigger derives from a collected one, in waves of enumerate
// seeded by the previous wave. Existential head positions resolve through the
// Skolem table without inventing: a key the table lacks belongs to a trigger
// that never fired. Atoms still in the EDB stand whatever derives them.
func (inc *Incremental) overDelete(removed []fact, st *MaintainStats) (gone []fact, err error) {
	e := inc.e
	in := make(map[string]struct{})
	wave := make(map[string]rowSet)
	var rows []uint32 // the rows of gone, back to back
	collect := func(pid uint32, row []uint32) {
		r := e.inst.rel(pid) // flat: the own layer is the instance
		k := r.find(row)
		if k < 0 {
			return
		}
		e.keyBuf = packFact(e.keyBuf[:0], pid, row)
		_, seen := in[string(e.keyBuf)]
		if _, isEDB := inc.edb[string(e.keyBuf)]; seen || isEDB {
			return
		}
		in[string(e.keyBuf)] = struct{}{}
		start := len(rows)
		rows = append(rows, row...)
		gone = append(gone, fact{pid, rows[start:len(rows):len(rows)]})
		w := wave[r.pred]
		w.rel, w.ids, w.n = r, append(w.ids, int32(k)), w.n+1
		wave[r.pred] = w
	}
	for _, f := range removed {
		collect(f.pid, f.row)
	}
	for len(wave) > 0 {
		seeds := wave
		wave = make(map[string]rowSet)
		for _, s := range e.strata {
			for _, c := range s.comp {
				if err := e.enumerate(c, seeds, &e.found); err != nil {
					return nil, err
				}
				st.Triggers += e.found.n
				resolveAll(c.heads, e.inst, false)
				ev := newEnv(len(c.st.vars))
			triggers:
				for i := 0; i < e.found.n; i++ {
					e.found.load(i, c.bodySlots, ev)
					for k, s := range c.exSlots {
						e.skBuf = e.skolemKeyFor(e.skBuf[:0], c, k, ev, chaseKey)
						id, ok := e.skolem[string(e.skBuf)]
						if !ok {
							continue triggers
						}
						ev[s] = id
					}
					for hi := range c.heads {
						if h := &c.heads[hi]; h.known {
							e.row = h.fill(e.row[:0], ev)
							collect(h.pid, e.row)
						}
					}
				}
			}
		}
	}
	return gone, nil
}

// rederive puts back every over-deleted fact that one trigger derives from the
// facts the instance holds: it matches a rule's head to the fact, joins the
// body under that binding, and fires the first trigger it finds. Where the
// head has an existential variable, the fact must carry the very null the
// Skolem table gives that trigger. The cost is per over-deleted fact, not per
// instance.
func (e *engine) rederive(gone []fact) error {
	for _, s := range e.strata {
		for ci, c := range s.comp {
			resolveAll(c.bodyPos, e.inst, false)
			resolveAll(c.heads, e.inst, true)
			ev := newEnv(len(c.st.vars))
			var bound []int
			for hi := range c.heads {
				h := &c.heads[hi]
				order := orderPatterns(c.bodyPos, h, -1)
				for _, f := range gone {
					if f.pid != h.pid || e.inst.hasRow(f.pid, f.row) {
						continue
					}
					ev.reset()
					if bound = bound[:0]; !h.matchInto(f.row, ev, &bound) {
						continue
					}
					derives := false
					// Stopped at its first hit, matchPatterns leaves the body bound.
					matchPatterns(e.inst, c.bodyPos, order, ev, &bound, func() bool {
						derives = true
						for k, s := range c.exSlots {
							e.skBuf = e.skolemKeyFor(e.skBuf[:0], c, k, ev, chaseKey)
							if id, ok := e.skolem[string(e.skBuf)]; ev[s] != unbound && (!ok || ev[s] != id) {
								derives = false
							}
						}
						return !derives
					})
					if !derives {
						continue
					}
					ev[c.bodySlots:].reset()
					e.cur, e.park = s.stats[ci], &s.parked[ci]
					err := e.fire(c, ev)
					e.cur, e.park = nil, nil
					if err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
