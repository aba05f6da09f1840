package chase

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/datalog"
	"repro/internal/limits"
)

// This file implements incremental maintenance of the Skolem chase fixpoint
// under EDB delta batches: semi-naive insertion (only triggers touching new
// facts fire) and deletion by either exact counting (non-recursive programs)
// or DRed (over-delete the closure reachable from the removed facts, then
// re-derive survivors). The engine keeps, alongside the instance, a support
// counter per fact — the number of distinct rule triggers currently deriving
// it, plus one when the fact is extensional — and the persistent Skolem table
// name→key, so re-deriving a trigger after churn reuses the very same null
// names and an insert-then-delete round trip restores the instance exactly.
//
// Support counting is only exact if every satisfied trigger is counted
// exactly once over the materialization's lifetime. The batch engine's
// Gauss-Seidel rounds (facts derived by an earlier rule are visible to later
// rules in the same round AND re-seed the next round's delta) would
// double-enumerate some triggers, so the incremental engine runs strict
// Jacobi rounds instead: facts derived in a round go only into a pending set
// that becomes the next round's delta, and within a round triggers are
// deduplicated by (rule, body binding). A trigger is then enumerable only in
// the single round where its last body atom arrived, and exactly once.

// ErrMaintainDepth reports that a maintenance pass would have invented a null
// beyond Options.MaxDepth. The batch chase degrades to a depth-truncated
// result in that situation; an incremental materialization cannot (it would
// silently serve an under-approximation forever), so it invalidates itself
// instead and callers fall back to the from-scratch chase.
var ErrMaintainDepth = errors.New("chase: incremental maintenance exceeded the null-depth bound")

// errBroken latches an Incremental whose last maintenance pass failed partway
// (its instance and counters may be inconsistent); every later call fails.
var errBroken = errors.New("chase: incremental materialization is invalid after a failed maintenance pass")

// MaintainStats reports what one maintenance pass (build, insert, or delete)
// did; the mat layer turns these into the mat.* metrics.
type MaintainStats struct {
	// DeltaIn is how many EDB atoms of the batch actually changed the EDB
	// (inserts of already-present or deletes of never-inserted atoms are
	// no-ops and excluded).
	DeltaIn int
	// Rounds is the number of semi-naive rounds (plus deletion waves) run.
	Rounds int
	// Triggers is the number of rule triggers enumerated.
	Triggers int
	// Derived is how many facts were added to the instance.
	Derived int
	// OverDeleted is how many facts DRed provisionally deleted.
	OverDeleted int
	// Rederived is how many over-deleted facts survived: they kept support
	// from untouched derivations or were re-derived from survivors.
	Rederived int
	// Deleted is how many facts were actually removed from the instance.
	Deleted int
}

// Incremental is a materialized Skolem-chase fixpoint that can be maintained
// under EDB insert and delete batches. It is not safe for concurrent use;
// the mat layer serializes access.
type Incremental struct {
	prog *datalog.Program
	opts Options
	comp []*compiledRule
	inst *Instance
	// support maps an instance fact key to its derivation count (one per
	// counted trigger deriving it, plus one when the fact is in the EDB).
	support map[string]int
	// edb marks the fact keys of the extensional atoms.
	edb map[string]struct{}
	// skolem and depth persist across maintenance passes so re-derivation
	// reuses null names; see freshNull.
	skolem    map[string]string
	depth     map[string]int
	nextNull  int
	deepest   int // max depth of any null ever invented
	recursive bool
	broken    bool
}

// NewIncremental builds the materialized fixpoint of a positive Skolem-chase
// program over the given EDB. Programs with negation or constraints are
// rejected (their strata/marker semantics do not maintain incrementally), as
// are non-Skolem modes; callers fall back to the batch chase. A depth or fact
// budget trip during the build is an error, not a truncation: a partial
// materialization must never be served.
func NewIncremental(ctx context.Context, db *Instance, prog *datalog.Program, opts Options) (*Incremental, error) {
	opts = opts.withDefaults()
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if opts.Mode != Skolem {
		return nil, fmt.Errorf("chase: incremental maintenance requires the Skolem chase")
	}
	if prog.HasNegation() {
		return nil, fmt.Errorf("chase: incremental maintenance does not support negation")
	}
	if len(prog.Constraints) > 0 {
		return nil, fmt.Errorf("chase: incremental maintenance does not support constraints")
	}
	inc := &Incremental{
		prog:    prog,
		opts:    opts,
		inst:    NewInstance(),
		support: make(map[string]int),
		edb:     make(map[string]struct{}),
		skolem:  make(map[string]string),
		depth:   make(map[string]int),
	}
	for i, r := range prog.Rules {
		inc.comp = append(inc.comp, compileRule(r, i))
	}
	inc.recursive = hasRecursion(prog)
	if _, err := inc.Insert(ctx, db.All()); err != nil {
		return nil, err
	}
	return inc, nil
}

// hasRecursion reports whether the predicate dependency graph (body pred →
// head pred over all rules) has a cycle. Acyclic programs admit the exact
// counting deletion algorithm; cyclic ones need DRed (a fact may support
// itself through a cycle, so a positive count does not prove independent
// derivability).
func hasRecursion(p *datalog.Program) bool {
	adj := make(map[string][]string)
	for _, r := range p.Rules {
		for _, b := range r.Body() {
			for _, h := range r.Head {
				adj[b.Pred] = append(adj[b.Pred], h.Pred)
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(string) bool
	visit = func(u string) bool {
		color[u] = gray
		for _, v := range adj[u] {
			switch color[v] {
			case gray:
				return true
			case white:
				if visit(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for u := range adj {
		if color[u] == white && visit(u) {
			return true
		}
	}
	return false
}

// Instance returns the live materialized instance. Callers must treat it as
// read-only and must not retain it across maintenance passes.
func (inc *Incremental) Instance() *Instance { return inc.inst }

// Facts returns the current instance size.
func (inc *Incremental) Facts() int { return inc.inst.Len() }

// Depth returns the maximum nesting depth of any null ever invented.
func (inc *Incremental) Depth() int { return inc.deepest }

// Recursive reports whether deletions run DRed (true) or exact counting.
func (inc *Incremental) Recursive() bool { return inc.recursive }

// NullKeys returns a copy of the null name → Skolem key table. Two
// materializations of the same program are isomorphic exactly when renaming
// each null to its key makes their instances equal; the differential tests
// rely on this.
func (inc *Incremental) NullKeys() map[string]string {
	out := make(map[string]string, len(inc.skolem))
	for key, name := range inc.skolem {
		out[name] = key
	}
	return out
}

// SupportOf returns the support count of a fact (0 when absent).
func (inc *Incremental) SupportOf(a datalog.Atom) int {
	k, ok := inc.inst.factKey(a)
	if !ok {
		return 0
	}
	return inc.support[k]
}

// freshNull returns the null for a Skolem key, inventing (and depth-tagging)
// it on first use. Keys persist across deletes, so a re-derived trigger gets
// its original null back and instance equality after churn is exact, not just
// up to renaming.
func (inc *Incremental) freshNull(key string, d int) datalog.Term {
	if name, ok := inc.skolem[key]; ok {
		return datalog.N(name)
	}
	name := "i" + strconv.Itoa(inc.nextNull)
	inc.nextNull++
	inc.skolem[key] = name
	inc.depth[name] = d
	if d > inc.deepest {
		inc.deepest = d
	}
	return datalog.N(name)
}

// triggerKey identifies a trigger for deduplication: the rule index plus the
// full body binding.
func triggerKey(c *compiledRule, e *env) string {
	buf := append(strconv.AppendInt([]byte{'r'}, int64(c.idx), 10), ':')
	return string(appendBindingKey(buf, e, c.bodySlots))
}

// checkRound runs the per-round bookkeeping shared by every maintenance
// loop: the round budget, the chase.round fault point (so TRIQ_FAULTS plans
// exercise the maintenance path exactly like the batch engine), and context
// cancellation.
func (inc *Incremental) checkRound(ctx context.Context, st *MaintainStats) error {
	st.Rounds++
	if st.Rounds > inc.opts.MaxRounds {
		return limits.NewError(limits.ErrRoundBudget, limits.Truncation{
			Budget: int64(inc.opts.MaxRounds), Reached: int64(st.Rounds)})
	}
	if err := limits.Hit(inc.opts.Faults, "chase.round"); err != nil {
		return err
	}
	if kind := limits.CtxKind(ctx); kind != nil {
		return limits.NewError(kind, limits.Truncation{})
	}
	return nil
}

// forEachSeededTrigger enumerates, exactly once each, the triggers of rule c
// with at least one body atom in dseed and the remaining atoms in inst (which
// may itself contain the seed facts). seen deduplicates across seed positions
// and — when shared by the caller across waves — across the whole pass.
func (inc *Incremental) forEachSeededTrigger(c *compiledRule, dseed *Instance, seen map[string]struct{}, yield func(*env) error) error {
	e := newEnv(len(c.st.vars))
	var err error
	for j := range c.bodyPos {
		p := c.bodyPos[j]
		cands := dseed.AtomsOf(p.pred)
		if len(cands) == 0 {
			continue
		}
		for _, fact := range cands {
			var added []int
			if p.matchInto(fact, e, &added) {
				matchPatterns(inc.inst, c.bodyPos, c.seeded[j], e, func() bool {
					tk := triggerKey(c, e)
					if _, dup := seen[tk]; dup {
						return true
					}
					seen[tk] = struct{}{}
					if err = yield(e); err != nil {
						return false
					}
					return true
				})
			}
			p.rollback(e, &added, 0)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// bindNulls resolves the existential slots of a fully-bound body environment.
// When invent is true missing Skolem keys mint fresh nulls (insert
// direction); when false a missing key means the trigger never fired and the
// caller must skip it (delete direction). The caller must invoke the returned
// release func to clear the slots. A depth-bound violation returns
// ErrMaintainDepth.
func (inc *Incremental) bindNulls(c *compiledRule, e *env, invent bool) (release func(), fired bool, err error) {
	if len(c.exSlots) == 0 {
		return func() {}, true, nil
	}
	d := 1
	for _, s := range c.frontier {
		if s < c.bodySlots && e.set[s] && e.val[s].IsNull() {
			if inc.depth[e.val[s].Name]+1 > d {
				d = inc.depth[e.val[s].Name] + 1
			}
		}
	}
	if invent && d > inc.opts.MaxDepth {
		return nil, false, ErrMaintainDepth
	}
	release = func() {
		for _, s := range c.exSlots {
			e.set[s] = false
		}
	}
	for k, s := range c.exSlots {
		key := skolemKeyFor(c, k, e)
		if invent {
			e.val[s] = inc.freshNull(key, d)
		} else {
			name, ok := inc.skolem[key]
			if !ok {
				release()
				return nil, false, nil
			}
			e.val[s] = datalog.N(name)
		}
		e.set[s] = true
	}
	return release, true, nil
}

// Insert folds a batch of extensional atoms into the materialization with
// semi-naive evaluation seeded on the actually-new atoms. Atoms already in
// the EDB are no-ops. On error the materialization is invalid and every
// subsequent call fails; callers must discard it.
func (inc *Incremental) Insert(ctx context.Context, atoms []datalog.Atom) (MaintainStats, error) {
	var st MaintainStats
	if inc.broken {
		return st, errBroken
	}
	var delta []datalog.Atom
	for _, a := range atoms {
		if !a.IsConstantGround() {
			inc.broken = true
			return st, fmt.Errorf("chase: extensional atom %v must contain only constants", a)
		}
		k := inc.inst.internKey(a)
		if _, dup := inc.edb[k]; dup {
			continue
		}
		inc.edb[k] = struct{}{}
		inc.support[k]++
		st.DeltaIn++
		if inc.inst.Add(a) {
			st.Derived++
			delta = append(delta, a)
		}
	}
	if err := inc.propagate(ctx, delta, &st); err != nil {
		inc.broken = true
		return st, err
	}
	return st, nil
}

// propagate runs strict-Jacobi semi-naive rounds from the given delta until
// fixpoint, counting one support per enumerated trigger per head atom. It is
// used both by Insert and by the DRed re-derivation phase (whose restored
// facts behave exactly like an insert delta).
func (inc *Incremental) propagate(ctx context.Context, delta []datalog.Atom, st *MaintainStats) error {
	seen := make(map[string]struct{})
	for len(delta) > 0 {
		if err := inc.checkRound(ctx, st); err != nil {
			return err
		}
		dseed := NewInstance(delta...)
		var pending []datalog.Atom
		pendingSet := make(map[string]struct{})
		for _, c := range inc.comp {
			err := inc.forEachSeededTrigger(c, dseed, seen, func(e *env) error {
				release, fired, err := inc.bindNulls(c, e, true)
				if err != nil || !fired {
					return err
				}
				defer release()
				st.Triggers++
				for _, h := range c.heads {
					fact := h.instantiate(e)
					k := inc.inst.internKey(fact)
					inc.support[k]++
					if inc.inst.Has(fact) {
						continue
					}
					if _, dup := pendingSet[k]; dup {
						continue
					}
					if inc.inst.Len()+len(pending) >= inc.opts.MaxFacts {
						return limits.NewError(limits.ErrFactBudget, limits.Truncation{
							Budget: int64(inc.opts.MaxFacts), Reached: int64(inc.inst.Len() + len(pending))})
					}
					pendingSet[k] = struct{}{}
					pending = append(pending, fact)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		for _, a := range pending {
			inc.inst.Add(a)
			st.Derived++
		}
		delta = pending
	}
	return nil
}

// Delete removes a batch of extensional atoms and retracts everything that
// loses all support. Atoms not in the EDB are no-ops. Non-recursive programs
// use exact counting (delete exactly the facts whose count reaches zero);
// recursive programs use DRed: over-delete the closure derivable from the
// removed facts against the pre-removal instance, keep the members that
// retain support from untouched derivations, then propagate the survivors
// like an insert delta to re-derive (and re-count) the rest.
func (inc *Incremental) Delete(ctx context.Context, atoms []datalog.Atom) (MaintainStats, error) {
	var st MaintainStats
	if inc.broken {
		return st, errBroken
	}
	var seeds []datalog.Atom
	seedKeys := make(map[string]struct{})
	for _, a := range atoms {
		k, ok := inc.inst.factKey(a)
		if !ok {
			continue
		}
		if _, isEDB := inc.edb[k]; !isEDB {
			continue
		}
		if _, dup := seedKeys[k]; dup {
			continue
		}
		seedKeys[k] = struct{}{}
		delete(inc.edb, k)
		inc.support[k]--
		st.DeltaIn++
		seeds = append(seeds, a)
	}
	if len(seeds) == 0 {
		return st, nil
	}
	var err error
	if inc.recursive {
		err = inc.deleteDRed(ctx, seeds, &st)
	} else {
		err = inc.deleteCounting(ctx, seeds, &st)
	}
	if err != nil {
		inc.broken = true
	}
	return st, err
}

// deleteCounting deletes by exact support counting, valid because the
// program's predicate dependency graph is acyclic: a positive count always
// witnesses a real derivation from surviving facts. Facts whose count hits
// zero die and propagate in waves; each wave is enumerated against the
// instance before being removed, so a trigger with several dying body atoms
// is still found (and the per-pass seen map makes it decrement only once).
func (inc *Incremental) deleteCounting(ctx context.Context, seeds []datalog.Atom, st *MaintainStats) error {
	seen := make(map[string]struct{})
	var wave []datalog.Atom
	for _, a := range seeds {
		if k, _ := inc.inst.factKey(a); inc.support[k] == 0 {
			wave = append(wave, a)
		}
	}
	for len(wave) > 0 {
		if err := inc.checkRound(ctx, st); err != nil {
			return err
		}
		dseed := NewInstance(wave...)
		var died []datalog.Atom
		diedSet := make(map[string]struct{})
		for _, c := range inc.comp {
			err := inc.forEachSeededTrigger(c, dseed, seen, func(e *env) error {
				release, fired, err := inc.bindNulls(c, e, false)
				if err != nil || !fired {
					return err
				}
				defer release()
				st.Triggers++
				for _, h := range c.heads {
					fact := h.instantiate(e)
					k, ok := inc.inst.factKey(fact)
					if !ok || !inc.inst.Has(fact) {
						continue
					}
					inc.support[k]--
					if inc.support[k] > 0 {
						continue
					}
					if _, isEDB := inc.edb[k]; isEDB {
						continue
					}
					if _, dup := diedSet[k]; dup {
						continue
					}
					diedSet[k] = struct{}{}
					died = append(died, fact)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		st.Deleted += inc.inst.RemoveBatch(wave)
		for _, a := range wave {
			if k, ok := inc.inst.factKey(a); ok {
				delete(inc.support, k)
			}
		}
		wave = died
	}
	return nil
}

// deleteDRed deletes with over-delete + re-derive. Phase 1 walks the closure
// of facts with a derivation touching a removed fact, matching against the
// untouched pre-removal instance and decrementing each enumerated trigger's
// heads exactly once (one global seen map across waves); existential heads
// resolve through the Skolem table, so only triggers that actually fired are
// retracted. Phase 2 removes the closure members whose residual support hit
// zero. Phase 3 propagates the survivors as an ordinary insert delta: every
// trigger it can enumerate was decremented in phase 1 (its body holds a
// closure fact and survived into the new instance), so the re-increments
// restore exact counts, and re-derived facts reuse their original nulls.
func (inc *Incremental) deleteDRed(ctx context.Context, seeds []datalog.Atom, st *MaintainStats) error {
	seen := make(map[string]struct{})
	closure := make(map[string]struct{})
	var closureAtoms []datalog.Atom
	for _, a := range seeds {
		k, _ := inc.inst.factKey(a)
		closure[k] = struct{}{}
		closureAtoms = append(closureAtoms, a)
	}
	wave := seeds
	for len(wave) > 0 {
		if err := inc.checkRound(ctx, st); err != nil {
			return err
		}
		dseed := NewInstance(wave...)
		var next []datalog.Atom
		for _, c := range inc.comp {
			err := inc.forEachSeededTrigger(c, dseed, seen, func(e *env) error {
				release, fired, err := inc.bindNulls(c, e, false)
				if err != nil || !fired {
					return err
				}
				defer release()
				st.Triggers++
				for _, h := range c.heads {
					fact := h.instantiate(e)
					k, ok := inc.inst.factKey(fact)
					if !ok || !inc.inst.Has(fact) {
						continue
					}
					inc.support[k]--
					if _, in := closure[k]; !in {
						closure[k] = struct{}{}
						closureAtoms = append(closureAtoms, fact)
						next = append(next, fact)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		wave = next
	}
	st.OverDeleted = len(closureAtoms)
	var deleted, restored []datalog.Atom
	for _, a := range closureAtoms {
		k, _ := inc.inst.factKey(a)
		if inc.support[k] > 0 {
			restored = append(restored, a)
		} else {
			deleted = append(deleted, a)
		}
	}
	st.Deleted += inc.inst.RemoveBatch(deleted)
	for _, a := range deleted {
		if k, ok := inc.inst.factKey(a); ok {
			delete(inc.support, k)
		}
	}
	st.Rederived = len(restored)
	before := st.Derived
	if err := inc.propagate(ctx, restored, st); err != nil {
		return err
	}
	st.Rederived += st.Derived - before
	return nil
}
