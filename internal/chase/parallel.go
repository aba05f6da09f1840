package chase

import (
	"sync"
	"sync/atomic"

	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

// This file implements the parallel trigger-enumeration phase of a chase
// round. Each round is evaluated rule by rule in two strictly ordered
// phases:
//
//  1. enumerate — the candidate space of the rule (per semi-naive seed
//     position, sharded over the previous round's facts of the seed's
//     predicate) is matched against
//     the instance as it stands at the start of the rule's turn. The
//     instance is not mutated during this phase, so any number of workers
//     may match concurrently without synchronization; each shard records the
//     bindings it found in a private buffer.
//  2. apply — the shard buffers are replayed in one canonical order (seed
//     position, then candidate order within the seed) on the calling
//     goroutine: cross-seed deduplication, stratified-negation checks,
//     restricted-mode head-satisfaction probes, Skolem null invention, and
//     the fact-budget boundary all happen here, exactly as they would in a
//     sequential run.
//
// Because the shard partition refines the sequential enumeration order and
// the apply phase is single-threaded, the derived facts, invented null
// names, Stats counters, and truncation points are bit-identical for every
// Options.Parallelism value — the property checked exhaustively by
// differential_test.go.

// shardFan bounds how many shards are cut per seed position: enough for the
// work-stealing loop to balance unequal shards, not so many that buffer
// bookkeeping dominates.
const shardFan = 4

// parallelThreshold is the smallest per-rule candidate count worth paying
// goroutine startup for; below it enumeration runs inline.
const parallelThreshold = 64

// errShardStopped is the sentinel a shard returns when it halted because a
// sibling worker failed first; the pool keeps the sibling's error instead.
type shardStoppedError struct{}

func (shardStoppedError) Error() string { return "chase: shard stopped by sibling failure" }

var errShardStopped = shardStoppedError{}

// triggerBuf holds body bindings of one rule as flat parallel slices with a
// stride of the rule body's variable slots: a shard's private output, or the
// triggers of the rule that the depth bound blocked (see engine.refire).
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

// shard is one unit of enumeration work: candidates [lo,hi) of one seed
// position (seed == -1 is the unseeded full-instance matching of the first
// round, seeded from the first pattern of the precomputed join order;
// trivial marks a rule with an empty positive body, which has exactly one —
// empty — trigger).
type shard struct {
	seed    int
	trivial bool
	cands   []datalog.Atom
	lo, hi  int
	buf     triggerBuf
}

// buildShards cuts the rule's candidate space for this round into shards in
// canonical order. The partition depends only on the candidate lists (which
// are deterministic products of the apply phase), never on the worker
// count, so concatenating the shard buffers in slice order always
// reproduces the sequential enumeration order. delta holds, per body
// predicate, the facts the previous round derived (nil on the first round);
// the seed pattern's matchInto drops the ones its constants rule out.
func (e *engine) buildShards(c *compiledRule, delta map[string][]datalog.Atom) []*shard {
	if delta == nil {
		if len(c.bodyPos) == 0 {
			return []*shard{{seed: -1, trivial: true}}
		}
		first := c.bodyPos[c.fullOrder[0]]
		return e.shardRange(nil, -1, join(candidatesFor(e.inst, first, newEnv(len(c.st.vars)))))
	}
	var out []*shard
	for j, p := range c.bodyPos {
		out = e.shardRange(out, j, delta[p.pred])
	}
	return out
}

// shardRange appends shards covering cands for one seed position.
func (e *engine) shardRange(out []*shard, seed int, cands []datalog.Atom) []*shard {
	n := len(cands)
	if n == 0 {
		return out
	}
	chunk := n
	if w := e.opts.Parallelism; w > 1 {
		chunk = (n + w*shardFan - 1) / (w * shardFan)
		if chunk < 16 {
			chunk = 16
		}
	}
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, &shard{seed: seed, cands: cands, lo: lo, hi: hi})
	}
	return out
}

// enumShard runs phase one for a single shard: read-only matching against
// the engine instance into the shard's buffer. stop is the pool's shared
// abort flag (nil on the inline path); the context is polled every few
// dozen candidates and emissions so a canceled chase stops within
// milliseconds even inside one huge shard.
func (e *engine) enumShard(c *compiledRule, s *shard, stop *atomic.Bool) error {
	ev := newEnv(len(c.st.vars))
	var retErr error
	polls := 0
	poll := func() bool {
		if polls++; polls&63 != 0 {
			return true
		}
		if stop != nil && stop.Load() {
			retErr = errShardStopped
			return false
		}
		if kind := limits.CtxKind(e.ctx); kind != nil {
			retErr = kind
			return false
		}
		return true
	}
	emit := func() bool {
		s.buf.push(ev, c.bodySlots)
		return poll()
	}
	if s.trivial {
		emit()
		return retErr
	}
	seedPat, order := c.bodyPos[c.fullOrder[0]], c.fullOrder[1:]
	if s.seed >= 0 {
		seedPat, order = c.bodyPos[s.seed], c.seeded[s.seed]
	}
	var added []int
	for _, fact := range s.cands[s.lo:s.hi] {
		if !poll() {
			break
		}
		ev.reset()
		added = added[:0]
		if !seedPat.matchInto(fact, ev, &added) {
			continue
		}
		if !matchPatterns(e.inst, c.bodyPos, order, ev, emit) {
			break
		}
	}
	return retErr
}

// enumerate runs phase one of the round for one rule, inline or on a worker
// pool, and returns the shards with their buffers filled. On a context
// abort the first worker error wins and no shard output is applied.
func (e *engine) enumerate(c *compiledRule, delta map[string][]datalog.Atom, ruleSpan *obs.Span) ([]*shard, error) {
	shards := e.buildShards(c, delta)
	if len(shards) == 0 {
		return nil, nil
	}
	total := 0
	for _, s := range shards {
		total += s.hi - s.lo
	}
	workers := e.opts.Parallelism
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 || total < parallelThreshold {
		for _, s := range shards {
			if err := e.enumShard(c, s, nil); err != nil {
				return nil, e.abort(err, 0, 0)
			}
		}
		return shards, nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			e.opts.Progress.workerStart()
			defer e.opts.Progress.workerEnd()
			var wspan *obs.Span
			if ruleSpan != nil {
				wspan = ruleSpan.Span("chase.worker", obs.F("worker", worker))
			}
			done, found := 0, 0
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) || stop.Load() {
					break
				}
				s := shards[i]
				if err := e.enumShard(c, s, &stop); err != nil {
					if err != errShardStopped {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
					stop.Store(true)
					break
				}
				done++
				found += s.buf.n
			}
			wspan.End(obs.F("shards", done), obs.F("triggers", found))
			if o := e.opts.Obs; o != nil {
				o.Count(obs.WorkerMetric("chase.worker.shards", worker), int64(done))
				o.Count(obs.WorkerMetric("chase.worker.triggers", worker), int64(found))
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, e.abort(firstErr, 0, 0)
	}
	if o := e.opts.Obs; o != nil {
		o.Count("chase.parallel.rule_rounds", 1)
		o.Count("chase.parallel.shards", int64(len(shards)))
	}
	return shards, nil
}

// apply replays the shard buffers in canonical order on the calling
// goroutine: phase two of the round. dedup enables the cross-seed
// deduplication of semi-naive matching (a trigger whose body holds two
// delta facts is enumerated once per seed position).
func (e *engine) apply(c *compiledRule, rs *RuleStats, shards []*shard, dedup bool) error {
	if len(shards) == 0 {
		return nil
	}
	var seen map[string]struct{}
	if dedup && len(c.bodyPos) > 1 {
		seen = make(map[string]struct{})
	}
	ev := newEnv(len(c.st.vars))
	for _, s := range shards {
		for i := 0; i < s.buf.n; i++ {
			s.buf.load(i, c.bodySlots, ev)
			if seen != nil {
				// The probe converts in place; only a new key is copied.
				e.keyBuf = appendBindingKey(e.keyBuf[:0], ev, c.bodySlots)
				if _, dup := seen[string(e.keyBuf)]; dup {
					continue
				}
				seen[string(e.keyBuf)] = struct{}{}
			}
			rs.TriggersAttempted++
			// Cancellation is polled inside the apply loop (not just per
			// round/rule) so a canceled query stops within milliseconds even
			// when a single round is huge; the counter keeps the common path
			// to one increment and a mask.
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
	}
	return nil
}
