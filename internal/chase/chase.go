package chase

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

// Options bound the chase. The zero value selects the defaults below.
type Options struct {
	// MaxDepth caps the nesting depth of invented nulls: a null invented
	// from a trigger whose frontier contains nulls of depth d gets depth
	// d+1; triggers that would exceed MaxDepth are skipped and the result
	// is marked DepthTruncated. Default 12.
	MaxDepth int
	// MaxFacts aborts the chase with an error when the instance grows
	// beyond this many atoms. Default 4,000,000.
	MaxFacts int
	// MaxRounds aborts the chase with an error after this many semi-naive
	// rounds. Default 1,000,000.
	MaxRounds int
	// NaiveEvaluation disables the semi-naive delta restriction, re-matching
	// every rule against the full instance each round: results are identical,
	// only slower. No flag or wire field sets it; it stays because it is the
	// reference engine TestDifferentialEngines compares the semi-naive one
	// against.
	NaiveEvaluation bool
	// Parallelism is ignored: the chase is sequential. Declared only because
	// benchmark/layers.go sets it (to 1); delete with ROADMAP item 1(a).
	Parallelism int
	// Obs attaches the observability layer: when non-nil the engine emits
	// chase.run / chase.round / chase.rule spans and registry counters. A nil
	// Obs (the default) adds no tracing work and no I/O.
	Obs *obs.Obs
	// Progress, when non-nil, receives lock-free live counters (current
	// round, instance size, triggers fired) that an operator endpoint can
	// sample while the run is in flight. It never affects evaluation.
	Progress *Progress
	// Parent optionally nests the chase.run span under an enclosing span
	// (e.g. the iterative-deepening driver). Ignored when Obs is nil.
	Parent *obs.Span
	// Faults arms a per-evaluation fault-injection plan checked at the
	// chase.round and chase.rule sites (the process-global TRIQ_FAULTS plan
	// is always consulted too). Nil disables per-evaluation injection.
	Faults *limits.Plan
}

// WithDefaults returns the options with every zero field replaced by its
// default; the materialization layer uses it to compare a query's effective
// bounds against its own.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 12
	}
	if o.MaxFacts == 0 {
		o.MaxFacts = 4_000_000
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 1_000_000
	}
	return o
}

// Stats reports what the chase did.
type Stats struct {
	Rounds         int
	TriggersFired  int
	FactsDerived   int
	NullsInvented  int
	DepthTruncated bool
	// PerRule breaks the run down by rule, in stratum evaluation order.
	PerRule []RuleStats
	// Deepening lists the depth steps of the iterative-deepening evaluation
	// that produced these stats (see StableGround); nil for a plain Run.
	Deepening []DeepenStep
}

// RuleStats is the per-rule slice of a chase run. A trigger is "attempted"
// when the positive body matched (before the negation check and duplicate
// suppression in fire); it is "fired" when it derived at least one new fact.
type RuleStats struct {
	// Index is the rule's position in stratum evaluation order (which may
	// differ from source order when the program is stratified).
	Index int
	// Rule is the rule's source rendering.
	Rule string
	// Origin is the rule's provenance label (datalog.Rule.Provenance): for
	// translated SPARQL queries, the operator that emitted the rule. Empty
	// for hand-written rules.
	Origin            string
	TriggersAttempted int
	TriggersFired     int
	FactsDerived      int
	NullsInvented     int
	// Time is the cumulative wall-clock time spent matching and firing the
	// rule across all rounds.
	Time time.Duration
}

// TopRule returns the rule with the largest cumulative time, or nil when no
// per-rule breakdown was collected.
func (s Stats) TopRule() *RuleStats {
	var top *RuleStats
	for i := range s.PerRule {
		if top == nil || s.PerRule[i].Time > top.Time {
			top = &s.PerRule[i]
		}
	}
	return top
}

// String renders the stats with the per-rule breakdown as a human-readable
// table; it backs the CLI -metrics flag.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chase: %d rounds, %d triggers fired, %d facts derived, %d nulls invented",
		s.Rounds, s.TriggersFired, s.FactsDerived, s.NullsInvented)
	if s.DepthTruncated {
		b.WriteString(" (depth-truncated)")
	}
	b.WriteByte('\n')
	if len(s.PerRule) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-5s %9s %9s %9s %7s %10s  %s\n",
		"rule", "attempted", "fired", "facts", "nulls", "time", "definition")
	for _, r := range s.PerRule {
		def := r.Rule
		if len([]rune(def)) > 60 {
			def = string([]rune(def)[:57]) + "..."
		}
		fmt.Fprintf(&b, "#%-4d %9d %9d %9d %7d %10s  %s\n",
			r.Index, r.TriggersAttempted, r.TriggersFired, r.FactsDerived,
			r.NullsInvented, obs.FormatDuration(r.Time), def)
	}
	return b.String()
}

// Result is the outcome of evaluating a program over a database.
type Result struct {
	// Instance is Π(D) (up to the depth bound), or the state reached when
	// an inconsistency was detected.
	Instance *Instance
	// Inconsistent is true when some constraint fired: Π(D) = ⊤.
	Inconsistent bool
	Stats        Stats
}

// compiledRule is a rule lowered to slot-indexed patterns with precomputed
// join orders (one per semi-naive seed position, plus the unseeded order).
type compiledRule struct {
	rule      datalog.Rule
	idx       int
	st        *slotTable
	bodyPos   []pattern
	bodyNeg   []pattern
	heads     []pattern
	bodySlots int   // slots of body variables; existential slots follow
	exSlots   []int // environment slots of the existential variables
	exNames   []string
	frontier  []int // body slots propagated to the head
	fullOrder []int
	seeded    [][]int // seeded[j]: order of the remaining atoms when atom j matched delta
}

func compileRule(r datalog.Rule, idx int) *compiledRule {
	c := &compiledRule{rule: r, idx: idx, st: newSlotTable()}
	for _, a := range r.BodyPos {
		c.bodyPos = append(c.bodyPos, compileAtom(a, c.st))
	}
	for _, a := range r.BodyNeg {
		c.bodyNeg = append(c.bodyNeg, compileAtom(a, c.st))
	}
	c.bodySlots = len(c.st.vars)
	for _, h := range r.Head {
		c.heads = append(c.heads, compileAtom(h, c.st))
	}
	for s := c.bodySlots; s < len(c.st.vars); s++ {
		c.exSlots = append(c.exSlots, s)
		c.exNames = append(c.exNames, c.st.vars[s].Name)
	}
	frontierSeen := make(map[int]bool)
	for _, h := range c.heads {
		for _, a := range h.args {
			if a.slot >= 0 && a.slot < c.bodySlots && !frontierSeen[a.slot] {
				frontierSeen[a.slot] = true
				c.frontier = append(c.frontier, a.slot)
			}
		}
	}
	c.fullOrder = orderPatterns(c.bodyPos, nil, -1)
	c.seeded = make([][]int, len(c.bodyPos))
	for j := range c.bodyPos {
		c.seeded[j] = orderPatterns(c.bodyPos, &c.bodyPos[j], j)
	}
	return c
}

// engine holds the mutable chase state shared across strata and, when the
// depth bound is raised between steps, across steps.
type engine struct {
	ctx         context.Context
	opts        Options
	inst        *Instance
	strata      []*stratum
	constraints []datalog.Constraint
	depth       map[uint32]int    // null id → invention depth
	skolem      map[string]uint32 // skolem key (skolemKeyFor) → null id
	nextNull    int
	deepest     int // the largest invention depth of any null
	stats       Stats
	ground      int          // constant-only facts derived: how far Π(D)↓ has grown
	perRule     []*RuleStats // one entry per rule, across strata
	cur         *RuleStats   // the rule currently being matched/fired
	park        *triggerBuf  // where fire parks a trigger of that rule the depth bound blocks
	found       triggerBuf   // the triggers enumerate found in that rule's turn, reused across turns
	span        *obs.Span    // the current step's chase.run span (nil when tracing is off)
	start       time.Time
	tick        int       // trigger-attempt counter gating the in-round ctx checks
	ruleLabels  bool      // attach per-rule pprof labels (recording traces only)
	seen        *relation // apply's dedup set, reused across turns
	keyBuf      []byte    // scratch for the fact keys Incremental probes its sets with
	skBuf       []byte    // scratch for the Skolem keys fire probes its table with
	row         []uint32  // scratch for a row fire or apply writes
	// closeKind is set while the closing pass runs (see close.go), to the kind of
	// Skolem key its rung gives summary nulls: fire closes a trigger the depth
	// bound blocks with one instead of parking it, and gives up at the first
	// constant-only fact — unless collect is set, and the pass runs on to its
	// fixpoint (OpenGoals). closeKeys are the Skolem keys the pass has added to
	// the table, which restore takes out again. coarseFailed says rung 1 has been
	// undone on this engine, so later passes start at rung 2.
	closeKind    byte
	collect      bool
	closeKeys    []string
	coarseFailed bool
}

// stratum is the resumable state of one stratum: what chaseStratum needs to
// continue from its last fixpoint once the depth bound has been raised.
type stratum struct {
	comp   []*compiledRule
	stats  []*RuleStats
	parked []triggerBuf // per rule, the triggers the depth bound blocked
	// Own-layer buckets only grow, so "the facts the stratum has not matched
	// yet" needs no instance of its own: per positive body predicate it is the
	// tail its bucket has grown since the stratum's latest round started.
	bodyPreds []string
	started   map[string]int
	// negPreds are the predicates the stratum negates, negLens their bucket
	// lengths when it last reached its fixpoint (see errNegatedGrew).
	negPreds []string
	negLens  []int
	ran      bool // the first round, which matches the whole instance, has run
}

// errNegatedGrew is step's verdict on an engine it cannot resume: raising the
// depth bound let a lower stratum add facts to a predicate that a stratum which
// already ran negates, so facts that stratum derived may no longer hold. The
// chase is not monotone there; the caller starts over with a new engine.
var errNegatedGrew = errors.New("chase: a negated predicate grew under a finished stratum")

// snapshotStats copies the cumulative counters plus the per-rule breakdown;
// it is used on both the success and the abort path so a truncated run still
// reports what it did.
func (e *engine) snapshotStats() Stats {
	s := e.stats
	for _, rs := range e.perRule {
		s.PerRule = append(s.PerRule, *rs)
	}
	return s
}

// abort builds a typed limits error for the tripped limit, attaching the
// Truncation report (progress counters and per-rule stats) and emitting the
// limits.aborted observability event.
func (e *engine) abort(kind error, budget, reached int64) error {
	return e.fail(limits.NewError(kind, limits.Truncation{Budget: budget, Reached: reached}))
}

// interrupted returns a typed abort when the context has been canceled or
// its deadline passed, nil otherwise.
func (e *engine) interrupted() error {
	if kind := limits.CtxKind(e.ctx); kind != nil {
		return e.abort(kind, 0, 0)
	}
	return nil
}

// fail decorates a typed limits error (including injected faults) with the
// engine's progress and emits the limits.aborted event. Non-limits errors
// pass through untouched.
func (e *engine) fail(err error) error {
	tr, ok := limits.TruncationOf(err)
	if !ok {
		return err
	}
	tr.Rounds = e.stats.Rounds
	tr.Facts = e.inst.Len()
	tr.Elapsed = time.Since(e.start)
	for _, rs := range e.perRule {
		tr.PerRule = append(tr.PerRule, limits.RuleStat{
			Index: rs.Index, Rule: rs.Rule,
			TriggersAttempted: rs.TriggersAttempted,
			TriggersFired:     rs.TriggersFired,
			FactsDerived:      rs.FactsDerived,
		})
	}
	if e.opts.Obs != nil {
		e.opts.Obs.Event("limits.aborted",
			obs.F("limit", tr.Limit),
			obs.F("rounds", tr.Rounds),
			obs.F("facts", tr.Facts))
		e.opts.Obs.Count("limits.aborted", 1)
	}
	return err
}

// newRuleStats registers a per-rule stats slot in evaluation order.
func (e *engine) newRuleStats(r datalog.Rule) *RuleStats {
	rs := &RuleStats{Index: len(e.perRule), Rule: r.String(), Origin: r.Provenance}
	e.perRule = append(e.perRule, rs)
	return rs
}

// newEngine starts a run that chases into inst. A query hands it a layer over
// its database: the run appends to that layer and never writes the database,
// which any number of concurrent runs may share.
func newEngine(ctx context.Context, inst *Instance, opts Options) *engine {
	// A null of the database has depth 0, which is what depth answers for an
	// id it does not hold.
	return &engine{
		ctx:    ctx,
		opts:   opts,
		inst:   inst,
		depth:  make(map[uint32]int),
		skolem: make(map[string]uint32),
		start:  time.Now(),
	}
}

// prepare validates, stratifies and compiles the program and returns an engine
// that will chase into inst and has not chased anything yet; opts must carry
// its defaults.
func prepare(ctx context.Context, inst *Instance, prog *datalog.Program, opts Options) (*engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	// Stratified evaluation needs single-head rules when a multi-head rule
	// spans strata; normalizing unconditionally keeps the engine simple.
	work := prog
	if prog.HasNegation() {
		for _, r := range prog.Rules {
			if len(r.Head) > 1 {
				work = datalog.SingleHead(prog)
				break
			}
		}
	}
	strat, err := datalog.Stratify(work)
	if err != nil {
		return nil, err
	}
	strata, err := strat.Strata(work)
	if err != nil {
		return nil, err
	}
	e := newEngine(ctx, inst, opts)
	e.constraints = work.Constraints
	// Per-rule pprof labels let CPU profiles attribute chase work to rules
	// (and, via the request labels already on ctx, to trace ids). The extra
	// label swap per rule turn is only paid when the request is actually
	// being traced.
	e.ruleLabels = obs.RecordingTrace(ctx)
	for _, rules := range strata {
		if len(rules) > 0 {
			e.strata = append(e.strata, e.newStratum(rules))
		}
	}
	opts.Obs.Count("chase.runs", 1)
	return e, nil
}

// newStratum compiles one stratum's rules and registers their stats slots.
func (e *engine) newStratum(rules []datalog.Rule) *stratum {
	s := &stratum{
		comp:    make([]*compiledRule, len(rules)),
		stats:   make([]*RuleStats, len(rules)),
		parked:  make([]triggerBuf, len(rules)),
		started: make(map[string]int),
	}
	for i, r := range rules {
		// The index names the rule in its Skolem keys, so it counts across
		// the program: two strata must never share a key, or a null.
		rs := e.newRuleStats(r)
		c := compileRule(r, rs.Index)
		s.comp[i], s.stats[i] = c, rs
		for _, p := range c.bodyPos {
			if _, dup := s.started[p.pred]; !dup {
				s.started[p.pred] = 0
				s.bodyPreds = append(s.bodyPreds, p.pred)
			}
		}
		for _, p := range c.bodyNeg {
			if !slices.Contains(s.negPreds, p.pred) {
				s.negPreds = append(s.negPreds, p.pred)
			}
		}
	}
	s.negLens = make([]int, len(s.negPreds))
	return s
}

// parkedTriggers counts the triggers the depth bound currently blocks.
func (e *engine) parkedTriggers() int {
	n := 0
	for _, s := range e.strata {
		for i := range s.parked {
			n += s.parked[i].n
		}
	}
	return n
}

// freshNull returns the id of the null the Skolem key names, inventing it, at
// depth d, on first sight.
func (e *engine) freshNull(key []byte, d int) uint32 {
	if id, ok := e.skolem[string(key)]; ok {
		return id
	}
	id, _ := e.inst.termOf(datalog.N("n"+strconv.Itoa(e.nextNull)), true)
	e.nextNull++
	k := string(key)
	e.skolem[k] = id
	e.depth[id] = d
	if e.closeKind != 0 {
		e.closeKeys = append(e.closeKeys, k)
	}
	e.deepest = max(e.deepest, d)
	e.stats.NullsInvented++
	if e.cur != nil {
		e.cur.NullsInvented++
	}
	return id
}

// chaseStratum exhaustively applies one stratum's rules to the engine
// instance. Negated atoms are evaluated against the current instance,
// which is correct under stratification: their predicates belong to lower
// strata and are already final.
//
// Each rule's turn within a round runs in two phases (see triggers.go):
// enumerate matches the rule against the instance as of the start of its
// turn, then apply fires the buffered triggers in canonical order. Rules
// earlier in the round feed the instance that later rules enumerate against,
// and the round reaches its fixpoint when no rule derives a new fact.
//
// A stratum that already reached a fixpoint under a lower depth bound resumes
// instead of starting over: in its first round every rule first re-fires the
// triggers that bound blocked, then matches semi-naively against whatever its
// body predicates gained since it last looked.
func (e *engine) chaseStratum(s *stratum) error {
	// The closing pass asks for less: it runs under grounded negation only, a
	// negated atom then sees constants, and the pass ends at the first
	// constant-only fact anyway.
	if s.ran && e.closeKind == 0 {
		for i, p := range s.negPreds {
			if e.inst.ownLen(p) != s.negLens[i] {
				return errNegatedGrew
			}
		}
	}
	lastRoundFacts := 0
	for round := 0; ; round++ {
		if round > e.opts.MaxRounds {
			return e.abort(limits.ErrRoundBudget, int64(e.opts.MaxRounds), int64(round))
		}
		if err := limits.Hit(e.opts.Faults, "chase.round"); err != nil {
			return e.fail(err)
		}
		if err := e.interrupted(); err != nil {
			return err
		}
		e.stats.Rounds++
		e.opts.Progress.setRound(int64(e.stats.Rounds), int64(e.inst.Len()))
		var delta map[string]rowSet // nil = match everything: the stratum's first round
		if s.ran && !e.opts.NaiveEvaluation {
			delta = make(map[string]rowSet, len(s.bodyPreds))
		}
		for _, p := range s.bodyPreds {
			n := e.inst.ownLen(p)
			if delta != nil && n > s.started[p] {
				pid, _ := e.inst.predOf(p, false)
				delta[p] = rowSet{rel: e.inst.rel(pid), lo: s.started[p], n: n - s.started[p]}
			}
			s.started[p] = n
		}
		s.ran = true
		var roundSpan *obs.Span
		if e.span != nil {
			deltaSize := e.inst.Len()
			if delta != nil {
				deltaSize = lastRoundFacts
				if round == 0 { // resumed: what the strata below added since
					for _, d := range delta {
						deltaSize += d.n
					}
				}
			}
			roundSpan = e.span.Span("chase.round",
				obs.F("round", e.stats.Rounds),
				obs.F("delta", deltaSize),
				obs.F("instance", e.inst.Len()))
		}
		roundFacts := e.stats.FactsDerived
		for ci, c := range s.comp {
			rs, parked := s.stats[ci], &s.parked[ci]
			var ruleSpan *obs.Span
			if roundSpan != nil {
				joinOrder := "seeded(delta)"
				if delta == nil {
					joinOrder = fmt.Sprint(c.fullOrder)
				}
				ruleSpan = roundSpan.Span("chase.rule",
					obs.F("rule", rs.Index),
					obs.F("pred", c.rule.Head[0].Pred),
					obs.F("join_order", joinOrder))
			}
			before := *rs
			t0 := time.Now()
			var fireErr error
			ruleTurn := func() {
				if err := limits.Hit(e.opts.Faults, "chase.rule"); err != nil {
					fireErr = e.fail(err)
				} else if err := e.interrupted(); err != nil {
					fireErr = err
				}
				if fireErr == nil {
					fireErr = e.enumerate(c, delta, &e.found)
				}
				if fireErr == nil {
					e.cur, e.park = rs, parked
					if round == 0 && parked.n > 0 {
						fireErr = e.refire(c, parked)
					}
					if fireErr == nil {
						fireErr = e.apply(c, rs, &e.found, delta != nil)
					}
					e.cur, e.park = nil, nil
				}
			}
			if e.ruleLabels {
				// CPU samples of traced requests attribute to the rule
				// (alongside the request-level trace_id label on ctx).
				pprof.Do(e.ctx, pprof.Labels("rule", c.rule.Head[0].Pred), func(context.Context) { ruleTurn() })
			} else {
				ruleTurn()
			}
			rs.Time += time.Since(t0)
			e.opts.Progress.addTriggers(int64(rs.TriggersFired - before.TriggersFired))
			e.opts.Progress.setFacts(int64(e.inst.Len()))
			ruleSpan.End(
				obs.F("attempted", rs.TriggersAttempted-before.TriggersAttempted),
				obs.F("fired", rs.TriggersFired-before.TriggersFired),
				obs.F("facts", rs.FactsDerived-before.FactsDerived),
				obs.F("nulls", rs.NullsInvented-before.NullsInvented))
			if fireErr != nil {
				roundSpan.End(obs.F("error", true))
				return fireErr
			}
		}
		lastRoundFacts = e.stats.FactsDerived - roundFacts
		roundSpan.End(
			obs.F("facts", lastRoundFacts),
			obs.F("next_delta", lastRoundFacts))
		if lastRoundFacts == 0 {
			for i, p := range s.negPreds {
				s.negLens[i] = e.inst.ownLen(p)
			}
			return nil
		}
	}
}

// fire applies one trigger, adding the head atoms that are new: it writes
// each head's row from the environment and the head's resolved constants.
func (e *engine) fire(c *compiledRule, ev env) error {
	if len(c.exSlots) > 0 {
		// Depth control for null invention.
		d, kind := 1, chaseKey
		for _, s := range c.frontier {
			if id := ev[s]; s < c.bodySlots && id != unbound && e.inst.term(id).IsNull() {
				d = max(d, e.depth[id]+1)
			}
		}
		if d > e.opts.MaxDepth {
			if !e.stats.DepthTruncated && e.opts.Obs != nil {
				e.opts.Obs.Event("chase.truncated", obs.F("depth", e.opts.MaxDepth))
			}
			e.stats.DepthTruncated = true
			if e.closeKind == 0 {
				// Park the trigger for a step with a higher bound. Naive
				// evaluation re-matches everything each round and finds it again.
				if !e.opts.NaiveEvaluation {
					e.park.push(ev, c.bodySlots)
				}
				return nil
			}
			// The closing pass satisfies the head with summary nulls, which sit
			// at the bound: a trigger with one in its frontier closes this way too.
			d, kind = e.opts.MaxDepth, e.closeKind
		}
		for k, s := range c.exSlots {
			e.skBuf = e.skolemKeyFor(e.skBuf[:0], c, k, ev, kind)
			ev[s] = e.freshNull(e.skBuf, d)
		}
		defer ev[c.bodySlots:].reset()
	}
	added, overBudget := 0, false
	for hi := range c.heads {
		h := &c.heads[hi]
		e.row = h.fill(e.row[:0], ev)
		// The fact budget is enforced per insertion, not per trigger or per
		// round, so the instance never overshoots MaxFacts: an insertion that
		// would exceed the cap aborts before it happens. (The probe runs
		// only at the boundary, so the common path pays nothing.)
		if e.inst.Len() >= e.opts.MaxFacts && !e.inst.hasRow(h.pid, e.row) {
			overBudget = true
			break
		}
		if e.inst.addRow(h.pid, e.row) {
			e.stats.FactsDerived++
			if e.inst.constRow(e.row) {
				e.ground++
				if e.closeKind != 0 && !e.collect {
					return errNotClosed
				}
			}
			if e.cur != nil {
				e.cur.FactsDerived++
			}
			added++
		}
	}
	if added > 0 {
		e.stats.TriggersFired++
		if e.cur != nil {
			e.cur.TriggersFired++
		}
	}
	if overBudget {
		return e.abort(limits.ErrFactBudget, int64(e.opts.MaxFacts), int64(e.inst.Len()))
	}
	return nil
}

// refire replays the triggers of rule c that a lower depth bound blocked, in
// the order they were parked; fire parks the ones that are still too deep.
// They passed the negation check when they were enumerated, and a resumed
// stratum's negated predicates have not changed since (errNegatedGrew).
func (e *engine) refire(c *compiledRule, parked *triggerBuf) error {
	buf := *parked
	*parked = triggerBuf{}
	resolveAll(c.heads, e.inst, true)
	ev := newEnv(len(c.st.vars))
	for i := 0; i < buf.n; i++ {
		if e.tick++; e.tick&63 == 0 {
			if err := e.interrupted(); err != nil {
				return err
			}
		}
		buf.load(i, c.bodySlots, ev)
		if err := e.fire(c, ev); err != nil {
			return err
		}
	}
	return nil
}

// skolemKeyFor appends to buf the Skolem-function key of one existential
// variable under a frontier binding: the kind, the rule and the variable, then
// the frontier's term ids. It depends only on the rule and the environment:
// the same trigger always maps to the same key and therefore, through the
// engine's Skolem table, to the same null, also when maintenance derives it
// again after a delete.
//
// The two other kinds are what the closing pass (close.go) uses in its place
// where the depth bound blocks. A summary key keeps the frontier's constants and
// erases its nulls, so all triggers of the rule that differ only in nulls share
// one summary null; a coarse key erases the constants too and keeps only which
// frontier positions hold one, so all triggers of the rule that agree on that
// share one. The kind is the key's prefix, which keeps the kinds apart.
func (e *engine) skolemKeyFor(buf []byte, c *compiledRule, exIdx int, ev env, kind byte) []byte {
	buf = append(buf, kind)
	buf = strconv.AppendInt(buf, int64(c.idx), 10)
	buf = append(buf, '|')
	buf = append(buf, c.exNames[exIdx]...)
	buf = append(buf, '|')
	for _, s := range c.frontier {
		id := ev[s]
		if id != unbound && kind != chaseKey {
			switch null := e.inst.term(id).IsNull(); {
			case null:
				id = nullMark
			case kind == coarseKey:
				id = constMark
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf
}

// nullKeys returns the null name → Skolem key table with each key rendered
// as text, its frontier ids as kind digit and, where the key keeps it, name.
func (e *engine) nullKeys() map[string]string {
	out := make(map[string]string, len(e.skolem))
	for key, id := range e.skolem {
		head := strings.IndexByte(key, '|')
		head += 1 + strings.IndexByte(key[head+1:], '|')
		var b strings.Builder
		b.WriteString(key[:head])
		for rest := key[head+1:]; len(rest) >= 4; rest = rest[4:] {
			b.WriteByte('|')
			switch v := binary.LittleEndian.Uint32([]byte(rest[:4])); v {
			case unbound:
			case nullMark:
				b.WriteByte('0' + byte(datalog.Null))
			case constMark:
				b.WriteByte('0' + byte(datalog.Const))
			default:
				t := e.inst.term(v)
				b.WriteByte('0' + byte(t.Kind))
				b.WriteString(t.Name)
			}
		}
		out[e.inst.term(id).Name] = b.String()
	}
	return out
}

// The kinds of Skolem key skolemKeyFor renders.
const (
	chaseKey   byte = 'r' // the whole frontier binding: a trigger the bound admits
	summaryKey byte = 'c' // the frontier's constants: rung 2 of the closing pass
	coarseKey  byte = 's' // the frontier's shape alone: rung 1
)

// Run evaluates a Datalog^{∃,¬s,⊥} program over a database following the
// stratified semantics of Section 3.2: S_0 = chase(D, Π_0),
// S_i = chase(S_{i-1}, (Π_i)^{S_{i-1}}), then constraints are checked on
// S_ℓ. The result is Π(D) (Result.Inconsistent true encodes ⊤).
func Run(db *Instance, prog *datalog.Program, opts Options) (*Result, error) {
	return RunCtx(context.Background(), db, prog, opts)
}

// RunCtx is Run under a context: cancellation and deadlines are honored at
// round, rule, and (every few dozen) trigger granularity, so a canceled
// chase stops within milliseconds rather than at the next round boundary.
// When the run is cut short by a limit — a canceled/expired context, the
// fact or round budget, or an injected fault — RunCtx returns BOTH a
// non-nil *Result snapshotting the instance and stats reached so far AND a
// typed limits error carrying the Truncation report; for positive programs
// that partial instance is a sound under-approximation of Π(D), which is
// what the graceful-degradation paths upstream rely on.
func RunCtx(ctx context.Context, db *Instance, prog *datalog.Program, opts Options) (*Result, error) {
	e, err := prepare(ctx, db.Overlay(), prog, opts.withDefaults())
	if err != nil {
		return nil, err
	}
	// Snapshot rather than discard on an abort: the caller gets the instance
	// and stats reached alongside the typed error.
	inconsistent, err := e.step()
	return &Result{Instance: e.inst, Inconsistent: inconsistent, Stats: e.snapshotStats()}, err
}

// step chases every stratum to its fixpoint under the current
// e.opts.MaxDepth and checks the constraints. On a new engine that is the
// whole run; after the bound has been raised it continues from the previous
// step's instance (see chaseStratum) and fails with errNegatedGrew where it
// cannot: the strata below the negation have then already run under the new
// bound, and nothing they added is the caller's to keep. The registry counters
// receive what this step added, that failed step's part included, so over an
// engine's life they sum to its Stats — and over an evaluation that abandoned
// an engine, to more than the Stats of the engine that replaced it.
func (e *engine) step() (inconsistent bool, err error) {
	opts, before := e.opts, e.stats
	e.stats.DepthTruncated = false
	opts.Progress.runStart()
	defer opts.Progress.runEnd()
	if opts.Obs != nil || e.ruleLabels {
		if opts.Parent != nil {
			e.span = opts.Parent.Span("chase.run")
		} else {
			_, e.span = obs.StartSpan(e.ctx, opts.Obs, "chase.run")
		}
		e.span.Attr("rules", len(e.perRule))
		e.span.Attr("strata", len(e.strata))
		e.span.Attr("db_facts", e.inst.Len()-e.stats.FactsDerived)
		defer func() {
			rounds, fired := e.stats.Rounds-before.Rounds, e.stats.TriggersFired-before.TriggersFired
			facts, nulls := e.stats.FactsDerived-before.FactsDerived, e.stats.NullsInvented-before.NullsInvented
			e.span.End(
				obs.F("rounds", rounds),
				obs.F("triggers_fired", fired),
				obs.F("facts_derived", facts),
				obs.F("nulls_invented", nulls),
				obs.F("depth_truncated", e.stats.DepthTruncated))
			opts.Obs.Count("chase.rounds", int64(rounds))
			opts.Obs.Count("chase.triggers_fired", int64(fired))
			opts.Obs.Count("chase.facts_derived", int64(facts))
			opts.Obs.Count("chase.nulls_invented", int64(nulls))
		}()
	}
	for _, s := range e.strata {
		if err := e.chaseStratum(s); err != nil {
			return false, err
		}
	}
	for _, c := range e.constraints {
		if holds(e.inst, c.Body) {
			return true, nil
		}
	}
	return false, nil
}

// Answers is the evaluation Q(D) of a query: either ⊤ (Inconsistent) or the
// set of constant tuples of the output predicate.
type Answers struct {
	Inconsistent bool
	Tuples       [][]datalog.Term
}

// Has reports whether the tuple is among the answers.
func (a *Answers) Has(tuple ...datalog.Term) bool {
	for _, t := range a.Tuples {
		if len(t) != len(tuple) {
			continue
		}
		eq := true
		for i := range t {
			if t[i] != tuple[i] {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
	}
	return false
}

// HasConstants is Has over constant names.
func (a *Answers) HasConstants(names ...string) bool {
	tuple := make([]datalog.Term, len(names))
	for i, n := range names {
		tuple[i] = datalog.C(n)
	}
	return a.Has(tuple...)
}

// Answer evaluates the query Q = (Π, p) over the database: Q(D) = ⊤ when D is
// inconsistent w.r.t. Π, and otherwise the set of constant tuples t with
// p(t) ∈ Π(D), sorted canonically.
func Answer(db *Instance, q datalog.Query, opts Options) (*Answers, error) {
	return AnswerCtx(context.Background(), db, q, opts)
}

// AnswerCtx is Answer under a context. When the run aborts on a limit it
// returns the (sound, for positive programs) partial answer set reached so
// far together with the typed limits error, mirroring RunCtx.
func AnswerCtx(ctx context.Context, db *Instance, q datalog.Query, opts Options) (*Answers, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	res, err := RunCtx(ctx, db, q.Program, opts)
	if err != nil {
		if res == nil {
			return nil, err
		}
		return collectAnswers(res.Instance, q.Output), err
	}
	if res.Inconsistent {
		return &Answers{Inconsistent: true}, nil
	}
	return collectAnswers(res.Instance, q.Output), nil
}

func collectAnswers(inst *Instance, output string) *Answers {
	ans := &Answers{}
	atoms := append([]datalog.Atom(nil), inst.AtomsOf(output)...)
	datalog.SortAtoms(atoms)
	for _, a := range atoms {
		if a.IsConstantGround() {
			ans.Tuples = append(ans.Tuples, a.Args)
		}
	}
	return ans
}
