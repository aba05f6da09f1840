package triq

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

// This file implements the ProofTree algorithm of Section 6.3: a top-down
// decision procedure for the question "is the ground atom p(t) in Π(D)?" for
// a warded Datalog^∃ program Π, positive but for grounded negation of database
// predicates (see Prover). Per Lemma 6.12 this is equivalent
// to the existence of a proof-tree (Definition 6.11), which the procedure
// searches for by resolution over *components*: sets of atoms glued by
// labeled nulls whose invention point is not yet known. The paper runs the
// components in parallel universal branches of an alternating machine; this
// implementation explores them recursively with memoization of successful
// canonicalized states (alternating reachability), which realizes the same
// polynomial state space. Successful resolutions are recorded so that the
// actual proof-tree (as in Figure 1) can be rendered.

// ProofNode is one node of a proof-tree: an atom, the rule that derived it
// (empty for database facts), and the instantiated body atoms as children.
type ProofNode struct {
	Atom     datalog.Atom
	Rule     string
	Children []*ProofNode
}

// Render draws the proof tree as an ASCII tree, root first.
func (n *ProofNode) Render() string {
	var b strings.Builder
	var rec func(node *ProofNode, prefix string, last bool, root bool)
	rec = func(node *ProofNode, prefix string, last bool, root bool) {
		label := node.Atom.String()
		if node.Rule != "" {
			label += "   [" + node.Rule + "]"
		} else {
			label += "   [db]"
		}
		if root {
			b.WriteString(label + "\n")
		} else {
			connector := "├─ "
			if last {
				connector = "└─ "
			}
			b.WriteString(prefix + connector + label + "\n")
		}
		childPrefix := prefix
		if !root {
			if last {
				childPrefix += "   "
			} else {
				childPrefix += "│  "
			}
		}
		for i, c := range node.Children {
			rec(c, childPrefix, i == len(node.Children)-1, false)
		}
	}
	rec(n, "", true, true)
	return b.String()
}

// Size returns the number of nodes in the tree.
func (n *ProofNode) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// ProofOptions bound the proof search.
type ProofOptions struct {
	// MaxVisits caps the number of component expansions (default 2,000,000).
	MaxVisits int
	// Obs attaches the observability layer: when non-nil each ProveCtx emits a
	// prover.prove span with its search-space metrics, the registry gains
	// prover.* counters, and canonicalization time is measured. Nil (the
	// default) disables all of it.
	Obs *obs.Obs
	// Faults arms a per-evaluation fault-injection plan checked at the
	// prover.expand and prover.memo sites (the process-global TRIQ_FAULTS
	// plan is always consulted too). Nil disables per-evaluation injection.
	Faults *limits.Plan
}

// ProofMetrics is the cumulative search-space accounting of a Prover. It
// grows monotonically across ProveCtx calls on the same Prover, so callers
// snapshot it before and after a call to attribute work to one goal.
type ProofMetrics struct {
	// Components counts component states visited (the paper's alternating
	// branches), including memoized and cycle-cut revisits.
	Components int
	// Expansions counts states that needed actual resolution work (i.e.
	// neither a database base case nor a memo hit nor a cycle cut).
	Expansions int
	// MemoHits / MemoMisses count canonical-state memo lookups.
	MemoHits   int
	MemoMisses int
	// Resolutions counts successful head unifications tried during expansion.
	Resolutions int
	// MaxRecursionDepth is the deepest component nesting reached.
	MaxRecursionDepth int
	// FreshNulls counts the fresh labeled nulls allocated by µ-enumeration.
	FreshNulls int
	// CanonTime is the total time spent canonicalizing states; it is only
	// collected when ProofOptions.Obs is set (timing calls are skipped on the
	// disabled path).
	CanonTime time.Duration
	// VisitBudget echoes the effective ProofOptions.MaxVisits limit.
	VisitBudget int
}

// Prover decides membership of ground atoms in Π(D) for a warded Datalog^∃
// program Π whose negated atoms are grounded and read predicates that no rule
// derives. Such a negated atom instantiates to constants only, and its
// predicate's extent is D's, so ¬s(t) holds exactly when s(t) ∉ D: a
// resolution whose instantiated negated atom D holds is dropped. That lookup
// is the membership test of Step 1's complement (Section 6.3) without the
// complement. The exact path (EvalCtx under Options.Exact) gives a program
// that negates a derived predicate this shape by copying that predicate's
// certified extent into D first.
//
// A Prover is safe for concurrent use: ProveCtx calls from multiple
// goroutines serialize on an internal mutex. The search state (the canonical
// memo table, visit counters, the in-flight context) is deliberately shared
// across calls — an exact evaluation decides all its open goals with one
// Prover, and a component state proven for one goal is a memo hit for the
// next — so concurrent searches cannot safely interleave; serializing them
// preserves both safety and the memo benefit. Callers needing parallel
// proof search should build one Prover per goroutine over the shared
// (read-only) database instance.
type Prover struct {
	db     *chase.Instance
	prog   *datalog.Program // normalized for the algorithm
	an     *datalog.Analysis
	rules  []proverRule
	domain []datalog.Term // dom(D) ∪ constants of Π
	opts   ProofOptions

	// mu serializes ProveCtx calls: everything below it is per-call or
	// cross-call mutable state.
	mu     sync.Mutex
	memo   map[string]*memoEntry
	visits int
	fresh  int
	err    error

	m        ProofMetrics // hits/misses/expansions/resolutions/depth/canon
	depthNow int
	timing   bool // collect CanonTime (set when opts.Obs != nil)

	ctx   context.Context // the context of the in-flight ProveCtx, nil between calls
	start time.Time       // start of the in-flight ProveCtx
	tick  int             // µ-enumeration counter gating the ctx checks
}

// fail records a typed abort, decorating its Truncation with the prover's
// progress and counting it in limits.aborted (ProveCtx names the limit on the
// prover.prove span). It returns false so call sites can
// `return nil, pv.fail(err)`-style collapse.
func (pv *Prover) fail(err error) bool {
	if tr, ok := limits.TruncationOf(err); ok {
		tr.Visits = pv.visits
		tr.Elapsed = time.Since(pv.start)
		pv.opts.Obs.Count("limits.aborted", 1)
	}
	pv.err = err
	return false
}

// interrupted aborts the search when the ProveCtx context has been canceled or
// its deadline passed.
func (pv *Prover) interrupted() bool {
	if pv.err != nil {
		return true
	}
	if kind := limits.CtxKind(pv.ctx); kind != nil {
		return !pv.fail(limits.NewError(kind, limits.Truncation{}))
	}
	return false
}

// Metrics snapshots the prover's cumulative search-space accounting. It
// blocks while a ProveCtx call is in flight on another goroutine.
func (pv *Prover) Metrics() ProofMetrics {
	pv.mu.Lock()
	defer pv.mu.Unlock()
	return pv.metricsLocked()
}

// metricsLocked is Metrics for callers already holding pv.mu.
func (pv *Prover) metricsLocked() ProofMetrics {
	m := pv.m
	m.Components = pv.visits
	m.FreshNulls = pv.fresh
	m.VisitBudget = pv.opts.MaxVisits
	return m
}

// memoEntry stores the proof nodes of a successfully proven state with the
// state's nulls renamed to canonical placeholders (#0, #1, …), so the entry
// can be reused by any isomorphic state: on retrieval the placeholders are
// renamed to the requesting state's concrete null names. Children keep
// whatever names they were proven with — they only matter for rendering.
type memoEntry struct {
	nodes []*ProofNode // node atoms use canonical placeholder nulls
}

func renameAtomNulls(a datalog.Atom, ren map[string]string) datalog.Atom {
	out := datalog.Atom{Pred: a.Pred, Args: make([]datalog.Term, len(a.Args))}
	for i, t := range a.Args {
		if t.IsNull() {
			if to, ok := ren[t.Name]; ok {
				out.Args[i] = datalog.N(to)
				continue
			}
		}
		out.Args[i] = t
	}
	return out
}

type proverRule struct {
	rule     datalog.Rule
	head     datalog.Atom
	label    string
	exVar    datalog.Term // zero Term when the rule has no existential
	exPos    int          // head position of the existential occurrence, -1 otherwise
	harmless map[datalog.Term]bool
	unbound  []datalog.Term // body vars not occurring in the head
}

// NewProver validates and normalizes the program (single-head, at most one
// existential occurrence, head-grounded/semi-body-grounded — Section 6.3).
// Negation must be grounded and of database predicates only. Constraints
// become the rules that derive datalog.InconsistencyMarker
// (datalog.ConstraintsAsRules), so ⊤ is decided as the 0-ary goal of that
// predicate.
func NewProver(db *chase.Instance, prog *datalog.Program, opts ProofOptions) (*Prover, error) {
	if derived := prog.NegatedIDB(); len(derived) > 0 {
		return nil, fmt.Errorf("triq: ProofTree reads a negated predicate in the database, but a rule derives %s", derived[0])
	}
	if err := datalog.CheckGroundedNegation(prog); err != nil {
		return nil, err
	}
	if err := datalog.CheckWarded(prog); err != nil {
		return nil, err
	}
	norm, err := datalog.NormalizeForProofTree(datalog.ConstraintsAsRules(prog))
	if err != nil {
		return nil, err
	}
	if opts.MaxVisits == 0 {
		opts.MaxVisits = 2_000_000
	}
	pv := &Prover{
		db:     db,
		prog:   norm,
		an:     datalog.Analyze(norm),
		opts:   opts,
		memo:   make(map[string]*memoEntry),
		timing: opts.Obs != nil,
	}
	// Domain: constants of the database and of the program.
	seen := make(map[datalog.Term]bool)
	for _, c := range db.Constants() {
		seen[c] = true
	}
	for _, r := range norm.Rules {
		for _, a := range append(r.Body(), r.Head...) {
			for _, t := range a.Args {
				if t.IsConst() {
					seen[t] = true
				}
			}
		}
	}
	for t := range seen {
		pv.domain = append(pv.domain, t)
	}
	sort.Slice(pv.domain, func(i, j int) bool { return pv.domain[i].Compare(pv.domain[j]) < 0 })

	for i, r := range norm.Rules {
		pr := proverRule{
			rule:     r,
			head:     r.Head[0],
			label:    fmt.Sprintf("ρ%d: %s", i+1, r.String()),
			exPos:    -1,
			harmless: map[datalog.Term]bool{},
		}
		vc := pv.an.Classify(r)
		for v := range vc.Harmless {
			pr.harmless[v] = true
		}
		if ex := r.ExistentialVars(); len(ex) == 1 {
			pr.exVar = ex[0]
			for j, t := range pr.head.Args {
				if t == ex[0] {
					pr.exPos = j
					break
				}
			}
		} else if len(ex) > 1 {
			return nil, fmt.Errorf("triq: normalization left %d existentials in %v", len(ex), r)
		}
		headVars := map[datalog.Term]bool{}
		for _, v := range r.HeadVars() {
			headVars[v] = true
		}
		for _, v := range r.BodyVars() {
			if !headVars[v] {
				pr.unbound = append(pr.unbound, v)
			}
		}
		pv.rules = append(pv.rules, pr)
	}
	return pv, nil
}

// ProvesCtx reports whether the constant-ground atom is in Π(D): ProveCtx
// without the proof-tree.
func (pv *Prover) ProvesCtx(ctx context.Context, goal datalog.Atom) (bool, error) {
	_, ok, err := pv.ProveCtx(ctx, goal)
	return ok, err
}

// ProveCtx decides membership and returns the proof-tree on success.
// Cancellation and deadlines are checked at every component visit and
// throughout µ-enumeration, so a canceled search stops within one expansion;
// the visit budget aborts with a typed ErrVisitBudget carrying a Truncation
// report.
func (pv *Prover) ProveCtx(ctx context.Context, goal datalog.Atom) (*ProofNode, bool, error) {
	if !goal.IsConstantGround() {
		return nil, false, fmt.Errorf("triq: goal %v must be a constant-ground atom", goal)
	}
	// Serialize concurrent ProveCtx calls: the memo table and counters are
	// shared across calls by design (see the Prover doc comment).
	pv.mu.Lock()
	defer pv.mu.Unlock()
	o := pv.opts.Obs
	before := pv.metricsLocked()
	_, sp := obs.StartSpan(ctx, o, "prover.prove", obs.F("goal", goal.String()))
	pv.err = nil
	pv.ctx = ctx
	pv.start = time.Now()
	defer func() { pv.ctx = nil }()
	nodes, ok := pv.proveComponent([]datalog.Atom{goal}, map[string]datalog.Atom{}, map[string]bool{})
	after := pv.metricsLocked()
	// Bill this proof search's memoization to the request's resource
	// account (no-op without a trace on ctx).
	obs.TraceFrom(ctx).AddProver(int64(after.MemoHits-before.MemoHits), int64(after.MemoMisses-before.MemoMisses))
	if o != nil || sp != nil {
		if tr, ok := limits.TruncationOf(pv.err); ok {
			sp.Attr("limit", tr.Limit)
			sp.Attr("visits", tr.Visits)
		}
		sp.End(
			obs.F("ok", ok && pv.err == nil),
			obs.F("components", after.Components-before.Components),
			obs.F("expansions", after.Expansions-before.Expansions),
			obs.F("memo_hits", after.MemoHits-before.MemoHits),
			obs.F("memo_misses", after.MemoMisses-before.MemoMisses),
			obs.F("resolutions", after.Resolutions-before.Resolutions),
			obs.F("fresh_nulls", after.FreshNulls-before.FreshNulls),
			obs.F("max_recursion_depth", after.MaxRecursionDepth),
			obs.F("canon_us", after.CanonTime.Microseconds()),
			obs.F("visit_budget", after.VisitBudget))
		o.Count("prover.proofs", 1)
		o.Count("prover.components", int64(after.Components-before.Components))
		o.Count("prover.expansions", int64(after.Expansions-before.Expansions))
		o.Count("prover.memo_hits", int64(after.MemoHits-before.MemoHits))
		o.Count("prover.memo_misses", int64(after.MemoMisses-before.MemoMisses))
		o.Count("prover.resolutions", int64(after.Resolutions-before.Resolutions))
		o.Gauge("prover.visit_budget", float64(after.VisitBudget))
		o.Gauge("prover.max_recursion_depth", float64(after.MaxRecursionDepth))
	}
	if pv.err != nil {
		return nil, false, pv.err
	}
	if !ok {
		return nil, false, nil
	}
	return nodes[goal.Key()], true, nil
}

// proveComponent proves every atom of the component S under the invention
// record RS (null name → birth atom; absent = ε). It returns proof nodes per
// atom key.
func (pv *Prover) proveComponent(s []datalog.Atom, rs map[string]datalog.Atom, stack map[string]bool) (map[string]*ProofNode, bool) {
	if pv.err != nil {
		return nil, false
	}
	pv.visits++
	if err := limits.Hit(pv.opts.Faults, "prover.expand"); err != nil {
		pv.fail(err)
		return nil, false
	}
	if pv.interrupted() {
		return nil, false
	}
	if pv.visits > pv.opts.MaxVisits {
		pv.fail(limits.NewError(limits.ErrVisitBudget, limits.Truncation{
			Budget: int64(pv.opts.MaxVisits), Reached: int64(pv.visits),
		}))
		return nil, false
	}
	pv.depthNow++
	defer func() { pv.depthNow-- }()
	if pv.depthNow > pv.m.MaxRecursionDepth {
		pv.m.MaxRecursionDepth = pv.depthNow
	}
	// Base: a single constant atom present in the database (step 1).
	if len(s) == 1 && s[0].IsConstantGround() && pv.db.Has(s[0]) {
		return map[string]*ProofNode{s[0].Key(): {Atom: s[0]}}, true
	}
	var canonStart time.Time
	if pv.timing {
		canonStart = time.Now()
	}
	key, order := canonState(s, rs)
	if pv.timing {
		pv.m.CanonTime += time.Since(canonStart)
	}
	if err := limits.Hit(pv.opts.Faults, "prover.memo"); err != nil {
		pv.fail(err)
		return nil, false
	}
	if e, ok := pv.memo[key]; ok {
		pv.m.MemoHits++
		// Rename the canonical placeholders to this state's null names.
		ren := make(map[string]string, len(order))
		for id, name := range order {
			ren[canonNullName(id)] = name
		}
		out := make(map[string]*ProofNode, len(e.nodes))
		for _, n := range e.nodes {
			atom := renameAtomNulls(n.Atom, ren)
			out[atom.Key()] = &ProofNode{Atom: atom, Rule: n.Rule, Children: n.Children}
		}
		return out, true
	}
	pv.m.MemoMisses++
	if stack[key] {
		// A minimal proof never repeats a state along a branch; treat as
		// failure here without memoizing (the state may succeed elsewhere).
		return nil, false
	}
	stack[key] = true
	defer delete(stack, key)

	pv.m.Expansions++
	nodes, ok := pv.expand(s, rs, stack)
	if ok {
		// Store in canonical form.
		ren := make(map[string]string, len(order))
		for id, name := range order {
			ren[name] = canonNullName(id)
		}
		entry := &memoEntry{}
		for _, n := range nodes {
			entry.nodes = append(entry.nodes, &ProofNode{
				Atom: renameAtomNulls(n.Atom, ren), Rule: n.Rule, Children: n.Children,
			})
		}
		pv.memo[key] = entry
		return nodes, true
	}
	return nil, false
}

func canonNullName(id int) string { return "#" + strconv.Itoa(id) }

// resolution is one atom of the component resolved against a rule.
type resolution struct {
	atom datalog.Atom
	rule *proverRule
	body []datalog.Atom
}

// expand implements steps 2–13: choose a compatible rule and an instantiation
// for every atom of the component, then recurse on the [N]-optimal partition
// of the union of the instantiated bodies.
func (pv *Prover) expand(s []datalog.Atom, rs map[string]datalog.Atom, stack map[string]bool) (map[string]*ProofNode, bool) {
	var chosen []resolution
	var try func(i int, rs map[string]datalog.Atom, freshUsed []datalog.Term) (map[string]*ProofNode, bool)
	try = func(i int, rs map[string]datalog.Atom, freshUsed []datalog.Term) (map[string]*ProofNode, bool) {
		if pv.err != nil {
			return nil, false
		}
		if i == len(s) {
			return pv.finish(s, rs, chosen, stack)
		}
		a := s[i]
		// A constant atom inside a mixed expansion may also be closed by the
		// database directly.
		if a.IsConstantGround() && pv.db.Has(a) {
			chosen = append(chosen, resolution{atom: a})
			res, ok := try(i+1, rs, freshUsed)
			chosen = chosen[:len(chosen)-1]
			if ok {
				return res, true
			}
		}
		for ri := range pv.rules {
			pr := &pv.rules[ri]
			h, ok := pv.unifyHead(pr, a)
			if !ok {
				continue
			}
			pv.m.Resolutions++
			// Step 7b: if a null sits at the existential position, this
			// resolution claims its invention; it must agree with RS.
			rs2 := rs
			if pr.exPos >= 0 {
				z := a.Args[pr.exPos]
				// unifyHead guarantees z is a null occurring once. This
				// resolution claims z's invention (step 7b): it must agree
				// with any previously recorded birth atom.
				if prev, known := rs[z.Name]; known {
					if !prev.Equal(a) {
						continue
					}
				} else {
					rs2 = cloneRS(rs)
					rs2[z.Name] = a
				}
			}
			var success map[string]*ProofNode
			pv.enumAssignments(pr, h, 0, s, freshUsed, func(b chase.Binding, fu []datalog.Term) bool {
				for _, n := range pr.rule.BodyNeg {
					if pv.db.Has(n.Substitute(b)) {
						return true // blocked: ¬n fails, try the next µ
					}
				}
				body := make([]datalog.Atom, 0, len(pr.rule.BodyPos))
				for _, ba := range pr.rule.BodyPos {
					body = append(body, ba.Substitute(b))
				}
				chosen = append(chosen, resolution{atom: a, rule: pr, body: body})
				res, done := try(i+1, rs2, fu)
				chosen = chosen[:len(chosen)-1]
				if done {
					success = res
					return false // stop enumeration: success
				}
				return true
			})
			if success != nil {
				return success, true
			}
		}
		return nil, false
	}
	return try(0, rs, nil)
}

// finish is reached when every atom of the component has a resolution: build
// S+, partition it, and recurse (steps 8–13).
func (pv *Prover) finish(s []datalog.Atom, rs map[string]datalog.Atom, chosen []resolution, stack map[string]bool) (map[string]*ProofNode, bool) {
	// S+ = union of the instantiated bodies, deduplicated.
	plus := make([]datalog.Atom, 0, 8)
	seen := make(map[string]bool)
	for _, c := range chosen {
		for _, b := range c.body {
			if !seen[b.Key()] {
				seen[b.Key()] = true
				plus = append(plus, b)
			}
		}
	}
	// N: nulls with a recorded invention atom. F: fresh nulls of S+ (not in
	// S) — their RS entries reset to ε (step 11–12). Entries for vanished
	// nulls are dropped by construction of the per-component RS below.
	inS := make(map[string]bool)
	for _, a := range s {
		for _, t := range a.Args {
			if t.IsNull() {
				inS[t.Name] = true
			}
		}
	}
	known := make(map[string]bool)
	for z := range rs {
		known[z] = true
	}
	comps := partitionAtoms(plus, known)
	allNodes := make(map[string]*ProofNode)
	for _, comp := range comps {
		compRS := make(map[string]datalog.Atom)
		for _, a := range comp {
			for _, t := range a.Args {
				if t.IsNull() && inS[t.Name] {
					if birth, ok := rs[t.Name]; ok {
						compRS[t.Name] = birth
					}
				}
			}
		}
		nodes, ok := pv.proveComponent(comp, compRS, stack)
		if !ok {
			return nil, false
		}
		for k, n := range nodes {
			allNodes[k] = n
		}
	}
	// Assemble the nodes for the atoms of S.
	out := make(map[string]*ProofNode, len(s))
	for _, c := range chosen {
		if c.rule == nil {
			out[c.atom.Key()] = &ProofNode{Atom: c.atom}
			continue
		}
		node := &ProofNode{Atom: c.atom, Rule: c.rule.label}
		for _, b := range c.body {
			child := allNodes[b.Key()]
			if child == nil {
				// The body atom must have been proven in some component.
				pv.err = fmt.Errorf("triq: internal: missing proof for body atom %v", b)
				return nil, false
			}
			node.Children = append(node.Children, child)
		}
		out[c.atom.Key()] = node
	}
	return out, true
}

// unifyHead computes h_{ρ,a} (the unique homomorphism head → a) and checks
// the compatibility condition ρ ◃ a, plus the chase-soundness prunes: a
// harmless head variable never binds a null, and the existential position
// must hold a null occurring exactly once in a.
func (pv *Prover) unifyHead(pr *proverRule, a datalog.Atom) (chase.Binding, bool) {
	head := pr.head
	if head.Pred != a.Pred || len(head.Args) != len(a.Args) {
		return nil, false
	}
	b := chase.Binding{}
	for i, t := range head.Args {
		v := a.Args[i]
		if i == pr.exPos {
			// Condition (ii) of ◃: the existential position must carry a
			// null with a single occurrence in a.
			if !v.IsNull() {
				return nil, false
			}
			occurrences := 0
			for _, u := range a.Args {
				if u == v {
					occurrences++
				}
			}
			if occurrences != 1 {
				return nil, false
			}
			continue
		}
		switch {
		case t.IsConst():
			if t != v {
				return nil, false
			}
		case t.IsVar():
			if v.IsNull() && pr.harmless[t] {
				// Harmless variables never hold nulls in any chase instance;
				// this resolution cannot correspond to a real derivation.
				return nil, false
			}
			if prev, ok := b[t]; ok {
				if prev != v {
					return nil, false
				}
			} else {
				b[t] = v
			}
		default:
			return nil, false
		}
	}
	return b, true
}

// enumAssignments enumerates the mapping µ of step 3/7c: every body variable
// not bound by the head unification takes a value from dom(D) ∪ B. Harmless
// variables range over constants only; harmful variables additionally range
// over the nulls of the component and over fresh nulls (with canonical
// restricted-growth sharing, so that identifications between fresh nulls are
// covered exactly once). The callback returns false to stop; enumAssignments
// reports whether enumeration ran to completion.
func (pv *Prover) enumAssignments(pr *proverRule, base chase.Binding, idx int, s []datalog.Atom, freshUsed []datalog.Term, yield func(chase.Binding, []datalog.Term) bool) bool {
	// A single expansion can enumerate a huge µ space; poll cancellation
	// here (counter-gated) so a canceled search stops within the expansion
	// instead of after it.
	if pv.tick++; pv.tick&63 == 0 && pv.interrupted() {
		return false
	}
	if idx == len(pr.unbound) {
		return yield(base, freshUsed)
	}
	v := pr.unbound[idx]
	try := func(val datalog.Term, fu []datalog.Term) bool {
		base[v] = val
		ok := pv.enumAssignments(pr, base, idx+1, s, fu, yield)
		delete(base, v)
		return ok
	}
	for _, c := range pv.domain {
		if !try(c, freshUsed) {
			return false
		}
	}
	if !pr.harmless[v] {
		// Existing nulls of the component.
		seen := map[string]bool{}
		for _, a := range s {
			for _, t := range a.Args {
				if t.IsNull() && !seen[t.Name] {
					seen[t.Name] = true
					if !try(t, freshUsed) {
						return false
					}
				}
			}
		}
		// Fresh nulls already allocated in this expansion round…
		for _, f := range freshUsed {
			if !seen[f.Name] {
				if !try(f, freshUsed) {
					return false
				}
			}
		}
		// …or one brand-new null (restricted growth: allocating more than
		// one new class at a time is covered by later variables).
		pv.fresh++
		f := datalog.N("f" + strconv.Itoa(pv.fresh))
		if !try(f, append(freshUsed, f)) {
			return false
		}
	}
	return true
}

// partitionAtoms groups atoms into the [N]-optimal partition: the connected
// components of the "shares a null outside N" relation (Section 6.3). Atoms
// without such nulls become singletons.
func partitionAtoms(atoms []datalog.Atom, known map[string]bool) [][]datalog.Atom {
	parent := make([]int, len(atoms))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	byNull := make(map[string]int)
	for i, a := range atoms {
		for _, t := range a.Args {
			if t.IsNull() && !known[t.Name] {
				if j, ok := byNull[t.Name]; ok {
					union(i, j)
				} else {
					byNull[t.Name] = i
				}
			}
		}
	}
	groups := make(map[int][]datalog.Atom)
	var order []int
	for i, a := range atoms {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], a)
	}
	out := make([][]datalog.Atom, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

func cloneRS(rs map[string]datalog.Atom) map[string]datalog.Atom {
	out := make(map[string]datalog.Atom, len(rs)+1)
	for k, v := range rs {
		out[k] = v
	}
	return out
}

// canonState renders (S, RS) with nulls renamed canonically so that
// isomorphic states share a memo entry. It also returns the renaming order:
// order[id] is the original name of the null with canonical id.
func canonState(s []datalog.Atom, rs map[string]datalog.Atom) (string, []string) {
	// Sort atoms by a null-invariant signature, breaking ties with concrete
	// names for determinism.
	type entry struct {
		sig  string
		atom datalog.Atom
	}
	entries := make([]entry, len(s))
	for i, a := range s {
		var sb strings.Builder
		sb.WriteString(a.Pred)
		for _, t := range a.Args {
			sb.WriteByte('|')
			if t.IsNull() {
				sb.WriteByte('*')
			} else {
				sb.WriteByte(byte('0' + t.Kind))
				sb.WriteString(t.Name)
			}
		}
		entries[i] = entry{sig: sb.String(), atom: a}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].sig != entries[j].sig {
			return entries[i].sig < entries[j].sig
		}
		return entries[i].atom.Compare(entries[j].atom) < 0
	})
	ids := make(map[string]int)
	var order []string
	id := func(name string) int {
		if n, ok := ids[name]; ok {
			return n
		}
		n := len(ids)
		ids[name] = n
		order = append(order, name)
		return n
	}
	var b strings.Builder
	writeAtom := func(a datalog.Atom) {
		b.WriteString(a.Pred)
		b.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			if t.IsNull() {
				b.WriteString("#")
				b.WriteString(strconv.Itoa(id(t.Name)))
			} else {
				b.WriteByte(byte('0' + t.Kind))
				b.WriteString(t.Name)
			}
		}
		b.WriteByte(')')
	}
	for _, e := range entries {
		writeAtom(e.atom)
		b.WriteByte(';')
	}
	// RS entries in canonical-null order of their keys.
	type rsEntry struct {
		z     string
		birth datalog.Atom
	}
	var rsl []rsEntry
	for z, birth := range rs {
		if _, occurs := ids[z]; !occurs {
			// Entry for a null not in S: irrelevant, skip.
			continue
		}
		rsl = append(rsl, rsEntry{z, birth})
	}
	sort.Slice(rsl, func(i, j int) bool { return ids[rsl[i].z] < ids[rsl[j].z] })
	b.WriteByte('|')
	for _, e := range rsl {
		b.WriteString("#")
		b.WriteString(strconv.Itoa(ids[e.z]))
		b.WriteString("←")
		writeAtom(e.birth)
		b.WriteByte(';')
	}
	return b.String(), order
}

// DOT renders the proof tree in Graphviz DOT format.
func (n *ProofNode) DOT() string {
	var b strings.Builder
	b.WriteString("digraph proof {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	id := 0
	var rec func(node *ProofNode) int
	rec = func(node *ProofNode) int {
		me := id
		id++
		label := node.Atom.String()
		if node.Rule == "" {
			fmt.Fprintf(&b, "  n%d [label=%q, style=filled, fillcolor=lightgrey];\n", me, label)
		} else {
			fmt.Fprintf(&b, "  n%d [label=%q, tooltip=%q];\n", me, label, node.Rule)
		}
		for _, c := range node.Children {
			child := rec(c)
			fmt.Fprintf(&b, "  n%d -> n%d;\n", me, child)
		}
		return me
	}
	rec(n)
	b.WriteString("}\n")
	return b.String()
}
