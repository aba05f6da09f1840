package chase

import (
	"repro/internal/datalog"
)

// Binding is a substitution from variables to ground terms. It remains the
// map-based public face of the matcher (used by callers such as the
// ProofTree prover); the chase inner loop itself runs on compiled patterns
// with slice environments, which avoids hashing terms on every extension.
type Binding map[datalog.Term]datalog.Term

// ---------------------------------------------------------------------------
// Compiled patterns: variables are numbered slots, environments are slices.
// ---------------------------------------------------------------------------

// patArg is one argument of a compiled pattern: a variable slot (slot ≥ 0)
// or a constant/null term (slot < 0).
type patArg struct {
	slot int
	term datalog.Term
}

// pattern is a compiled atom.
type pattern struct {
	pred string
	args []patArg
}

// env is a slice environment: env.val[s] is meaningful iff env.set[s].
type env struct {
	val []datalog.Term
	set []bool
}

func newEnv(n int) *env {
	return &env{val: make([]datalog.Term, n), set: make([]bool, n)}
}

func (e *env) reset() {
	for i := range e.set {
		e.set[i] = false
	}
}

// slotTable numbers variables.
type slotTable struct {
	slots map[datalog.Term]int
	vars  []datalog.Term
}

func newSlotTable() *slotTable {
	return &slotTable{slots: make(map[datalog.Term]int)}
}

func (st *slotTable) slot(v datalog.Term) int {
	if s, ok := st.slots[v]; ok {
		return s
	}
	s := len(st.vars)
	st.slots[v] = s
	st.vars = append(st.vars, v)
	return s
}

func compileAtom(a datalog.Atom, st *slotTable) pattern {
	p := pattern{pred: a.Pred, args: make([]patArg, len(a.Args))}
	for i, t := range a.Args {
		if t.IsVar() {
			p.args[i] = patArg{slot: st.slot(t)}
		} else {
			p.args[i] = patArg{slot: -1, term: t}
		}
	}
	return p
}

// instantiate builds the ground atom of a fully-bound pattern.
func (p pattern) instantiate(e *env) datalog.Atom {
	args := make([]datalog.Term, len(p.args))
	for i, a := range p.args {
		if a.slot >= 0 {
			args[i] = e.val[a.slot]
		} else {
			args[i] = a.term
		}
	}
	return datalog.Atom{Pred: p.pred, Args: args}
}

// matchInto extends the environment so that the pattern matches the fact; it
// records newly-bound slots in *added (indices into env) and reports success.
// On failure it rolls back its own additions.
func (p pattern) matchInto(fact datalog.Atom, e *env, added *[]int) bool {
	if len(p.args) != len(fact.Args) {
		return false
	}
	start := len(*added)
	for i, a := range p.args {
		f := fact.Args[i]
		if a.slot < 0 {
			if a.term != f {
				p.rollback(e, added, start)
				return false
			}
			continue
		}
		if e.set[a.slot] {
			if e.val[a.slot] != f {
				p.rollback(e, added, start)
				return false
			}
			continue
		}
		e.set[a.slot] = true
		e.val[a.slot] = f
		*added = append(*added, a.slot)
	}
	return true
}

func (p pattern) rollback(e *env, added *[]int, start int) {
	for _, s := range (*added)[start:] {
		e.set[s] = false
	}
	*added = (*added)[:start]
}

// candidatesFor returns the facts possibly matching the pattern under the
// environment, via the most selective index position: the base's candidates
// and then the own layer's, the order of a flat instance holding both.
func candidatesFor(inst *Instance, p pattern, e *env) (base, own []datalog.Atom) {
	bestLen := -1
	for i, a := range p.args {
		var ground datalog.Term
		switch {
		case a.slot < 0:
			ground = a.term
		case e.set[a.slot]:
			ground = e.val[a.slot]
		default:
			continue
		}
		b, o := inst.lookup(p.pred, i, ground)
		if n := len(b) + len(o); bestLen == -1 || n < bestLen {
			bestLen, base, own = n, b, o
			if bestLen == 0 {
				return nil, nil
			}
		}
	}
	if bestLen >= 0 {
		return base, own
	}
	return inst.atomsOf(p.pred)
}

// orderPatterns returns a greedy join order over the pattern indices: the
// slots of from, when there is one, count as bound already; then repeatedly
// pick the pattern with the fewest unbound slots, penalizing cartesian
// products. skip, unless negative, is the one pattern to leave out: the seed,
// when from is one of pats.
func orderPatterns(pats []pattern, from *pattern, skip int) []int {
	bound := make(map[int]bool)
	if from != nil {
		for _, a := range from.args {
			if a.slot >= 0 {
				bound[a.slot] = true
			}
		}
	}
	var out []int
	used := make([]bool, len(pats))
	if skip >= 0 {
		used[skip] = true
	}
	for {
		best, bestScore := -1, 1<<30
		for i, p := range pats {
			if used[i] {
				continue
			}
			unbound, total := 0, 0
			for _, a := range p.args {
				if a.slot >= 0 {
					total++
					if !bound[a.slot] {
						unbound++
					}
				}
			}
			score := unbound
			if len(out) > 0 || from != nil {
				if unbound == total && unbound > 0 {
					score += 100 // cartesian product, defer
				}
			}
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			return out
		}
		used[best] = true
		out = append(out, best)
		for _, a := range pats[best].args {
			if a.slot >= 0 {
				bound[a.slot] = true
			}
		}
	}
}

// matchPatterns enumerates extensions of the environment matching every
// pattern (in the given order) against the instance. The callback returns
// false to stop early; matchPatterns reports whether enumeration completed.
func matchPatterns(inst *Instance, pats []pattern, order []int, e *env, yield func() bool) bool {
	if len(order) == 0 {
		return yield()
	}
	var added []int
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			return yield()
		}
		p := pats[order[k]]
		base, own := candidatesFor(inst, p, e)
		for _, layer := range [2][]datalog.Atom{base, own} {
			for _, fact := range layer {
				start := len(added)
				if p.matchInto(fact, e, &added) {
					if !rec(k + 1) {
						return false
					}
					p.rollback(e, &added, start)
				}
			}
		}
		return true
	}
	return rec(0)
}

// matchBody is the compatibility entry point used for constraints and by
// tests: it matches positive atoms against inst, filters by negated atoms
// against negInst, and yields map Bindings over the atoms' variables.
func matchBody(inst, negInst *Instance, bodyPos, bodyNeg []datalog.Atom, init Binding, yield func(Binding) bool) bool {
	st := newSlotTable()
	pats := make([]pattern, len(bodyPos))
	for i, a := range bodyPos {
		pats[i] = compileAtom(a, st)
	}
	negPats := make([]pattern, len(bodyNeg))
	for i, a := range bodyNeg {
		negPats[i] = compileAtom(a, st)
	}
	e := newEnv(len(st.vars))
	for v, t := range init {
		if s, ok := st.slots[v]; ok {
			e.set[s] = true
			e.val[s] = t
		}
	}
	order := orderPatterns(pats, nil, -1)
	return matchPatterns(inst, pats, order, e, func() bool {
		for _, np := range negPats {
			if negInst.Has(np.instantiate(e)) {
				return true
			}
		}
		out := make(Binding, len(st.vars))
		for s, v := range st.vars {
			if e.set[s] {
				out[v] = e.val[s]
			}
		}
		return yield(out)
	})
}
