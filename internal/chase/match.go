package chase

import (
	"repro/internal/datalog"
)

// Binding is a substitution from variables to ground terms: the map-based
// face of a match for callers outside the chase, such as the ProofTree
// prover. The chase itself runs on compiled patterns over term ids.
type Binding map[datalog.Term]datalog.Term

// ---------------------------------------------------------------------------
// Compiled patterns: variables are numbered slots, environments are slices of
// term ids.
// ---------------------------------------------------------------------------

// patArg is one argument of a compiled pattern: a variable slot (slot ≥ 0)
// or a constant/null term (slot < 0).
type patArg struct {
	slot int
	term datalog.Term
}

// pattern is a compiled atom. It is read-only once compiled, and a library's
// patterns are shared by every engine that runs the library: what matches is
// the pattern resolved against one instance, in the engine's scratch
// (resolution).
type pattern struct {
	pred string
	args []patArg
}

// resolved is a pattern resolved against one instance's dictionary: its
// predicate's id and, per argument, the variable's slot or the constant's id.
// known is false when the instance has never seen the predicate or one of the
// constants, and it then matches nothing.
type resolved struct {
	pid   uint32
	known bool
	args  []argID
}

// argID is an argument of a resolved pattern: a variable slot (slot ≥ 0), or a
// constant's id (slot < 0).
type argID struct {
	slot int
	id   uint32
}

// env is a slice environment of term ids, unbound where no match bound the
// slot.
type env []uint32

func (e env) reset() {
	for i := range e {
		e[i] = unbound
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

// resolution is scratch an engine resolves one list of a rule's patterns
// into, reused from turn to turn.
type resolution struct {
	atoms []resolved
	args  []argID
}

// of resolves the patterns against the instance's dictionary, interning what
// it lacks when intern is set, and returns them resolved, valid until the
// next call. Ids stay valid while the instance only grows, so a rule resolves
// its patterns once per turn: the body ones, which match, without interning,
// and the head ones, which fire writes, with it.
func (r *resolution) of(pats []pattern, inst *Instance, intern bool) []resolved {
	n := 0
	for k := range pats {
		n += len(pats[k].args)
	}
	if cap(r.atoms) < len(pats) {
		r.atoms = make([]resolved, len(pats))
	}
	if cap(r.args) < n {
		r.args = make([]argID, n)
	}
	atoms, args := r.atoms[:len(pats)], r.args[:n]
	for k := range pats {
		m := len(pats[k].args)
		atoms[k] = pats[k].resolve(args[:m:m], inst, intern)
		args = args[m:]
	}
	return atoms
}

// resolve resolves the pattern, writing its arguments to args.
func (p *pattern) resolve(args []argID, inst *Instance, intern bool) resolved {
	a := resolved{args: args}
	pid, ok := inst.predOf(p.pred, intern)
	if !ok {
		return a
	}
	for k, pa := range p.args {
		args[k] = argID{slot: pa.slot}
		if pa.slot < 0 {
			if args[k].id, ok = inst.termOf(pa.term, intern); !ok {
				return a
			}
		}
	}
	a.pid, a.known = pid, true
	return a
}

// fill appends the row of a fully-bound resolved pattern to buf.
func (p *resolved) fill(buf []uint32, e env) []uint32 {
	for _, a := range p.args {
		if a.slot >= 0 {
			buf = append(buf, e[a.slot])
		} else {
			buf = append(buf, a.id)
		}
	}
	return buf
}

// matchInto extends the environment so that the pattern matches the row; it
// records newly-bound slots in *added (indices into env) and reports success.
// On failure it rolls back its own additions.
func (p *resolved) matchInto(row []uint32, e env, added *[]int) bool {
	if len(p.args) != len(row) {
		return false
	}
	start := len(*added)
	for i, a := range p.args {
		f := row[i]
		if a.slot < 0 {
			if a.id != f {
				p.rollback(e, added, start)
				return false
			}
			continue
		}
		if v := e[a.slot]; v != unbound {
			if v != f {
				p.rollback(e, added, start)
				return false
			}
			continue
		}
		e[a.slot] = f
		*added = append(*added, a.slot)
	}
	return true
}

func (p *resolved) rollback(e env, added *[]int, start int) {
	for _, s := range (*added)[start:] {
		e[s] = unbound
	}
	*added = (*added)[:start]
}

// rowSet names rows of one relation: those ids lists or, when ids is nil,
// the n rows from lo on.
type rowSet struct {
	rel *relation
	ids []int32
	lo  int
	n   int
}

func (s rowSet) row(k int) []uint32 {
	if s.ids != nil {
		return s.rel.row(int(s.ids[k]))
	}
	return s.rel.row(s.lo + k)
}

// allRows is every row of a relation; a nil relation has none.
func allRows(r *relation) rowSet {
	if r == nil {
		return rowSet{}
	}
	return rowSet{rel: r, n: r.n}
}

// listed is the rows a list of an index names.
func listed(r *relation, ids []int32) rowSet {
	return rowSet{rel: r, ids: ids, n: len(ids)}
}

// candidatesFor returns the rows possibly matching the resolved pattern under
// the environment, via the most selective index position: the base's
// candidates and then the own layer's, the order of a flat instance holding
// both.
func candidatesFor(inst *Instance, p *resolved, e env) (base, own rowSet) {
	if !p.known {
		return rowSet{}, rowSet{}
	}
	br, or := inst.baseRel(p.pid), inst.rel(p.pid)
	bestLen := -1
	for i, a := range p.args {
		id := a.id
		if a.slot >= 0 {
			if id = e[a.slot]; id == unbound {
				continue
			}
		}
		var b []int32
		if int(id) < inst.baseTerms {
			b = br.rowsWith(i, id)
		}
		o := or.rowsWith(i, id)
		if n := len(b) + len(o); bestLen == -1 || n < bestLen {
			bestLen, base, own = n, listed(br, b), listed(or, o)
			if bestLen == 0 {
				return rowSet{}, rowSet{}
			}
		}
	}
	if bestLen >= 0 {
		return base, own
	}
	return allRows(br), allRows(or)
}

// count returns how many rows of the resolved pattern's predicate the
// instance holds.
func (inst *Instance) count(p *resolved) int {
	if !p.known {
		return 0
	}
	n := 0
	if br := inst.baseRel(p.pid); br != nil {
		n = br.n
	}
	if r := inst.rel(p.pid); r != nil {
		n += r.n
	}
	return n
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
			free, total := 0, 0
			for _, a := range p.args {
				if a.slot >= 0 {
					total++
					if !bound[a.slot] {
						free++
					}
				}
			}
			score := free
			if len(out) > 0 || from != nil {
				if free == total && free > 0 {
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
// resolved pattern (in the given order) against the instance. The callback
// returns false to stop early; matchPatterns reports whether enumeration
// completed. added is the caller's scratch for the slots a match binds, which
// it shares with matchInto: matchPatterns appends past what it holds and
// takes back what it appended.
func matchPatterns(inst *Instance, pats []resolved, order []int, e env, added *[]int, yield func() bool) bool {
	if len(order) == 0 {
		return yield()
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			return yield()
		}
		p := &pats[order[k]]
		base, own := candidatesFor(inst, p, e)
		for _, set := range [2]rowSet{base, own} {
			for j := range set.n {
				start := len(*added)
				if p.matchInto(set.row(j), e, added) {
					if !rec(k + 1) {
						return false
					}
					p.rollback(e, added, start)
				}
			}
		}
		return true
	}
	return rec(0)
}
