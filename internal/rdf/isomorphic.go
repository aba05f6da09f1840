package rdf

// Isomorphic reports whether two graphs are equal up to a bijective renaming
// of blank nodes (RDF graph isomorphism). Non-blank terms must match
// exactly. The search is backtracking with signature pruning; it is intended
// for the small graphs produced by CONSTRUCT queries and tests, not for
// adversarial inputs.
func Isomorphic(g, h *Graph) bool {
	if g.Len() != h.Len() {
		return false
	}
	gBlanks := blankNodes(g)
	hBlanks := blankNodes(h)
	if len(gBlanks) != len(hBlanks) {
		return false
	}
	if len(gBlanks) == 0 {
		return g.Equal(h)
	}
	// Ground triples (no blanks) must coincide.
	for _, t := range g.Triples() {
		if !t.S.IsBlank() && !t.P.IsBlank() && !t.O.IsBlank() && !h.Has(t) {
			return false
		}
	}
	// Backtracking over the blank-node bijection, most-constrained first.
	mapping := make(map[Term]Term, len(gBlanks))
	used := make(map[Term]bool, len(hBlanks))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(gBlanks) {
			return checkMapped(g, h, mapping)
		}
		b := gBlanks[i]
		for _, c := range hBlanks {
			if used[c] {
				continue
			}
			if blankDegree(g, b) != blankDegree(h, c) {
				continue
			}
			mapping[b] = c
			used[c] = true
			if partialConsistent(g, h, mapping) && rec(i+1) {
				return true
			}
			delete(mapping, b)
			delete(used, c)
		}
		return false
	}
	return rec(0)
}

func blankNodes(g *Graph) []Term {
	seen := make(map[Term]bool)
	var out []Term
	for _, t := range g.Canonical() {
		for _, x := range []Term{t.S, t.P, t.O} {
			if x.IsBlank() && !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	return out
}

func blankDegree(g *Graph, b Term) [3]int {
	var d [3]int
	for _, t := range g.Triples() {
		if t.S == b {
			d[0]++
		}
		if t.P == b {
			d[1]++
		}
		if t.O == b {
			d[2]++
		}
	}
	return d
}

func mapTerm(t Term, m map[Term]Term) (Term, bool) {
	if !t.IsBlank() {
		return t, true
	}
	u, ok := m[t]
	return u, ok
}

// partialConsistent checks that every g-triple whose blanks are all mapped
// already appears in h.
func partialConsistent(g, h *Graph, m map[Term]Term) bool {
	for _, t := range g.Triples() {
		s, ok1 := mapTerm(t.S, m)
		p, ok2 := mapTerm(t.P, m)
		o, ok3 := mapTerm(t.O, m)
		if ok1 && ok2 && ok3 && !h.Has(Triple{S: s, P: p, O: o}) {
			return false
		}
	}
	return true
}

func checkMapped(g, h *Graph, m map[Term]Term) bool {
	for _, t := range g.Triples() {
		s, _ := mapTerm(t.S, m)
		p, _ := mapTerm(t.P, m)
		o, _ := mapTerm(t.O, m)
		if !h.Has(Triple{S: s, P: p, O: o}) {
			return false
		}
	}
	return true
}
