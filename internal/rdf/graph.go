package rdf

import (
	"slices"
	"strings"
	"sync/atomic"
)

// Triple is an RDF triple (s, p, o).
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from three terms.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// T is a convenience constructor building a triple of three IRIs.
func T(s, p, o string) Triple {
	return Triple{S: NewIRI(s), P: NewIRI(p), O: NewIRI(o)}
}

// String renders the triple in N-Triples syntax (without the final newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Compare orders triples lexicographically by subject, predicate, object.
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}

// Graph is a finite set of RDF triples with per-position hash indexes so
// that triple patterns with any combination of bound positions can be
// matched efficiently. The zero value is not usable; call NewGraph.
type Graph struct {
	set map[Triple]struct{}
	byS map[Term][]Triple
	byP map[Term][]Triple
	byO map[Term][]Triple
	// bySP indexes (subject, predicate) pairs, the most common access path
	// for the evaluators in this repository.
	bySP map[[2]Term][]Triple
	byPO map[[2]Term][]Triple
	// canon memoises Canonical. Readers of one graph may run concurrently
	// (an epoch's graph is immutable once published), so they race to fill it
	// through the atomic pointer: every racer computes the same order and any
	// winner will do. Add and Remove, which no reader may overlap, drop it.
	canon atomic.Pointer[[]Triple]
}

// NewGraph returns an empty graph.
func NewGraph(triples ...Triple) *Graph {
	g := &Graph{
		set:  make(map[Triple]struct{}),
		byS:  make(map[Term][]Triple),
		byP:  make(map[Term][]Triple),
		byO:  make(map[Term][]Triple),
		bySP: make(map[[2]Term][]Triple),
		byPO: make(map[[2]Term][]Triple),
	}
	g.Add(triples...)
	return g
}

// Add inserts the given triples, ignoring duplicates. It returns the number
// of triples that were actually new.
func (g *Graph) Add(triples ...Triple) int {
	added := 0
	for _, t := range triples {
		if _, ok := g.set[t]; ok {
			continue
		}
		g.set[t] = struct{}{}
		g.byS[t.S] = append(g.byS[t.S], t)
		g.byP[t.P] = append(g.byP[t.P], t)
		g.byO[t.O] = append(g.byO[t.O], t)
		g.bySP[[2]Term{t.S, t.P}] = append(g.bySP[[2]Term{t.S, t.P}], t)
		g.byPO[[2]Term{t.P, t.O}] = append(g.byPO[[2]Term{t.P, t.O}], t)
		added++
	}
	if added > 0 {
		g.canon.Store(nil)
	}
	return added
}

// Remove deletes the given triples, ignoring ones not present. It returns
// the number of triples actually removed.
func (g *Graph) Remove(triples ...Triple) int {
	removed := 0
	for _, t := range triples {
		if _, ok := g.set[t]; !ok {
			continue
		}
		delete(g.set, t)
		g.byS[t.S] = dropTriple(g.byS[t.S], t)
		if len(g.byS[t.S]) == 0 {
			delete(g.byS, t.S)
		}
		g.byP[t.P] = dropTriple(g.byP[t.P], t)
		if len(g.byP[t.P]) == 0 {
			delete(g.byP, t.P)
		}
		g.byO[t.O] = dropTriple(g.byO[t.O], t)
		if len(g.byO[t.O]) == 0 {
			delete(g.byO, t.O)
		}
		sp := [2]Term{t.S, t.P}
		g.bySP[sp] = dropTriple(g.bySP[sp], t)
		if len(g.bySP[sp]) == 0 {
			delete(g.bySP, sp)
		}
		po := [2]Term{t.P, t.O}
		g.byPO[po] = dropTriple(g.byPO[po], t)
		if len(g.byPO[po]) == 0 {
			delete(g.byPO, po)
		}
		removed++
	}
	if removed > 0 {
		g.canon.Store(nil)
	}
	return removed
}

// dropTriple removes the first occurrence of t from a fresh copy of s, so
// index slices previously handed out by Match stay intact.
func dropTriple(s []Triple, t Triple) []Triple {
	for i, u := range s {
		if u == t {
			out := make([]Triple, 0, len(s)-1)
			out = append(out, s[:i]...)
			return append(out, s[i+1:]...)
		}
	}
	return s
}

// AddGraph inserts every triple of h into g and returns the number added.
func (g *Graph) AddGraph(h *Graph) int {
	added := 0
	for t := range h.set {
		added += g.Add(t)
	}
	return added
}

// Has reports whether the triple is in the graph.
func (g *Graph) Has(t Triple) bool {
	_, ok := g.set[t]
	return ok
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return len(g.set) }

// Triples returns all triples in an unspecified order.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, len(g.set))
	for t := range g.set {
		out = append(out, t)
	}
	return out
}

// Canonical returns all triples sorted lexicographically by subject,
// predicate, object: the one deterministic order of a graph, in which τ_db(G)
// is loaded and snapshots are written. The order is computed on first use and
// kept until the graph changes; the slice is shared with every other caller
// and must not be modified. Safe for concurrent use by readers.
func (g *Graph) Canonical() []Triple {
	if p := g.canon.Load(); p != nil {
		return *p
	}
	out := g.Triples()
	slices.SortFunc(out, Triple.Compare)
	g.canon.Store(&out)
	return out
}

// SortedTriples returns a private copy of Canonical, for callers that keep or
// modify the result.
func (g *Graph) SortedTriples() []Triple { return slices.Clone(g.Canonical()) }

// Match returns the triples matching the pattern; a nil position matches
// anything. The returned slice must not be modified.
func (g *Graph) Match(s, p, o *Term) []Triple {
	filter := func(cands []Triple) []Triple {
		out := cands[:0:0]
		for _, t := range cands {
			if s != nil && t.S != *s {
				continue
			}
			if p != nil && t.P != *p {
				continue
			}
			if o != nil && t.O != *o {
				continue
			}
			out = append(out, t)
		}
		return out
	}
	switch {
	case s != nil && p != nil && o != nil:
		t := Triple{S: *s, P: *p, O: *o}
		if g.Has(t) {
			return []Triple{t}
		}
		return nil
	case s != nil && p != nil:
		return g.bySP[[2]Term{*s, *p}]
	case p != nil && o != nil:
		return g.byPO[[2]Term{*p, *o}]
	case s != nil:
		return filter(g.byS[*s])
	case o != nil:
		return filter(g.byO[*o])
	case p != nil:
		return g.byP[*p]
	default:
		return g.Triples()
	}
}

// Subjects returns the set of distinct subject terms.
func (g *Graph) Subjects() []Term { return keys(g.byS) }

// Predicates returns the set of distinct predicate terms.
func (g *Graph) Predicates() []Term { return keys(g.byP) }

// Objects returns the set of distinct object terms.
func (g *Graph) Objects() []Term { return keys(g.byO) }

// Terms returns every distinct term occurring anywhere in the graph.
func (g *Graph) Terms() []Term {
	seen := make(map[Term]struct{})
	for t := range g.set {
		seen[t.S] = struct{}{}
		seen[t.P] = struct{}{}
		seen[t.O] = struct{}{}
	}
	out := make([]Term, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	slices.SortFunc(out, Term.Compare)
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	h := NewGraph()
	for t := range g.set {
		h.Add(t)
	}
	return h
}

// Equal reports whether two graphs contain exactly the same triples.
func (g *Graph) Equal(h *Graph) bool {
	if g.Len() != h.Len() {
		return false
	}
	for t := range g.set {
		if !h.Has(t) {
			return false
		}
	}
	return true
}

// String renders the graph as sorted N-Triples lines.
func (g *Graph) String() string {
	var b strings.Builder
	for _, t := range g.Canonical() {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func keys(m map[Term][]Triple) []Term {
	out := make([]Term, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	slices.SortFunc(out, Term.Compare)
	return out
}
