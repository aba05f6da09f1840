package rdf

import (
	"maps"
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

// Graph is a finite set of RDF triples: the paper reads G only as the
// database τ_db(G) of triple(·,·,·) facts, so the set is all a graph
// maintains. Beside it sit three memos that live only while the graph is
// unchanged. Readers of one graph may run concurrently (an epoch's graph is
// immutable once published), so they race to fill each memo through its
// atomic pointer: every racer computes the same value and any winner will
// do. Add and Remove, which no reader may overlap, drop all three; a memo is
// never written after it is stored, so a slice handed out before a mutation
// stays intact after it. The zero value is not usable; call NewGraph.
type Graph struct {
	set map[Triple]struct{}
	// canon memoises Canonical.
	canon atomic.Pointer[[]Triple]
	// idx memoises the per-position indexes behind Match and Predicates.
	idx atomic.Pointer[index]
	// enc memoises the function Encoded: the dictionary encoding τ_db(G) is
	// loaded from, which the package above that defines it fills and reads.
	enc atomic.Pointer[any]
}

// index holds the triples of one unchanged graph by bound position, each
// bucket in canonical order.
type index struct {
	byS, byP, byO map[Term][]Triple
	// bySP indexes (subject, predicate) pairs, the most common access path
	// for the evaluators in this repository.
	bySP, byPO map[[2]Term][]Triple
}

// NewGraph returns a graph holding the given triples.
func NewGraph(triples ...Triple) *Graph {
	g := &Graph{set: make(map[Triple]struct{}, len(triples))}
	g.Add(triples...)
	return g
}

// Add inserts the given triples, ignoring duplicates. It returns the number
// of triples that were actually new.
func (g *Graph) Add(triples ...Triple) int {
	before := len(g.set)
	for _, t := range triples {
		g.set[t] = struct{}{}
	}
	return g.changed(len(g.set) - before)
}

// Remove deletes the given triples, ignoring ones not present. It returns
// the number of triples actually removed.
func (g *Graph) Remove(triples ...Triple) int {
	before := len(g.set)
	for _, t := range triples {
		delete(g.set, t)
	}
	return g.changed(before - len(g.set))
}

// changed drops the memos when n triples entered or left the set.
func (g *Graph) changed(n int) int {
	if n > 0 {
		g.canon.Store(nil)
		g.idx.Store(nil)
		g.enc.Store(nil)
	}
	return n
}

// AddGraph inserts every triple of h into g and returns the number added.
func (g *Graph) AddGraph(h *Graph) int {
	before := len(g.set)
	maps.Copy(g.set, h.set)
	return g.changed(len(g.set) - before)
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

// Match returns the triples matching the pattern, in canonical order; a nil
// position matches anything. The returned slice must not be modified. Safe
// for concurrent use by readers.
func (g *Graph) Match(s, p, o *Term) []Triple {
	switch {
	case s != nil && p != nil && o != nil:
		t := Triple{S: *s, P: *p, O: *o}
		if g.Has(t) {
			return []Triple{t}
		}
		return nil
	case s != nil && p != nil:
		return g.index().bySP[[2]Term{*s, *p}]
	case p != nil && o != nil:
		return g.index().byPO[[2]Term{*p, *o}]
	case s != nil && o != nil:
		var out []Triple
		for _, t := range g.index().byS[*s] {
			if t.O == *o {
				out = append(out, t)
			}
		}
		return out
	case s != nil:
		return g.index().byS[*s]
	case o != nil:
		return g.index().byO[*o]
	case p != nil:
		return g.index().byP[*p]
	default:
		return g.Canonical()
	}
}

// index returns the per-position indexes, built from Canonical on first use
// and kept until the graph changes.
func (g *Graph) index() *index {
	if x := g.idx.Load(); x != nil {
		return x
	}
	x := &index{
		byS:  make(map[Term][]Triple),
		byP:  make(map[Term][]Triple),
		byO:  make(map[Term][]Triple),
		bySP: make(map[[2]Term][]Triple),
		byPO: make(map[[2]Term][]Triple),
	}
	for _, t := range g.Canonical() {
		x.byS[t.S] = append(x.byS[t.S], t)
		x.byP[t.P] = append(x.byP[t.P], t)
		x.byO[t.O] = append(x.byO[t.O], t)
		x.bySP[[2]Term{t.S, t.P}] = append(x.bySP[[2]Term{t.S, t.P}], t)
		x.byPO[[2]Term{t.P, t.O}] = append(x.byPO[[2]Term{t.P, t.O}], t)
	}
	g.idx.Store(x)
	return x
}

// Predicates returns the set of distinct predicate terms.
func (g *Graph) Predicates() []Term {
	byP := g.index().byP
	out := make([]Term, 0, len(byP))
	for t := range byP {
		out = append(out, t)
	}
	slices.SortFunc(out, Term.Compare)
	return out
}

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

// Encoded returns what encode computes from g, computed on first use and kept
// until g changes. The graph holds it without knowing its type: it is the
// dictionary encoding of τ_db(G) (see owl.DB), and that encoder is the one
// caller, so every call passes the same function. It is a function of this
// internal package rather than a method so that no code outside the module
// can reach the slot through an alias of Graph and fill it with another
// type. The value is shared with every other caller and must not be
// modified. Safe for concurrent use by readers: readers racing on the first
// use may each compute it, but all of them return the one kept, so everything
// memoised per encoding (a library's database part, chase.Dict) is kept once
// per graph.
func Encoded(g *Graph, encode func(*Graph) any) any {
	if p := g.enc.Load(); p != nil {
		return *p
	}
	v := encode(g)
	if g.enc.CompareAndSwap(nil, &v) {
		return v
	}
	return *g.enc.Load()
}

// Clone returns an independent copy of the graph. The copy starts with g's
// canonical order and encoding, where g has computed them, and drops them at
// its first change.
func (g *Graph) Clone() *Graph {
	h := &Graph{set: maps.Clone(g.set)}
	h.canon.Store(g.canon.Load())
	h.enc.Store(g.enc.Load())
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
	WriteNTriples(&b, g.Canonical()) // a strings.Builder never fails a write
	return b.String()
}
