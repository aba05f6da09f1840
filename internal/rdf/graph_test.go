package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestGraphAddHasLen(t *testing.T) {
	g := NewGraph()
	t1 := T("a", "p", "b")
	t2 := T("b", "p", "c")
	if g.Len() != 0 {
		t.Fatalf("empty graph Len = %d", g.Len())
	}
	if n := g.Add(t1, t2, t1); n != 2 {
		t.Errorf("Add returned %d new, want 2", n)
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
	if !g.Has(t1) || !g.Has(t2) || g.Has(T("c", "p", "d")) {
		t.Error("Has results wrong")
	}
}

func TestGraphMatch(t *testing.T) {
	g := NewGraph(
		T("a", "p", "b"),
		T("a", "p", "c"),
		T("a", "q", "b"),
		T("b", "p", "c"),
	)
	s, p, o := NewIRI("a"), NewIRI("p"), NewIRI("c")
	cases := []struct {
		name    string
		s, p, o *Term
		want    int
	}{
		{"all wild", nil, nil, nil, 4},
		{"s bound", &s, nil, nil, 3},
		{"p bound", nil, &p, nil, 3},
		{"o bound", nil, nil, &o, 2},
		{"sp bound", &s, &p, nil, 2},
		{"po bound", nil, &p, &o, 2},
		{"so bound", &s, nil, &o, 1},
		{"spo present", &s, &p, &o, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := g.Match(tc.s, tc.p, tc.o)
			if len(got) != tc.want {
				t.Errorf("Match returned %d triples, want %d: %v", len(got), tc.want, got)
			}
			for _, tr := range got {
				if tc.s != nil && tr.S != *tc.s {
					t.Errorf("triple %v does not match bound subject", tr)
				}
				if tc.p != nil && tr.P != *tc.p {
					t.Errorf("triple %v does not match bound predicate", tr)
				}
				if tc.o != nil && tr.O != *tc.o {
					t.Errorf("triple %v does not match bound object", tr)
				}
			}
		})
	}
	x := NewIRI("missing")
	if got := g.Match(&x, &p, &o); got != nil {
		t.Errorf("absent spo should return nil, got %v", got)
	}
}

func TestGraphTermsAndProjections(t *testing.T) {
	g := NewGraph(T("a", "p", "b"), T("b", "q", "a"))
	if n := len(g.Predicates()); n != 2 {
		t.Errorf("Predicates = %d, want 2", n)
	}
	if n := len(g.Terms()); n != 4 {
		t.Errorf("Terms = %d, want 4 (a,b,p,q)", n)
	}
}

// checkIndexes compares every indexed access path of Match, and Predicates,
// with a scan of the set g holds now, for every term of g and one it lacks.
func checkIndexes(t *testing.T, what string, g *Graph) {
	t.Helper()
	all := sortedByHand(g)
	scan := func(s, p, o *Term) []Triple {
		var out []Triple
		for _, tr := range all {
			if (s == nil || tr.S == *s) && (p == nil || tr.P == *p) && (o == nil || tr.O == *o) {
				out = append(out, tr)
			}
		}
		return out
	}
	var preds []Term
	for _, tr := range all {
		if !slices.Contains(preds, tr.P) {
			preds = append(preds, tr.P)
		}
	}
	slices.SortFunc(preds, Term.Compare)
	if got := g.Predicates(); !slices.Equal(got, preds) {
		t.Errorf("after %s: Predicates = %v, want %v", what, got, preds)
	}
	terms := append(g.Terms(), NewIRI("absent"))
	for i := range terms {
		x := &terms[i]
		for j := range terms {
			y := &terms[j]
			for _, pat := range [][3]*Term{{x, nil, nil}, {nil, x, nil}, {nil, nil, x}, {x, y, nil}, {nil, x, y}, {x, nil, y}} {
				got := slices.Clone(g.Match(pat[0], pat[1], pat[2]))
				slices.SortFunc(got, Triple.Compare)
				if want := scan(pat[0], pat[1], pat[2]); !slices.Equal(got, want) {
					t.Errorf("after %s: Match(%v, %v, %v) = %v, want %v", what, pat[0], pat[1], pat[2], got, want)
				}
			}
		}
	}
}

func TestGraphCloneEqual(t *testing.T) {
	g := NewGraph(T("a", "p", "b"), T("b", "p", "c"))
	checkIndexes(t, "NewGraph", g) // the source has its index before it is cloned
	h := g.Clone()
	if !g.Equal(h) || !h.Equal(g) {
		t.Fatal("clone should be equal")
	}
	h.Add(T("c", "p", "d"))
	if g.Equal(h) {
		t.Error("graphs of different size should not be equal")
	}
	checkIndexes(t, "Add to its clone", g)
	checkIndexes(t, "Clone and Add", h)
	g.Remove(T("a", "p", "b"))
	checkIndexes(t, "Remove", g)
	checkIndexes(t, "Remove from its source", h)
	k := NewGraph(T("a", "p", "b"), T("x", "y", "z"))
	if g.Equal(k) {
		t.Error("same-size different graphs should not be equal")
	}
}

func TestGraphAddGraph(t *testing.T) {
	g := NewGraph(T("a", "p", "b"))
	h := NewGraph(T("a", "p", "b"), T("b", "p", "c"))
	if n := g.AddGraph(h); n != 1 {
		t.Errorf("AddGraph added %d, want 1", n)
	}
	if g.Len() != 2 {
		t.Errorf("Len after AddGraph = %d, want 2", g.Len())
	}
}

func TestGraphSortedDeterministic(t *testing.T) {
	g := NewGraph(T("b", "p", "c"), T("a", "p", "b"), T("a", "p", "a"))
	got := g.SortedTriples()
	for i := 1; i < len(got); i++ {
		if got[i-1].Compare(got[i]) >= 0 {
			t.Fatalf("SortedTriples not strictly sorted: %v >= %v", got[i-1], got[i])
		}
	}
	if g.String() == "" {
		t.Error("String should be non-empty")
	}
}

// sortedByHand is the canonical order computed without the graph's memo.
func sortedByHand(g *Graph) []Triple {
	out := g.Triples()
	slices.SortFunc(out, Triple.Compare)
	return out
}

func TestGraphCanonicalFollowsAddAndRemove(t *testing.T) {
	g := NewGraph(T("b", "p", "c"), T("a", "p", "b"))
	step := func(what string) {
		t.Helper()
		if got, want := g.Canonical(), sortedByHand(g); !slices.Equal(got, want) {
			t.Fatalf("after %s: Canonical = %v, want %v", what, got, want)
		}
		checkIndexes(t, what, g)
	}
	step("NewGraph")
	g.Add(T("a", "a", "a"), T("c", "p", "a"))
	step("Add")
	g.Add(T("a", "a", "a")) // nothing new
	step("a duplicate Add")
	g.Remove(T("a", "p", "b"))
	step("Remove")
	g.AddGraph(NewGraph(T("a", "p", "b"), T("z", "p", "z")))
	step("AddGraph")
	// A clone taken after Canonical shares the memo until its first change,
	// which leaves the source's order as it was.
	want := slices.Clone(g.Canonical())
	c := g.Clone()
	if &c.Canonical()[0] != &g.Canonical()[0] {
		t.Error("a clone of a graph with a canonical order sorted its own")
	}
	c.Add(T("0", "p", "0"))
	c.Remove(T("z", "p", "z"))
	if got := c.Canonical(); !slices.Equal(got, sortedByHand(c)) {
		t.Errorf("changed clone's Canonical = %v, want %v", got, sortedByHand(c))
	}
	if !slices.Equal(g.Canonical(), want) {
		t.Errorf("source's Canonical after its clone changed = %v, want %v", g.Canonical(), want)
	}
}

func TestGraphSortedTriplesIsPrivate(t *testing.T) {
	g := NewGraph(T("b", "p", "c"), T("a", "p", "b"), T("a", "p", "a"))
	want := sortedByHand(g)
	got := g.SortedTriples()
	got[0], got[2] = got[2], got[0]
	_ = append(got[:1], T("x", "x", "x"))
	if !slices.Equal(g.SortedTriples(), want) || !slices.Equal(g.Canonical(), want) {
		t.Errorf("a caller's edit of its SortedTriples shows in the next: %v, want %v", g.SortedTriples(), want)
	}
}

// TestGraphCanonicalConcurrentReaders has the readers of one unchanging graph
// race to fill its memo; run under -race.
func TestGraphCanonicalConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := NewGraph()
	for i := 0; i < 500; i++ {
		g.Add(T(fmt.Sprint("s", rng.Intn(60)), fmt.Sprint("p", rng.Intn(5)), fmt.Sprint("o", rng.Intn(60))))
	}
	want := sortedByHand(g)
	var wg sync.WaitGroup
	for r := 0; r < 32; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !slices.Equal(g.Canonical(), want) || !slices.Equal(g.SortedTriples(), want) || g.String() == "" {
				t.Error("a concurrent reader saw another order")
			}
		}()
	}
	wg.Wait()
}

// TestGraphMatchConcurrentReaders has the readers of one fresh graph race to
// fill both memos, the index through Match and the order under it; run under
// -race.
func TestGraphMatchConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := NewGraph()
	for i := 0; i < 500; i++ {
		g.Add(T(fmt.Sprint("s", rng.Intn(60)), fmt.Sprint("p", rng.Intn(5)), fmt.Sprint("o", rng.Intn(60))))
	}
	want := sortedByHand(g)
	p := NewIRI("p3")
	var wantP []Triple
	for _, tr := range want {
		if tr.P == p {
			wantP = append(wantP, tr)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r%2 == 0 && !slices.Equal(g.Canonical(), want) {
				t.Error("a concurrent reader saw another order")
			}
			if !slices.Equal(g.Match(nil, &p, nil), wantP) || len(g.Predicates()) != 5 {
				t.Error("a concurrent reader saw another index")
			}
		}()
	}
	wg.Wait()
}

// Property: Match(s,p,o) equals the brute-force filter for random graphs and
// random patterns.
func TestGraphMatchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d", "e"}
	randTerm := func() Term { return NewIRI(names[rng.Intn(len(names))]) }
	for round := 0; round < 50; round++ {
		g := NewGraph()
		for i := 0; i < 30; i++ {
			g.Add(Triple{S: randTerm(), P: randTerm(), O: randTerm()})
		}
		var s, p, o *Term
		if rng.Intn(2) == 0 {
			v := randTerm()
			s = &v
		}
		if rng.Intn(2) == 0 {
			v := randTerm()
			p = &v
		}
		if rng.Intn(2) == 0 {
			v := randTerm()
			o = &v
		}
		want := 0
		for _, tr := range g.Triples() {
			if (s == nil || tr.S == *s) && (p == nil || tr.P == *p) && (o == nil || tr.O == *o) {
				want++
			}
		}
		if got := len(g.Match(s, p, o)); got != want {
			t.Fatalf("round %d: Match = %d, brute force = %d", round, got, want)
		}
	}
}

func TestTripleStringAndCompare(t *testing.T) {
	tr := T("a", "p", "b")
	if got := tr.String(); got != "<a> <p> <b> ." {
		t.Errorf("Triple.String = %q", got)
	}
	if tr.Compare(tr) != 0 {
		t.Error("triple should equal itself")
	}
	if T("a", "p", "b").Compare(T("a", "p", "c")) >= 0 {
		t.Error("object tie-break wrong")
	}
	if T("a", "p", "b").Compare(T("a", "q", "a")) >= 0 {
		t.Error("predicate tie-break wrong")
	}
}

// Property-based: adding a set of triples in any order yields equal graphs.
func TestGraphOrderInsensitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ts []Triple
		for i := 0; i < 20; i++ {
			ts = append(ts, T(
				fmt.Sprintf("s%d", rng.Intn(5)),
				fmt.Sprintf("p%d", rng.Intn(3)),
				fmt.Sprintf("o%d", rng.Intn(5))))
		}
		g := NewGraph(ts...)
		perm := rng.Perm(len(ts))
		h := NewGraph()
		for _, i := range perm {
			h.Add(ts[i])
		}
		return g.Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGraphRemove(t *testing.T) {
	g := NewGraph(
		T("a", "p", "b"),
		T("a", "p", "c"),
		T("a", "q", "b"),
		T("b", "p", "c"),
	)
	if n := g.Remove(T("a", "p", "b"), T("x", "y", "z"), T("a", "p", "b")); n != 1 {
		t.Errorf("Remove returned %d, want 1 (absent and repeated triples are no-ops)", n)
	}
	if g.Len() != 3 || g.Has(T("a", "p", "b")) {
		t.Errorf("Len = %d after remove, Has(removed) = %v", g.Len(), g.Has(T("a", "p", "b")))
	}
	// Every index must forget the triple.
	s, p, b := NewIRI("a"), NewIRI("p"), NewIRI("b")
	if got := g.Match(&s, &p, nil); len(got) != 1 {
		t.Errorf("byS/bySP stale after remove: %v", got)
	}
	if got := g.Match(nil, &p, &b); len(got) != 0 {
		t.Errorf("byPO stale after remove: %v", got)
	}
	if got := g.Match(nil, nil, &b); len(got) != 1 {
		t.Errorf("byO stale after remove: %v", got)
	}
	checkIndexes(t, "Remove", g)
	g.Remove(T("a", "q", "b")) // the last triple of predicate q and of object b
	checkIndexes(t, "Remove of a predicate's last triple", g)
	g.Remove(g.Triples()...)
	if g.Len() != 0 || len(g.Match(nil, nil, nil)) != 0 {
		t.Errorf("graph not empty after removing everything: %v", g.Triples())
	}
	checkIndexes(t, "Remove of everything", g)
	// Removing from empty and re-adding round-trips.
	if n := g.Remove(T("a", "p", "b")); n != 0 {
		t.Errorf("Remove on empty = %d", n)
	}
	g.Add(T("a", "p", "b"))
	if !g.Has(T("a", "p", "b")) {
		t.Error("re-add after full removal failed")
	}
	checkIndexes(t, "re-Add", g)
}

// Match-returned slices must survive a later Remove (readers hold them while
// the store commits new epochs against cloned graphs, but even same-graph
// removal must not clobber shared backing arrays): on every access path.
func TestGraphRemoveDoesNotClobberMatchResults(t *testing.T) {
	s, p, b := NewIRI("a"), NewIRI("p"), NewIRI("b")
	for name, pat := range map[string][3]*Term{
		"byS": {&s, nil, nil}, "byP": {nil, &p, nil}, "byO": {nil, nil, &b},
		"bySP": {&s, &p, nil}, "byPO": {nil, &p, &b}, "byS filtered": {&s, nil, &b},
	} {
		g := NewGraph(T("a", "p", "b"), T("a", "p", "c"), T("a", "p", "d"), T("a", "q", "b"), T("c", "p", "b"))
		got := g.Match(pat[0], pat[1], pat[2])
		if len(got) < 2 {
			t.Fatalf("%s: Match = %v, want at least 2", name, got)
		}
		snapshot := slices.Clone(got)
		g.Remove(T("a", "p", "b"))
		g.Add(T("a", "p", "a"))
		g.Match(pat[0], pat[1], pat[2]) // rebuilds the index
		if !slices.Equal(got, snapshot) {
			t.Errorf("%s: Remove changed a previously returned Match slice: %v, was %v", name, got, snapshot)
		}
	}
}

// Property-based: removing a random subset leaves exactly the complement.
func TestGraphRemoveComplement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ts []Triple
		for i := 0; i < 24; i++ {
			ts = append(ts, T(
				fmt.Sprintf("s%d", rng.Intn(4)),
				fmt.Sprintf("p%d", rng.Intn(3)),
				fmt.Sprintf("o%d", rng.Intn(4))))
		}
		g := NewGraph(ts...)
		all := g.SortedTriples()
		var gone, kept []Triple
		for _, tr := range all {
			if rng.Intn(2) == 0 {
				gone = append(gone, tr)
			} else {
				kept = append(kept, tr)
			}
		}
		if n := g.Remove(gone...); n != len(gone) {
			return false
		}
		return g.Equal(NewGraph(kept...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
