package owl

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/rdf"
)

// encodingGraph is a graph whose terms collide as constants: an IRI spelled
// like a literal, and one spelled like a blank node.
func encodingGraph(seed int64) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	term := func() rdf.Term {
		switch k := rng.Intn(20); rng.Intn(5) {
		case 0:
			return rdf.NewLiteral(fmt.Sprint("l", k))
		case 1:
			return rdf.NewBlank(fmt.Sprint("b", k))
		case 2:
			return rdf.NewIRI(fmt.Sprintf(`"l%d"`, k))
		case 3:
			return rdf.NewIRI(fmt.Sprint("_:b", k))
		default:
			return rdf.NewIRI(fmt.Sprint("i", k))
		}
	}
	g := rdf.NewGraph()
	for range 400 {
		g.Add(rdf.NewTriple(term(), rdf.NewIRI(fmt.Sprint("p", rng.Intn(4))), term()))
	}
	return g
}

// referenceDB is τ_db(G) through the atoms.
func referenceDB(t *testing.T, g *rdf.Graph) *chase.Instance {
	t.Helper()
	db, err := chase.FromFacts(GraphToDB(g))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEncodingMatchesGraphToDB pins that the encoding is GraphToDB(g) with
// each repeated atom kept where it first occurs, so that it loads to exactly
// FromFacts(GraphToDB(g)). The graphs spell IRIs like literals and blank
// nodes, so triples collide as atoms; FromRows drops no row, so the encoding
// must.
func TestEncodingMatchesGraphToDB(t *testing.T) {
	collided := 0
	for seed := range int64(20) {
		g := encodingGraph(seed)
		e := encodingOf(g)
		var atoms []datalog.Atom // GraphToDB(g), each atom once
		for _, a := range GraphToDB(g) {
			if !slices.ContainsFunc(atoms, a.Equal) {
				atoms = append(atoms, a)
			}
		}
		collided += g.Len() - len(atoms)
		if len(e.rows) != 3*len(atoms) {
			t.Fatalf("seed %d: %d ids for %d distinct atoms", seed, len(e.rows), len(atoms))
		}
		var seen []datalog.Term // the constants in order of first occurrence
		for n, a := range atoms {
			for j, c := range a.Args {
				if got := e.dict.Terms()[e.rows[3*n+j]]; got != c {
					t.Fatalf("seed %d: atom %d position %d decodes to %v, want %v", seed, n, j, got, c)
				}
				if !slices.Contains(seen, c) {
					seen = append(seen, c)
				}
			}
		}
		if !slices.Equal(e.dict.Terms(), seen) {
			t.Fatalf("seed %d: constants %v, want them once each in order of first occurrence %v", seed, e.dict.Terms(), seen)
		}
		db, want := DB(g), referenceDB(t, g)
		if db.String() != want.String() || !db.Equal(want) || db.Len() != want.Len() {
			t.Fatalf("seed %d: DB holds\n%v\nwant\n%v", seed, db, want)
		}
		if got, want := fmt.Sprint(db.AtomsOf("triple")), fmt.Sprint(want.AtomsOf("triple")); got != want {
			t.Fatalf("seed %d: DB lists its atoms as\n%s\nwant\n%s", seed, got, want)
		}
		for _, c := range e.dict.Terms() {
			for pos := range 3 {
				if got, want := fmt.Sprint(db.Lookup("triple", pos, c)), fmt.Sprint(want.Lookup("triple", pos, c)); got != want {
					t.Fatalf("seed %d: Lookup(triple, %d, %v) = %s, want %s", seed, pos, c, got, want)
				}
			}
		}
	}
	if collided == 0 {
		t.Fatal("no two triples collided as atoms: the graphs test no repeated row")
	}
}

// TestEncodingConcurrentFirstLoad has the readers of one fresh graph race to
// make its first load, filling the canonical order and the encoding, and then
// write into their loads at once: each interns terms of its own and chases a
// layer over its load, all of them over the one shared dictionary. Run under
// -race.
func TestEncodingConcurrentFirstLoad(t *testing.T) {
	g := encodingGraph(34)
	ref := referenceDB(t, rdf.NewGraph(g.Triples()...))
	want := ref.String()
	prog := datalog.MustParse(`triple(?X, p0, ?Y) -> exists ?Z reach(?Y, ?Z), mark(?X, seen).`)
	var wg sync.WaitGroup
	for n := range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db := DB(g)
			own := datalog.C(fmt.Sprint("own", n))
			db.Add(datalog.NewAtom("triple", own, datalog.C("p0"), datalog.C(fmt.Sprint("row", n))))
			res, err := chase.RunCtx(context.Background(), db, prog, chase.Options{}) // a layer over db
			if err != nil {
				t.Error(err)
				return
			}
			if !res.Instance.Has(datalog.NewAtom("mark", own, datalog.C("seen"))) || res.Instance.Has(datalog.NewAtom("mark", datalog.C(fmt.Sprint("own", (n+1)%32)), datalog.C("seen"))) {
				t.Errorf("load %d's chase misses its own term or sees another load's", n)
			}
			if db.Len() != ref.Len()+1 {
				t.Errorf("a concurrent load holds %d facts, want %d", db.Len(), ref.Len()+1)
			}
			if got := DB(g).String(); got != want {
				t.Errorf("a concurrent load saw another database:\n%s", got)
			}
		}()
	}
	wg.Wait()
}

// TestEncodingLifecycle pins the memo's lifecycle: kept while the graph is
// unchanged, carried by Clone, dropped by Add and Remove, and never written,
// so an instance loaded before a mutation is intact after it.
func TestEncodingLifecycle(t *testing.T) {
	g := encodingGraph(7)
	e := encodingOf(g)
	if encodingOf(g) != e {
		t.Fatal("an unchanged graph encoded twice")
	}
	consts, rows := slices.Clone(e.dict.Terms()), slices.Clone(e.rows)
	before := DB(g)
	snapshot := before.String()

	h := g.Clone()
	if encodingOf(h) != e {
		t.Fatal("Clone did not carry the encoding")
	}
	extra := rdf.T("fresh", "p0", "i1")
	h.Add(extra)
	if encodingOf(h) == e || !DB(h).Has(TripleAtom(extra)) {
		t.Fatal("Add kept the encoding of the graph without the triple")
	}
	if encodingOf(g) != e {
		t.Fatal("changing a clone dropped the original's encoding")
	}

	gone := g.Canonical()[0]
	g.Remove(gone)
	if encodingOf(g) == e || DB(g).Has(TripleAtom(gone)) {
		t.Fatal("Remove kept the encoding of the graph with the triple")
	}
	if got := DB(g).String(); got != referenceDB(t, g).String() {
		t.Fatalf("after Remove, DB holds\n%s", got)
	}
	if before.String() != snapshot || !slices.Equal(e.dict.Terms(), consts) || !slices.Equal(e.rows, rows) {
		t.Fatal("an instance loaded before Remove, or the encoding under it, changed")
	}
}
