package repro_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/translate"
	"repro/internal/workload"
)

// addedOneByOne is τ_db(G) built the slow way the bulk loader must agree
// with: an empty instance, then Add for every triple in canonical order.
func addedOneByOne(g *repro.Graph) *chase.Instance {
	ref := chase.NewInstance()
	for _, t := range g.SortedTriples() {
		ref.Add(owl.TripleAtom(t))
	}
	return ref
}

func sameAtoms(a, b []datalog.Atom) bool { return slices.EqualFunc(a, b, datalog.Atom.Equal) }

// checkSameBuckets fails unless got holds want's atoms with every
// per-predicate and per-position bucket in the same order.
func checkSameBuckets(t *testing.T, what string, got, want *chase.Instance) {
	t.Helper()
	if got.Len() != want.Len() || !got.Equal(want) {
		t.Fatalf("%s: %d atoms, want the reference's %d:\n%v\nwant\n%v", what, got.Len(), want.Len(), got, want)
	}
	type bucket struct {
		pred string
		pos  int
		term datalog.Term
	}
	checked := make(map[bucket]bool)
	for _, a := range want.All() {
		if byPred := (bucket{pred: a.Pred, pos: -1}); !checked[byPred] {
			checked[byPred] = true
			if g, w := got.AtomsOf(a.Pred), want.AtomsOf(a.Pred); !sameAtoms(g, w) {
				t.Fatalf("%s: AtomsOf(%s) = %v, want %v", what, a.Pred, g, w)
			}
		}
		for pos, term := range a.Args {
			if checked[bucket{a.Pred, pos, term}] {
				continue
			}
			checked[bucket{a.Pred, pos, term}] = true
			if g, w := got.Lookup(a.Pred, pos, term), want.Lookup(a.Pred, pos, term); !sameAtoms(g, w) {
				t.Fatalf("%s: Lookup(%s, %d, %v) = %v, want %v", what, a.Pred, pos, term, g, w)
			}
		}
	}
}

// checkLoad compares every way of loading τ_db(G) with addedOneByOne, then
// appends to the loaded instance: its index buckets share one slab, so an
// append that found spare capacity would overwrite the neighbouring bucket.
func checkLoad(t *testing.T, name string, g *repro.Graph) {
	t.Helper()
	want := addedOneByOne(g)
	got, err := chase.FromFacts(owl.GraphToDB(g))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkSameBuckets(t, name+": FromFacts(GraphToDB)", got, want)
	checkSameBuckets(t, name+": Clone", got.Clone(), want)

	seeded := addedOneByOne(g)
	seeded.Add(datalog.NewAtom("q⊤"))
	checkSameBuckets(t, name+": translate.DB", translate.DB(g), seeded)

	for n, a := range want.All() {
		// One more atom for the buckets of a's subject and predicate, one for
		// the bucket of its object.
		for _, more := range []datalog.Atom{
			datalog.NewAtom("triple", a.Args[0], a.Args[1], datalog.C(fmt.Sprint("new", n))),
			datalog.NewAtom("triple", datalog.C(fmt.Sprint("new", n)), datalog.C("newP"), a.Args[2]),
		} {
			if got.Add(more) != want.Add(more) {
				t.Fatalf("%s: Add(%v) disagrees with the reference", name, more)
			}
		}
	}
	checkSameBuckets(t, name+": after appending", got, want)
}

func TestBulkLoadEqualsAddInCanonicalOrder(t *testing.T) {
	checkLoad(t, "empty", rdf.NewGraph())
	checkLoad(t, "transport", workload.TransportGraph(16, 3, 6, "t"))
	checkLoad(t, "university", workload.University(4, 2, 3, false).ToGraph())
	checkLoad(t, "lookup", lookupGraph(t))

	// Small pools make triples share buckets. The IRI spelled like a literal
	// makes two triples one atom, which either loader must keep once.
	term := func(rng *rand.Rand) rdf.Term {
		switch k := rng.Intn(8); rng.Intn(6) {
		case 0:
			return rdf.NewLiteral(fmt.Sprint("l", k))
		case 1:
			return rdf.NewBlank(fmt.Sprint("b", k))
		case 2:
			return rdf.NewIRI(fmt.Sprintf(`"l%d"`, k))
		default:
			return rdf.NewIRI(fmt.Sprint("i", k))
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		for n := rng.Intn(120); n > 0; n-- {
			g.Add(rdf.NewTriple(term(rng), rdf.NewIRI(fmt.Sprint("p", rng.Intn(4))), term(rng)))
		}
		checkLoad(t, fmt.Sprint("random graph ", seed), g)
	}
}
