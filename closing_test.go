package repro

import (
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/workload"
)

// TestClosedOntologyEvaluations is the closed-vs-deepened differential on the
// programs the paper is about: SPARQL under the OWL 2 QL core regime over the
// university ontologies of E4 and of the benchmark. τ_owl2ql_core has an
// infinite chase, every one of these evaluations is ended by a closing pass on
// rung 1 right after the probe at depth 0, and its ground part must be the one
// the chase four levels deeper has and the one the direct DL-LiteR reasoner
// computes. (ProofTree is no oracle here: it does not certify a single type
// atom of these programs within 50 M visits — ROADMAP item 3 — so it certifies
// closed evaluations where it finishes, in internal/triq.) The transport query
// has no existential rule: its chase terminates in one step at depth 2, no
// probe or pass runs, and its Stats are what they were before there was one.
func TestClosedOntologyEvaluations(t *testing.T) {
	for _, depts := range []int{1, 2, 4} {
		o := workload.University(depts, 2, 3, false)
		r := owl.NewReasoner(o)
		db := translate.DB(o.ToGraph())
		for _, class := range []string{"person", "employee", "student"} {
			t.Run(fmt.Sprintf("university-%d/%s", depts, class), func(t *testing.T) {
				tr, err := translate.Translate(sparql.BGP{Triples: []sparql.TriplePattern{
					sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI(class)),
				}}, translate.ActiveDomain)
				if err != nil {
					t.Fatal(err)
				}
				prog := tr.Query.Program
				gr, err := chase.StableGround(db, prog, chase.Options{}, 2)
				skipInjected(t, err)
				if err != nil {
					t.Fatal(err)
				}
				steps := gr.Stats.Deepening
				if !gr.Exact || gr.Inconsistent || gr.Depth != 0 || len(steps) != 2 || !steps[1].Closing || !steps[1].Coarse || steps[1].NewGround != 0 {
					t.Fatalf("want the probe and a closing pass on rung 1, exact at depth 0: depth %d, exact %v, steps %+v", gr.Depth, gr.Exact, steps)
				}
				far, err := chase.GroundSemantics(db, prog, chase.Options{MaxDepth: gr.Depth + 4})
				skipInjected(t, err)
				if err != nil {
					t.Fatal(err)
				}
				if far.Exact || !gr.Ground().Equal(far.Ground()) {
					t.Errorf("closed with %d ground atoms; the chase to depth %d has %d (and must not terminate: %v)",
						gr.Ground().Len(), gr.Depth+4, far.Ground().Len(), far.Exact)
				}
				// The direct DL-LiteR reasoner decides membership without chasing:
				// type(a, B) is in the closed ground part exactly when it says so,
				// for every individual and every basic class, ∃R and ∃R⁻ included.
				for _, a := range o.Individuals() {
					for _, b := range o.BasicClasses() {
						atom := datalog.NewAtom("type", datalog.C(a), datalog.C(b.URI()))
						if has, want := gr.Ground().Has(atom), r.Member(a, b); has != want {
							t.Errorf("%v: closed ground part %v, reasoner %v", atom, has, want)
						}
					}
				}
				if got, want := len(gr.GroundAtomsOf(tr.Query.Output)), len(r.Members(owl.Atom(class))); got != want {
					t.Errorf("%d answers, the reasoner has %d members of %s", got, want, class)
				}
			})
		}
	}
	t.Run("transport", func(t *testing.T) {
		db, q := workload.Transport(16, 3, 6), workload.TransportQuery()
		gr, err := chase.StableGround(db, q.Program, chase.Options{}, 2)
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
		if steps := gr.Stats.Deepening; !gr.Exact || gr.Depth != 2 || len(steps) != 1 || steps[0].Closing || gr.Stats.NullsInvented != 0 || gr.Stats.DepthTruncated {
			t.Errorf("a terminating chase takes one step and no pass: %+v", steps)
		}
	})
}
