package owl

import (
	"context"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
)

func TestProgramParsesAndIsTriQLite(t *testing.T) {
	p := Program()
	if len(p.Rules) == 0 || len(p.Constraints) != 2 {
		t.Fatalf("τ_owl2ql_core shape: %d rules, %d constraints", len(p.Rules), len(p.Constraints))
	}
	// Corollary 5.4 / 6.2: the fixed ontology program is warded (and has no
	// negation at all, so grounded negation holds vacuously).
	if err := datalog.CheckDialect(p, datalog.TriQLite); err != nil {
		t.Errorf("τ_owl2ql_core should be TriQ-Lite 1.0: %v", err)
	}
	if err := datalog.CheckDialect(p, datalog.WeaklyFrontierGuarded); err != nil {
		t.Errorf("τ_owl2ql_core should be TriQ 1.0: %v", err)
	}
	if p.HasNegation() {
		t.Error("τ_owl2ql_core has no negation")
	}
}

// runOntologyProgram chases τ_owl2ql_core over τ_db(o.ToGraph()).
func runOntologyProgram(t *testing.T, o *Ontology) *chase.GroundResult {
	t.Helper()
	db, err := chase.FromFacts(GraphToDB(o.ToGraph()))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := chase.StableGroundCtx(context.Background(), db, Program(), chase.Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// TestProgramAgreesWithReasoner validates τ_owl2ql_core against the direct
// DL-LiteR reasoner: entailed memberships and roles over named individuals
// must coincide.
func TestProgramAgreesWithReasoner(t *testing.T) {
	ontologies := map[string]*Ontology{
		"animals": animalsOntology(),
		"coauthors": NewOntology().Add(
			SubClassOf(Some(Prop("is_coauthor_of")), Some(Prop("is_author_of"))),
			SubPropertyOf(Prop("is_coauthor_of"), Prop("knows")),
			PropertyAssertion("is_coauthor_of", "aho", "ullman"),
			PropertyAssertion("name", "aho", "alfred"),
		),
		"cyclic": NewOntology().Add(
			// a ⊑ ∃p, ∃p⁻ ⊑ a: the canonical model is infinite.
			SubClassOf(Atom("a"), Some(Prop("p"))),
			SubClassOf(Some(Inv("p")), Atom("a")),
			ClassAssertion(Atom("a"), "x"),
		),
		"inverse heavy": NewOntology().Add(
			SubPropertyOf(Inv("child_of"), Prop("parent_of")),
			PropertyAssertion("child_of", "bart", "homer"),
		),
	}
	for name, o := range ontologies {
		t.Run(name, func(t *testing.T) {
			r := NewReasoner(o)
			if !r.Consistent() {
				t.Fatal("test ontology should be consistent")
			}
			gr := runOntologyProgram(t, o)
			if gr.Inconsistent {
				t.Fatal("τ_owl2ql_core flagged a consistent ontology")
			}
			inds := o.Individuals()
			// Memberships: type(a, B) in the chase ⟺ reasoner membership.
			for _, a := range inds {
				for _, b := range o.BasicClasses() {
					chaseHas := gr.Ground().Has(datalog.NewAtom("type", datalog.C(a), datalog.C(b.URI())))
					oracle := r.Member(a, b)
					if chaseHas != oracle {
						t.Errorf("type(%s, %s): chase=%v oracle=%v", a, b.URI(), chaseHas, oracle)
					}
				}
			}
			// Roles: triple1(a, r, b) ⟺ entailed role.
			for _, a := range inds {
				for _, b := range inds {
					for _, p := range o.BasicProperties() {
						chaseHas := gr.Ground().Has(datalog.NewAtom("triple1",
							datalog.C(a), datalog.C(p.URI()), datalog.C(b)))
						oracle := r.Role(p, a, b)
						if chaseHas != oracle {
							t.Errorf("triple1(%s, %s, %s): chase=%v oracle=%v", a, p.URI(), b, chaseHas, oracle)
						}
					}
				}
			}
			// TBox closure: sc(b1, b2) ⟺ entailed subsumption.
			for _, b1 := range o.BasicClasses() {
				for _, b2 := range o.BasicClasses() {
					chaseHas := gr.Ground().Has(datalog.NewAtom("sc",
						datalog.C(b1.URI()), datalog.C(b2.URI())))
					oracle := r.SubClassOf(b1, b2)
					if chaseHas != oracle {
						t.Errorf("sc(%s, %s): chase=%v oracle=%v", b1.URI(), b2.URI(), chaseHas, oracle)
					}
				}
			}
		})
	}
}

func TestProgramDetectsInconsistency(t *testing.T) {
	bad := animalsOntology().Add(
		DisjointClasses(Atom("animal"), Atom("plant_material")),
		ClassAssertion(Atom("plant_material"), "rex"),
	)
	if NewReasoner(bad).Consistent() {
		t.Fatal("oracle should find the inconsistency")
	}
	gr := runOntologyProgram(t, bad)
	if !gr.Inconsistent {
		t.Error("τ_owl2ql_core should derive ⊥")
	}
	badP := NewOntology().Add(
		DisjointProperties(Prop("p"), Prop("q")),
		SubPropertyOf(Prop("p"), Prop("q")),
		PropertyAssertion("p", "x", "y"),
	)
	gr = runOntologyProgram(t, badP)
	if !gr.Inconsistent {
		t.Error("property disjointness should derive ⊥")
	}
}

func TestGraphToDB(t *testing.T) {
	o := NewOntology().Add(PropertyAssertion("p", "a", "b"))
	atoms := GraphToDB(o.ToGraph())
	found := false
	for _, a := range atoms {
		if a.Pred != "triple" || a.Arity() != 3 {
			t.Fatalf("bad db atom %v", a)
		}
		if a.Args[0] == datalog.C("a") && a.Args[1] == datalog.C("p") && a.Args[2] == datalog.C("b") {
			found = true
		}
	}
	if !found {
		t.Error("assertion triple missing from τ_db(G)")
	}
}

// TestLibraryDatabaseParts pins the database part of each regime library: for
// τ_owl2ql_core every rule above "Reasoning about membership assertions", for
// ρdf every rule.
func TestLibraryDatabaseParts(t *testing.T) {
	for _, c := range []struct {
		name string
		lib  *datalog.Library
		n    int
	}{{"τ_owl2ql_core", Library(), 17}, {"ρdf", RDFSLibrary(), len(RDFSProgram().Rules)}} {
		part, rules := c.lib.DatabasePart(), c.lib.Program().Rules
		if len(part) != c.n {
			t.Fatalf("%s: database part of %d rules, want %d", c.name, len(part), c.n)
		}
		for i, r := range part {
			if r.String() != rules[i].String() {
				t.Errorf("%s: database part rule %d is %s, want %s", c.name, i, r, rules[i])
			}
		}
	}
	if !Library().ReadByDatabasePart("triple") || Library().ReadByDatabasePart("type") || Library().ReadByDatabasePart("triple1") {
		t.Error("τ_owl2ql_core's database part reads triple, and neither type nor triple1")
	}
}
