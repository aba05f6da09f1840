package translate_test

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
)

func regimeOpts() triq.Options {
	return triq.Options{Chase: chase.Options{MaxDepth: 16}}
}

// animalsGraph is the graph (14) of Section 5.2: dog is an animal, and every
// animal eats something — serialized with full vocabulary triples.
func animalsGraph() *rdf.Graph {
	o := owl.NewOntology().Add(
		owl.ClassAssertion(owl.Atom("animal"), "dog"),
		owl.SubClassOf(owl.Atom("animal"), owl.Some(owl.Prop("eats"))),
	)
	return o.ToGraph()
}

func evalRegime(t *testing.T, p sparql.Pattern, g *rdf.Graph, r translate.Regime) *sparql.MappingSet {
	t.Helper()
	got, inconsistent, err := evalSPARQL(g, p, r, regimeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if inconsistent {
		t.Fatal("unexpected inconsistency")
	}
	return got
}

func TestActiveDomainRegimeSection52(t *testing.T) {
	g := animalsGraph()
	// (?X, eats, _:B) is empty under the active-domain regime: the eater's
	// witness is anonymous.
	pBlank := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("eats"), sparql.Blank("B")),
	}}
	if got := evalRegime(t, pBlank, g, translate.ActiveDomain); got.Len() != 0 {
		t.Errorf("⟦(?X, eats, _:B)⟧^U should be empty, got %s", got)
	}
	// (?X, rdf:type, ∃eats) retrieves dog.
	pType := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI("∃eats")),
	}}
	got := evalRegime(t, pType, g, translate.ActiveDomain)
	if got.Len() != 1 || !got.Has(sparql.Mapping{"?X": rdf.NewIRI("dog")}) {
		t.Errorf("⟦(?X, rdf:type, ∃eats)⟧^U = %s, want {dog}", got)
	}
}

func TestAllRegimeLiftsActiveDomain(t *testing.T) {
	g := animalsGraph()
	// Under ⟦·⟧^All the blank node is a true existential, so dog is found
	// (Section 5.3 motivation).
	pBlank := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("eats"), sparql.Blank("B")),
	}}
	got := evalRegime(t, pBlank, g, translate.All)
	if got.Len() != 1 || !got.Has(sparql.Mapping{"?X": rdf.NewIRI("dog")}) {
		t.Errorf("⟦(?X, eats, _:B)⟧^All = %s, want {dog}", got)
	}
}

func TestAllRegimeHerbivores(t *testing.T) {
	// The Section 5.3 query Q = {(?X, eats, _:B), (_:B, rdf:type,
	// plant_material)} over the herbivores ontology with
	// (∃eats⁻, rdfs:subClassOf, plant_material): the witness is anonymous
	// AND its class membership is derived.
	o := owl.NewOntology().Add(
		owl.ClassAssertion(owl.Atom("animal"), "rex"),
		owl.SubClassOf(owl.Atom("animal"), owl.Some(owl.Prop("eats"))),
		owl.SubClassOf(owl.Some(owl.Inv("eats")), owl.Atom("plant_material")),
	)
	g := o.ToGraph()
	q := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("eats"), sparql.Blank("B")),
		sparql.TP(sparql.Blank("B"), sparql.IRI("rdf:type"), sparql.IRI("plant_material")),
	}}
	got := evalRegime(t, q, g, translate.All)
	if got.Len() != 1 || !got.Has(sparql.Mapping{"?X": rdf.NewIRI("rex")}) {
		t.Errorf("⟦Q⟧^All = %s, want {rex}", got)
	}
	// Under the active-domain regime the same query is empty.
	if got := evalRegime(t, q, g, translate.ActiveDomain); got.Len() != 0 {
		t.Errorf("⟦Q⟧^U = %s, want empty", got)
	}
}

func TestRegimeCoauthorsSection2(t *testing.T) {
	// Graph G3 of Section 2: the restriction axiom makes dbAho an author of
	// something, so the authors query finds both authors under the regime
	// but only dbUllman without it.
	o := owl.NewOntology().Add(
		owl.SubClassOf(owl.Some(owl.Prop("is_coauthor_of")), owl.Some(owl.Prop("is_author_of"))),
		owl.PropertyAssertion("is_author_of", "dbUllman", "tcb"),
		owl.PropertyAssertion("name", "dbUllman", "jeff"),
		owl.PropertyAssertion("is_coauthor_of", "dbAho", "dbUllman"),
		owl.PropertyAssertion("name", "dbAho", "alfred"),
	)
	g := o.ToGraph()
	// Query (1): SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }.
	p := sparql.Select{Proj: []string{"?X"}, P: sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("Y"), sparql.IRI("is_author_of"), sparql.Var("Z")),
		sparql.TP(sparql.Var("Y"), sparql.IRI("name"), sparql.Var("X")),
	}}}
	plain := evalRegime(t, p, g, translate.Plain)
	if plain.Len() != 1 || !plain.Has(sparql.Mapping{"?X": rdf.NewIRI("jeff")}) {
		t.Errorf("plain answers = %s", plain)
	}
	// Under the regime, dbAho's authorship is implied, but its witness is
	// anonymous — so the ?Z variable cannot be bound under U…
	u := evalRegime(t, p, g, translate.ActiveDomain)
	if u.Len() != 1 {
		t.Errorf("U answers = %s", u)
	}
	// …whereas replacing (?Y is_author_of ?Z) with a blank node finds both
	// names under All.
	pAll := sparql.Select{Proj: []string{"?X"}, P: sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("Y"), sparql.IRI("is_author_of"), sparql.Blank("B")),
		sparql.TP(sparql.Var("Y"), sparql.IRI("name"), sparql.Var("X")),
	}}}
	all := evalRegime(t, pAll, g, translate.All)
	if all.Len() != 2 || !all.Has(sparql.Mapping{"?X": rdf.NewIRI("alfred")}) {
		t.Errorf("All answers = %s", all)
	}
}

func TestRegimeSameAs(t *testing.T) {
	// The owl:sameAs scenario of Section 2 expressed through subproperties
	// is out of OWL 2 QL core scope, but the regime still answers queries
	// over subPropertyOf reasoning; check a knows ⊒ is_coauthor_of case.
	o := owl.NewOntology().Add(
		owl.SubPropertyOf(owl.Prop("is_coauthor_of"), owl.Prop("knows")),
		owl.PropertyAssertion("is_coauthor_of", "aho", "ullman"),
	)
	g := o.ToGraph()
	p := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("knows"), sparql.Var("Y")),
	}}
	got := evalRegime(t, p, g, translate.ActiveDomain)
	if got.Len() != 1 || !got.Has(sparql.Mapping{"?X": rdf.NewIRI("aho"), "?Y": rdf.NewIRI("ullman")}) {
		t.Errorf("knows answers = %s", got)
	}
	// Inverse direction via knows⁻.
	pInv := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("knows⁻"), sparql.Var("Y")),
	}}
	got = evalRegime(t, pInv, g, translate.ActiveDomain)
	if got.Len() != 1 || !got.Has(sparql.Mapping{"?X": rdf.NewIRI("ullman"), "?Y": rdf.NewIRI("aho")}) {
		t.Errorf("knows⁻ answers = %s", got)
	}
}

func TestRegimeInconsistency(t *testing.T) {
	o := owl.NewOntology().Add(
		owl.DisjointClasses(owl.Atom("cat"), owl.Atom("dog")),
		owl.ClassAssertion(owl.Atom("cat"), "rex"),
		owl.ClassAssertion(owl.Atom("dog"), "rex"),
	)
	g := o.ToGraph()
	p := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI("dog")),
	}}
	_, inconsistent, err := evalSPARQL(g, p, translate.ActiveDomain, regimeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !inconsistent {
		t.Error("disjointness violation should surface as ⊤")
	}
}

// TestRegimeAgreesWithOracle compares the translated regime evaluation with
// the direct DL-LiteR reasoner on single-triple patterns (the shape for
// which the oracle directly defines the semantics).
func TestRegimeAgreesWithOracle(t *testing.T) {
	o := owl.NewOntology().Add(
		owl.SubClassOf(owl.Atom("dog"), owl.Atom("animal")),
		owl.SubClassOf(owl.Atom("animal"), owl.Some(owl.Prop("eats"))),
		owl.SubPropertyOf(owl.Prop("feeds_on"), owl.Prop("eats")),
		owl.ClassAssertion(owl.Atom("dog"), "rex"),
		owl.PropertyAssertion("feeds_on", "bess", "grass"),
	)
	g := o.ToGraph()
	r := owl.NewReasoner(o)
	inds := o.Individuals()
	for _, b := range o.BasicClasses() {
		p := sparql.BGP{Triples: []sparql.TriplePattern{
			sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI(b.URI())),
		}}
		got := evalRegime(t, p, g, translate.ActiveDomain)
		for _, a := range inds {
			want := r.Member(a, b)
			has := got.Has(sparql.Mapping{"?X": rdf.NewIRI(a)})
			if want != has {
				t.Errorf("type(%s, %s): regime=%v oracle=%v", a, b.URI(), has, want)
			}
		}
	}
	for _, prop := range o.BasicProperties() {
		p := sparql.BGP{Triples: []sparql.TriplePattern{
			sparql.TP(sparql.Var("X"), sparql.IRI(prop.URI()), sparql.Var("Y")),
		}}
		got := evalRegime(t, p, g, translate.ActiveDomain)
		for _, a := range inds {
			for _, b := range inds {
				want := r.Role(prop, a, b)
				has := got.Has(sparql.Mapping{"?X": rdf.NewIRI(a), "?Y": rdf.NewIRI(b)})
				if want != has {
					t.Errorf("%s(%s, %s): regime=%v oracle=%v", prop.URI(), a, b, has, want)
				}
			}
		}
	}
}
