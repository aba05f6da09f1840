package translate

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triq"
)

func TestTranslateConstructNameAuthor(t *testing.T) {
	// The CONSTRUCT example of Section 2 (rule (3)).
	g := rdf.NewGraph(
		rdf.T("dbUllman", "is_author_of", "tcb"),
		rdf.T("dbUllman", "name", "jeff"),
	)
	q := sparql.MustParseQuery(`
		CONSTRUCT { ?X name_author ?Z }
		WHERE { ?Y is_author_of ?Z . ?Y name ?X }
	`)
	ct, err := TranslateConstruct(q, Plain)
	if err != nil {
		t.Fatal(err)
	}
	got, inconsistent, err := ct.Evaluate(g, triq.Options{})
	if err != nil || inconsistent {
		t.Fatal(err, inconsistent)
	}
	want, err := q.Construct(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rdf.Isomorphic(got, want) {
		t.Errorf("translated CONSTRUCT differs:\n%s\nvs\n%s", got, want)
	}
}

func TestTranslateConstructBlankNodes(t *testing.T) {
	// Query (4) of Section 2: fresh shared blank node per match.
	g := rdf.NewGraph(
		rdf.T("dbAho", "is_coauthor_of", "dbUllman"),
		rdf.T("dbX", "is_coauthor_of", "dbY"),
	)
	q := sparql.MustParseQuery(`
		CONSTRUCT { ?X is_author_of _:B . ?Y is_author_of _:B }
		WHERE { ?X is_coauthor_of ?Y }
	`)
	ct, err := TranslateConstruct(q, Plain)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ct.Evaluate(g, triq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := q.Construct(g)
	if !rdf.Isomorphic(got, want) {
		t.Errorf("blank-node CONSTRUCT differs:\n%s\nvs\n%s", got, want)
	}
	if got.Len() != 4 {
		t.Errorf("expected 4 triples, got\n%s", got)
	}
}

func TestTranslateConstructOptionalTemplate(t *testing.T) {
	// Template triples with variables unbound in some domains are skipped
	// per domain, matching the SPARQL semantics.
	g := rdf.NewGraph(
		rdf.T("u1", "name", "alice"),
		rdf.T("u1", "phone", "tel1"),
		rdf.T("u2", "name", "bob"),
	)
	q := sparql.MustParseQuery(`
		CONSTRUCT { ?X hasName ?N . ?X hasPhone ?P }
		WHERE { ?X name ?N OPTIONAL { ?X phone ?P } }
	`)
	ct, err := TranslateConstruct(q, Plain)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ct.Evaluate(g, triq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := q.Construct(g)
	if !rdf.Isomorphic(got, want) {
		t.Errorf("OPT CONSTRUCT differs:\n%s\nvs\n%s", got, want)
	}
}

func TestTranslateConstructUnderRegime(t *testing.T) {
	// Materialize the implied eats-triples of the Section 5.2 ontology into
	// a new graph.
	o := owl.NewOntology().Add(
		owl.ClassAssertion(owl.Atom("animal"), "dog"),
		owl.SubClassOf(owl.Atom("animal"), owl.Some(owl.Prop("eats"))),
	)
	g := o.ToGraph()
	q := sparql.MustParseQuery(`
		CONSTRUCT { ?X mustEat somethingEdible }
		WHERE { ?X rdf:type ∃eats }
	`)
	ct, err := TranslateConstruct(q, ActiveDomain)
	if err != nil {
		t.Fatal(err)
	}
	got, inconsistent, err := ct.Evaluate(g, triq.Options{Chase: chase.Options{MaxDepth: 10}})
	if err != nil || inconsistent {
		t.Fatal(err, inconsistent)
	}
	if !got.Has(rdf.T("dog", "mustEat", "somethingEdible")) {
		t.Errorf("implied membership not constructed:\n%s", got)
	}
}

func TestTranslateConstructRejectsSelect(t *testing.T) {
	q := sparql.MustParseQuery(`SELECT * WHERE { ?X p ?Y }`)
	if _, err := TranslateConstruct(q, Plain); err == nil {
		t.Error("SELECT must be rejected")
	}
}
