package repro

import (
	"strings"
	"testing"

	"repro/internal/chase"
)

func TestFacadePaths(t *testing.T) {
	g, _ := ParseGraph("a knows b .\nb knows c .")
	p, err := ParsePath("knows+")
	if err != nil {
		t.Fatal(err)
	}
	if got := EvalPath(g, p); len(got) != 3 {
		t.Errorf("knows+ = %v", got.Sorted())
	}
	if _, err := ParsePath("((("); err == nil {
		t.Error("bad path should error")
	}
}

func TestFacadeNRE(t *testing.T) {
	g, _ := ParseGraph("a p b .\np subPropertyOf r .")
	e, err := ParseNRE("next::[ next::subPropertyOf / self::r ]")
	if err != nil {
		t.Fatal(err)
	}
	if got := EvalNRE(g, e); len(got) != 1 {
		t.Errorf("NRE = %v", got.Sorted())
	}
}

func TestFacadeOntology(t *testing.T) {
	o, err := ParseOntology(`
		SubClassOf(dog, animal)
		ClassAssertion(dog, rex)
	`)
	if err != nil {
		t.Fatal(err)
	}
	g := o.ToGraph()
	q, _ := ParseSPARQL(`SELECT ?X WHERE { ?X rdf:type animal }`)
	ms, inconsistent, err := AskSPARQL(q, g, ActiveDomainRegime, Options{Chase: chase.Options{MaxDepth: 8}})
	skipInjected(t, err)
	if err != nil || inconsistent {
		t.Fatal(err, inconsistent)
	}
	if ms.Len() != 1 {
		t.Errorf("answers = %s", ms)
	}
	if OntologyProgram() == nil || RDFSProgram() == nil {
		t.Error("fixed programs missing")
	}
}

func TestFacadeRDFSRegime(t *testing.T) {
	g, _ := ParseGraph(`
		spaniel rdfs:subClassOf dog .
		rex rdf:type spaniel .
	`)
	q, _ := ParseSPARQL(`SELECT ?X WHERE { ?X rdf:type dog }`)
	ms, _, err := AskSPARQL(q, g, RDFSRegime, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Len() != 1 {
		t.Errorf("answers = %s", ms)
	}
}

func TestFacadeConstructTranslation(t *testing.T) {
	g, _ := ParseGraph("u is_author_of tcb .\nu name jeff .")
	q, err := ParseSPARQL(`CONSTRUCT { ?X name_author ?Z } WHERE { ?Y is_author_of ?Z . ?Y name ?X }`)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := TranslateConstruct(q, PlainRegime)
	if err != nil {
		t.Fatal(err)
	}
	out, inconsistent, err := ct.Evaluate(g, Options{})
	if err != nil || inconsistent {
		t.Fatal(err, inconsistent)
	}
	direct, _ := Construct(q, g)
	if !Isomorphic(out, direct) {
		t.Errorf("construct mismatch:\n%s\nvs\n%s", out, direct)
	}
}

func TestFacadeAskExact(t *testing.T) {
	g, _ := ParseGraph("a e b .")
	q, err := ParseQuery(`
		triple(?X, e, ?Y) -> exists ?Z grows(?Y, ?Z).
		grows(?X, ?Z), triple(?W, e, ?X) -> out(?W).
	`, "out")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(t.Context(), g, Request{Query: q, Language: TriQLite10, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || len(res.Tuples) != 1 || res.Tuples[0][0].Value != "a" {
		t.Errorf("exact Eval = %+v", res)
	}
}

func TestFacadeTranslateSPARQL(t *testing.T) {
	q, _ := ParseSPARQL(`SELECT ?X WHERE { ?X p ?Y }`)
	tr, err := TranslateSPARQL(q.Pattern(), PlainRegime)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Vars) != 1 || tr.Vars[0] != "?X" {
		t.Errorf("Vars = %v", tr.Vars)
	}
}

func TestFacadeReadGraph(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("a p b ."))
	if err != nil || g.Len() != 1 {
		t.Fatal(err)
	}
}

func TestFacadeResultsRows(t *testing.T) {
	g, _ := ParseGraph("a p b .")
	q, _ := ParseQuery(`triple(?X, p, ?Y) -> out(?X, ?Y).`, "out")
	res, err := Ask(g, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0] != "<a> <b>" {
		t.Errorf("Rows = %v", rows)
	}
}
