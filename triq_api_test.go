package repro

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/limits"
)

const transportData = `
TheAirline partOf transportService .
BritishAirways partOf transportService .
Renfe partOf transportService .
A311 partOf TheAirline .
BA201 partOf BritishAirways .
R502 partOf Renfe .
Oxford A311 London .
London BA201 Madrid .
Madrid R502 Valladolid .
`

const transportProgram = `
triple(?X, partOf, transportService) -> ts(?X).
triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
conn(?X, ?Y) -> query(?X, ?Y).
`

func TestPublicAPIQuickstart(t *testing.T) {
	g, err := ParseGraph(transportData)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(transportProgram, "query")
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(q, TriQLite10); err != nil {
		t.Fatal(err)
	}
	res, err := AskCtx(context.Background(), g, q, TriQLite10, Options{})
	if errors.Is(err, limits.ErrInjected) {
		t.Skip("injected fault (TRIQ_FAULTS armed)")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconsistent {
		t.Fatal("unexpected ⊤")
	}
	if len(res.Tuples) != 6 {
		t.Errorf("answers = %v", res.Rows())
	}
	joined := strings.Join(res.Rows(), "\n")
	if !strings.Contains(joined, "<Oxford> <Valladolid>") {
		t.Errorf("missing Oxford→Valladolid:\n%s", joined)
	}
}

func TestPublicAPISPARQL(t *testing.T) {
	g, err := ParseGraph(`
		dbUllman is_author_of "The Complete Book" .
		dbUllman name "Jeffrey Ullman" .
	`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseSPARQL(`SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }`)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := EvalSPARQL(q, g)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Len() != 1 {
		t.Errorf("direct answers = %s", direct)
	}
	viaDatalog, inconsistent, err := AskSPARQLCtx(context.Background(), q, g, PlainRegime, Options{})
	if err != nil || inconsistent {
		t.Fatal(err, inconsistent)
	}
	if !direct.Equal(viaDatalog) {
		t.Errorf("translation disagrees:\n%s\nvs\n%s", direct, viaDatalog)
	}
}

func TestPublicAPIConstruct(t *testing.T) {
	g, _ := ParseGraph(`
		dbUllman is_author_of tcb .
		dbUllman name jeff .
	`)
	q, err := ParseSPARQL(`CONSTRUCT { ?X name_author ?Z } WHERE { ?Y is_author_of ?Z . ?Y name ?X }`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Construct(q, g)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Errorf("constructed:\n%s", out)
	}
}

func TestPublicAPIProver(t *testing.T) {
	g, _ := ParseGraph(`a follows b .`)
	prog, err := ParseProgram(`
		triple(?X, follows, ?Y) -> exists ?Z triple(?Y, follows2, ?Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := NewProver(g, prog)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := pv.ProvesCtx(t.Context(), datalog.MustParseAtom(`triple(a, follows, b)`))
	if err != nil || !ok {
		t.Errorf("database fact should be provable: %v %v", ok, err)
	}
	node, ok, err := pv.ProveCtx(t.Context(), datalog.MustParseAtom(`triple(a, follows, b)`))
	if err != nil || !ok || node == nil {
		t.Errorf("ProveCtx should return a tree: %v %v %v", node, ok, err)
	}
}
