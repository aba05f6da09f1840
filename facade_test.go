package repro

import (
	"context"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
)

func TestFacadePaths(t *testing.T) {
	g, _ := ParseGraph("a knows b .\nb knows c .")
	p, err := sparql.ParsePath("knows+")
	if err != nil {
		t.Fatal(err)
	}
	if got := sparql.EvalPath(g, p); len(got) != 3 {
		t.Errorf("knows+ = %v", got.Sorted())
	}
	if _, err := sparql.ParsePath("((("); err == nil {
		t.Error("bad path should error")
	}
}

func TestFacadeNRE(t *testing.T) {
	g, _ := ParseGraph("a p b .\np subPropertyOf r .")
	e, err := sparql.ParseNRE("next::[ next::subPropertyOf / self::r ]")
	if err != nil {
		t.Fatal(err)
	}
	if got := sparql.EvalNRE(g, e); len(got) != 1 {
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
	ms, inconsistent, err := AskSPARQLCtx(context.Background(), q, g, ActiveDomainRegime, Options{Chase: chase.Options{MaxDepth: 8}})
	skipInjected(t, err)
	if err != nil || inconsistent {
		t.Fatal(err, inconsistent)
	}
	if ms.Len() != 1 {
		t.Errorf("answers = %s", ms)
	}
}

func TestFacadeRDFSRegime(t *testing.T) {
	g, _ := ParseGraph(`
		spaniel rdfs:subClassOf dog .
		rex rdf:type spaniel .
	`)
	q, _ := ParseSPARQL(`SELECT ?X WHERE { ?X rdf:type dog }`)
	ms, _, err := AskSPARQLCtx(context.Background(), q, g, RDFSRegime, Options{})
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
	ct, err := translate.TranslateConstruct(q, PlainRegime)
	if err != nil {
		t.Fatal(err)
	}
	out, inconsistent, err := ct.Evaluate(g, Options{})
	if err != nil || inconsistent {
		t.Fatal(err, inconsistent)
	}
	direct, _ := Construct(q, g)
	if !rdf.Isomorphic(out, direct) {
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
	res, err := Eval(t.Context(), g, Request{Query: q, Language: TriQLite10, Options: Options{Exact: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || len(res.Tuples) != 1 || res.Tuples[0][0].Value != "a" {
		t.Errorf("exact Eval = %+v", res)
	}
}

func TestFacadeReadGraph(t *testing.T) {
	g, err := rdf.ParseNTriples(strings.NewReader("a p b ."))
	if err != nil || g.Len() != 1 {
		t.Fatal(err)
	}
}

func TestFacadeResultsRows(t *testing.T) {
	g, _ := ParseGraph("a p b .")
	q, _ := ParseQuery(`triple(?X, p, ?Y) -> out(?X, ?Y).`, "out")
	res, err := AskCtx(context.Background(), g, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0] != "<a> <b>" {
		t.Errorf("Rows = %v", rows)
	}
}

// TestConstructDeterministic: CONSTRUCT numbers its template blanks in the
// order the WHERE clause matches, and a pattern of three variables matches
// the whole graph, so the output is the same on every run only if that match
// lists the graph in one order.
func TestConstructDeterministic(t *testing.T) {
	g, _ := ParseGraph("alice worksAt acme .\nalice email \"alice@example.org\" .\nbob worksAt initech .")
	q, err := ParseSPARQL(`CONSTRUCT { _:B ?P ?O } WHERE { ?S ?P ?O }`)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 50; i++ {
		out, err := Construct(q, g)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.String()
		} else if got := out.String(); got != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, got, first)
		}
	}
}

// countingMat is a triq.Materializer that counts the calls it gets and keeps
// the keys it was asked by. ServeKey hits with answer when warm; BuildServeKey
// declines, so a miss ends in the chase.
type countingMat struct {
	warm           bool
	answer         [][]datalog.Term
	serves, builds int
	keys           []string
}

func (m *countingMat) ServeKey(key string, _ uint64, _ string, _ chase.Options) *triq.MatServed {
	m.serves++
	m.keys = append(m.keys, key)
	if !m.warm {
		return nil
	}
	return &triq.MatServed{Output: m.answer}
}

func (m *countingMat) BuildServeKey(_ context.Context, _ *chase.Instance, _ *datalog.Program, key string, _ uint64, _ string, _ chase.Options) (*triq.MatServed, error) {
	m.builds++
	m.keys = append(m.keys, key)
	return nil, nil
}

// TestEvalAsksMaterializerOnce: a request reads the materializer once,
// before τ_db(G) is loaded, and on a miss asks it once to build. An exact
// request asks it nothing, warm or not: triq skips it under Options.Exact.
func TestEvalAsksMaterializerOnce(t *testing.T) {
	g, _ := ParseGraph("a p b .")
	q, err := ParseQuery(`triple(?X, p, ?Y) -> out(?X, ?Y).`, "out")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		warm, exact            bool
		wantServes, wantBuilds int
	}{{true, false, 1, 0}, {false, false, 1, 1}, {true, true, 0, 0}, {false, true, 0, 0}} {
		m := &countingMat{warm: tc.warm, answer: [][]datalog.Term{{datalog.C("a"), datalog.C("b")}}}
		res, err := AskCtx(context.Background(), g, q, TriQLite10, Options{Exact: tc.exact, Mat: m, MatEpoch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rows := res.Rows(); len(rows) != 1 || rows[0] != "<a> <b>" || tc.exact && !res.Exact {
			t.Errorf("warm=%v exact=%v: rows %q (exact %v), want [<a> <b>]", tc.warm, tc.exact, rows, res.Exact)
		}
		if m.serves != tc.wantServes || m.builds != tc.wantBuilds {
			t.Errorf("warm=%v exact=%v: %d ServeKey and %d BuildServeKey calls, want %d and %d",
				tc.warm, tc.exact, m.serves, m.builds, tc.wantServes, tc.wantBuilds)
		}
		// One rendering per request: a miss asks to build by the very string
		// it was served by, not by an equal one rendered again.
		for _, k := range m.keys {
			if k != q.Program.String() || unsafe.StringData(k) != unsafe.StringData(m.keys[0]) {
				t.Errorf("warm=%v exact=%v: keys %q are not one rendering of the program", tc.warm, tc.exact, m.keys)
				break
			}
		}
	}
}
