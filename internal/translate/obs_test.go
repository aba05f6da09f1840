package translate

import (
	"bytes"
	"testing"

	"repro/internal/chase"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triq"
)

func tracedTestPattern() sparql.Pattern {
	v, iri := sparql.Var, sparql.IRI
	return sparql.Union{
		L: sparql.Opt{
			L: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(v("X"), iri("name"), v("N"))}},
			R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(v("X"), iri("phone"), v("P"))}},
		},
		R: sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(v("X"), iri("knows"), v("N"))}},
	}
}

// TestTracedMatchesTranslate: tracing must not change the translation.
func TestTracedMatchesTranslate(t *testing.T) {
	p := tracedTestPattern()
	plain, err := Translate(p, Plain)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	traced, err := Traced(p, Plain, obs.NewWithSink(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Query.Program.String() != traced.Query.Program.String() {
		t.Error("traced translation produced a different program")
	}
}

// TestTranslateSpans: the compiler emits one translate.compile root and one
// translate.op span per algebra operator.
func TestTranslateSpans(t *testing.T) {
	var buf bytes.Buffer
	o := obs.NewWithSink(&buf)
	if _, err := Traced(tracedTestPattern(), Plain, o); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	compile, ops := 0, map[string]int{}
	for _, r := range recs {
		switch r["name"] {
		case "translate.compile":
			compile++
		case "translate.op":
			attrs, _ := r["attrs"].(map[string]any)
			kind, _ := attrs["kind"].(string)
			ops[kind]++
		}
	}
	if compile != 1 {
		t.Errorf("want 1 translate.compile span, got %d", compile)
	}
	// The pattern has UNION, OPT, and three BGPs.
	if ops["UNION"] != 1 || ops["OPT"] != 1 || ops["BGP"] != 3 {
		t.Errorf("unexpected translate.op kinds: %v", ops)
	}
}

// TestEvaluateFull: the extended evaluator returns the underlying result
// (with chase stats) and emits the load/decode spans.
func TestEvaluateFull(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T("u1", "name", "n1"))
	g.Add(rdf.T("u1", "knows", "u2"))
	var buf bytes.Buffer
	o := obs.NewWithSink(&buf)
	tr, err := Traced(tracedTestPattern(), Plain, o)
	if err != nil {
		t.Fatal(err)
	}
	ms, res, err := tr.EvaluateCtx(t.Context(), g, triq.Options{Chase: chase.Options{Obs: o}})
	if err != nil {
		t.Fatal(err)
	}
	if ms == nil || res == nil {
		t.Fatal("EvaluateCtx returned nil result")
	}
	if res.Stats.FactsDerived == 0 {
		t.Error("EvaluateCtx result carries no chase stats")
	}
	// Cross-check against the boolean wrapper.
	ms2, inconsistent, err := tr.Evaluate(g, triq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inconsistent {
		t.Error("unexpected inconsistency")
	}
	if !ms.Equal(ms2) {
		t.Error("EvaluateCtx and Evaluate disagree on the mappings")
	}
	recs, err := obs.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, k := range obs.TraceKinds(recs) {
		kinds[k] = true
	}
	for _, k := range []string{"translate.load_db", "translate.decode", "triq.eval"} {
		if !kinds[k] {
			t.Errorf("trace missing span kind %q (got %v)", k, obs.TraceKinds(recs))
		}
	}
}
