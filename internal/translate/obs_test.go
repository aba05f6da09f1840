package translate

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/sparql"
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
