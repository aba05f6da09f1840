package translate

import (
	"context"
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
	ctx, _ := recordingCtx()
	traced, err := TracedCtx(ctx, p, Plain, obs.New())
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
	ctx, tr := recordingCtx()
	if _, err := TracedCtx(ctx, tracedTestPattern(), Plain, nil); err != nil {
		t.Fatal(err)
	}
	compile, ops := 0, map[string]int{}
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "translate.compile":
			compile++
		case "translate.op":
			for _, a := range sp.Attrs {
				if a.K == "kind" {
					ops[a.V.(string)]++
				}
			}
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

// recordingCtx returns a context carrying a fresh recording trace.
func recordingCtx() (context.Context, *obs.Trace) {
	ids := obs.NewIDSource(1)
	tr := obs.NewTrace(ids.TraceID(), ids, true)
	return obs.ContextWithTrace(context.Background(), tr), tr
}
