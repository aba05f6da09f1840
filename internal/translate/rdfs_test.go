package translate_test

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
)

func TestRDFSProgramIsTriQLite(t *testing.T) {
	p := owl.RDFSProgram()
	if p.HasExistentials() || p.HasNegation() {
		t.Fatal("ρdf library must be plain Datalog")
	}
	if err := datalog.CheckDialect(p, datalog.TriQLite); err != nil {
		t.Errorf("ρdf library should be TriQ-Lite 1.0: %v", err)
	}
}

func rdfsGraph() *rdf.Graph {
	return rdf.NewGraph(
		rdf.T("spaniel", "rdfs:subClassOf", "dog"),
		rdf.T("dog", "rdfs:subClassOf", "animal"),
		rdf.T("barks_at", "rdfs:subPropertyOf", "interacts_with"),
		rdf.T("barks_at", "rdfs:domain", "dog"),
		rdf.T("barks_at", "rdfs:range", "postman"),
		rdf.T("rex", "rdf:type", "spaniel"),
		rdf.T("rex", "barks_at", "pat"),
	)
}

func TestRDFSRegimeEntailments(t *testing.T) {
	g := rdfsGraph()
	cases := []struct {
		name    string
		pattern sparql.Pattern
		want    []sparql.Mapping
	}{
		{
			"type inheritance through subclass chain",
			sparql.BGP{Triples: []sparql.TriplePattern{
				sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI("animal")),
			}},
			[]sparql.Mapping{{"?X": rdf.NewIRI("rex")}},
		},
		{
			"subproperty inheritance",
			sparql.BGP{Triples: []sparql.TriplePattern{
				sparql.TP(sparql.Var("X"), sparql.IRI("interacts_with"), sparql.Var("Y")),
			}},
			[]sparql.Mapping{{"?X": rdf.NewIRI("rex"), "?Y": rdf.NewIRI("pat")}},
		},
		{
			"range typing",
			sparql.BGP{Triples: []sparql.TriplePattern{
				sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI("postman")),
			}},
			[]sparql.Mapping{{"?X": rdf.NewIRI("pat")}},
		},
		{
			"transitive subclass triple",
			sparql.BGP{Triples: []sparql.TriplePattern{
				sparql.TP(sparql.IRI("spaniel"), sparql.IRI("rdfs:subClassOf"), sparql.Var("C")),
			}},
			[]sparql.Mapping{{"?C": rdf.NewIRI("dog")}, {"?C": rdf.NewIRI("animal")}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, inconsistent, err := evalSPARQL(g, tc.pattern, translate.RDFS, triq.Options{})
			if err != nil || inconsistent {
				t.Fatal(err, inconsistent)
			}
			want := sparql.NewMappingSet(tc.want...)
			if !got.Equal(want) {
				t.Errorf("answers:\n%s\nwant:\n%s", got, want)
			}
			// The plain semantics misses the inferred answers (except where
			// they are asserted).
			plain := sparql.Eval(tc.pattern, g)
			if plain.Len() > got.Len() {
				t.Error("regime lost answers")
			}
		})
	}
}

func TestRDFSRegimeConstruct(t *testing.T) {
	// Materialize the domain typing via CONSTRUCT under the ρdf regime.
	g := rdfsGraph()
	q := sparql.MustParseQuery(`
		CONSTRUCT { ?X inferredType dog }
		WHERE { ?X rdf:type dog }
	`)
	ct, err := translate.TranslateConstruct(q, translate.RDFS)
	if err != nil {
		t.Fatal(err)
	}
	out, inconsistent, err := ct.Evaluate(g, triq.Options{})
	if err != nil || inconsistent {
		t.Fatal(err, inconsistent)
	}
	if !out.Has(rdf.T("rex", "inferredType", "dog")) {
		t.Errorf("inferred typing missing:\n%s", out)
	}
}

func TestRDFSRegimeIsDatalogOnly(t *testing.T) {
	p := sparql.BGP{Triples: []sparql.TriplePattern{
		sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.Var("C")),
	}}
	tr, err := translate.Translate(p, translate.RDFS)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Query.Program.HasExistentials() {
		t.Error("RDFS translation should not use existentials")
	}
	if err := triq.Validate(tr.Query, triq.TriQLite10); err != nil {
		t.Errorf("RDFS translation should be TriQ-Lite 1.0: %v", err)
	}
}
