package owl_test

import (
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/serve"
	"repro/internal/sparql"
	"repro/internal/translate"
)

// TestProgramsParsedOnce pins that the fixed libraries are parsed once and
// shared read-only: every call returns the same program, and concurrent
// translations under each regime, and requests that prepend a regime's
// library to a hand-written program, leave it as it was parsed.
func TestProgramsParsedOnce(t *testing.T) {
	libs := map[string]func() *datalog.Program{"τ_owl2ql_core": owl.Program, "ρdf": owl.RDFSProgram}
	want := make(map[string]string, len(libs))
	for name, get := range libs {
		if get() != get() {
			t.Fatalf("%s: two calls returned different programs", name)
		}
		want[name] = get().String()
	}
	sel := sparql.MustParseQuery(`SELECT ?X WHERE { ?X rdf:type person }`)
	con := sparql.MustParseQuery(`CONSTRUCT { ?X rdf:type person } WHERE { ?X rdf:type student }`)
	var wg sync.WaitGroup
	for range 4 {
		for _, regime := range []translate.Regime{translate.ActiveDomain, translate.All, translate.RDFS} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := translate.Translate(sel.Pattern(), regime); err != nil {
					t.Error(err)
				}
				if _, err := translate.TranslateConstruct(con, regime); err != nil {
					t.Error(err)
				}
			}()
		}
		for _, regime := range []string{"active-domain", "all", "rdfs"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := serve.QueryRequest{Program: `triple1(?X, rdf:type, person) -> query(?X).`, Regime: regime}
				if _, err := req.Request(false); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	for name, get := range libs {
		if got := get().String(); got != want[name] {
			t.Errorf("%s: a translation or a request changed the shared program:\n%s", name, got)
		}
	}
}
