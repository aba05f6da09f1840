package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/limits"
	"repro/internal/serve"
)

// The front door: triq fills the serve.QueryRequest a triqd body decodes
// into and prints the serve.QueryResponse a triqd 200 carries, so the tests
// here put the same request through run and through Server.Handler() and
// hold the two to each other.

const (
	authorsQuery = `SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }`
	authorsData  = `
		dbUllman is_author_of tcb .
		dbUllman name jeff .
		dbAho is_author_of dragon .
		dbAho name al .
	`
	animalsData     = "rex rdf:type dog .\nfelix rdf:type cat .\n"
	animalsOntology = "SubClassOf(dog, animal)\nSubClassOf(cat, animal)\n"
	animalsQuery    = `SELECT ?X WHERE { ?X rdf:type animal }`
)

// serverFor is a triqd handler over the graph the CLI builds from the same
// data and ontology text.
func serverFor(t *testing.T, data, ontology string) http.Handler {
	t.Helper()
	g, err := repro.ParseGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	if ontology != "" {
		onto, err := repro.ParseOntology(ontology)
		if err != nil {
			t.Fatal(err)
		}
		g.AddGraph(onto.ToGraph())
	}
	s := serve.New(serve.Config{})
	s.SetGraph(g)
	return s.Handler()
}

func post(t *testing.T, h http.Handler, path string, req serve.QueryRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// canonicalBody re-encodes a success body with the fields only a server run
// can know zeroed.
func canonicalBody(t *testing.T, raw []byte) string {
	t.Helper()
	var resp serve.QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("not a QueryResponse: %v\n%s", err, raw)
	}
	resp.ElapsedUS, resp.TraceID, resp.Epoch = 0, "", 0
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestJSONParityWithServer: the same program and the same regime query, asked
// through triq -json and through the server's handler over the same graph,
// are answered with the same body.
func TestJSONParityWithServer(t *testing.T) {
	t.Run("datalog", func(t *testing.T) {
		cfg := base()
		cfg.data = writeFile(t, "g.nt", cliData)
		cfg.program = writeFile(t, "p.dlog", cliProgram)
		cfg.jsonOut = true
		cli := captureStdout(t, func() {
			if err := run(context.Background(), cfg); err != nil {
				t.Error(err)
			}
		})
		status, srv := post(t, serverFor(t, cliData, ""), "/query", serve.QueryRequest{Program: cliProgram})
		if status != http.StatusOK {
			t.Fatalf("server: %d %s", status, srv)
		}
		if got, want := canonicalBody(t, []byte(cli)), canonicalBody(t, srv); got != want {
			t.Errorf("triq -json and triqd disagree:\n cli: %s\n srv: %s", got, want)
		}
	})
	t.Run("sparql active-domain", func(t *testing.T) {
		cfg := base()
		cfg.data = writeFile(t, "g.nt", animalsData)
		cfg.ontology = writeFile(t, "o.owl", animalsOntology)
		cfg.sparql = writeFile(t, "q.rq", animalsQuery)
		cfg.regime = "active-domain"
		cfg.jsonOut = true
		cli := captureStdout(t, func() {
			if err := run(context.Background(), cfg); err != nil {
				t.Error(err)
			}
		})
		status, srv := post(t, serverFor(t, animalsData, animalsOntology), "/sparql",
			serve.QueryRequest{Query: animalsQuery, Regime: "active-domain"})
		if status != http.StatusOK {
			t.Fatalf("server: %d %s", status, srv)
		}
		got, want := canonicalBody(t, []byte(cli)), canonicalBody(t, srv)
		if got != want {
			t.Errorf("triq -json and triqd disagree:\n cli: %s\n srv: %s", got, want)
		}
		var resp serve.QueryResponse
		if err := json.Unmarshal(srv, &resp); err != nil || len(resp.Rows) != 2 {
			t.Errorf("want rex and felix entailed as animals, got %s", srv)
		}
	})
}

// TestLangAndRegimeNames feeds every wire name of lang and regime through both
// doors, and the spellings the CLIs used to have beside them: the wire's are
// accepted by both, the retired ones refused by both with one message.
func TestLangAndRegimeNames(t *testing.T) {
	h := serverFor(t, cliData, "")
	data := writeFile(t, "g.nt", cliData)
	prog := writeFile(t, "p.dlog", cliProgram)
	query := writeFile(t, "q.rq", `SELECT ?X WHERE { ?X partOf ?Y }`)
	cases := []struct {
		lang, regime string
		retired      bool
	}{
		{lang: ""}, {lang: "triq"}, {lang: "triq-lite"}, {lang: "unrestricted"},
		{regime: ""}, {regime: "plain"}, {regime: "active-domain"}, {regime: "all"}, {regime: "rdfs"},
		{lang: "triqlite", retired: true}, {lang: "any", retired: true}, {regime: "u", retired: true},
	}
	for _, tc := range cases {
		for _, sparql := range []bool{false, true} {
			cfg := base()
			cfg.data, cfg.lang, cfg.regime = data, tc.lang, tc.regime
			wire := serve.QueryRequest{Lang: tc.lang, Regime: tc.regime}
			path := "/query"
			if sparql {
				cfg.sparql, wire.Query, path = query, `SELECT ?X WHERE { ?X partOf ?Y }`, "/sparql"
			} else {
				cfg.program, wire.Program = prog, cliProgram
			}
			var cliErr error
			captureStdout(t, func() { cliErr = run(context.Background(), cfg) })
			status, body := post(t, h, path, wire)
			label := path + " lang=" + tc.lang + " regime=" + tc.regime
			if !tc.retired {
				if cliErr != nil || status != http.StatusOK {
					t.Errorf("%s: cli %v, server %d %s", label, cliErr, status, body)
				}
				continue
			}
			var f serve.Failure
			if err := json.Unmarshal(body, &f); err != nil {
				t.Fatal(err)
			}
			if cliErr == nil || status != http.StatusBadRequest || f.Error != cliErr.Error() || exitCode(cliErr) != exitUsage {
				t.Errorf("%s: cli %v (exit %d), server %d %q; want one bad-request message", label, cliErr, exitCode(cliErr), status, f.Error)
			}
		}
	}
}

// TestSparqlTranslate: without -data, -sparql prints the translated program
// behind its header, byte for byte what sparql2triq printed for each regime
// (goldens captured from it before it was folded into triq).
func TestSparqlTranslate(t *testing.T) {
	q := writeFile(t, "q.rq", authorsQuery+"\n")
	for _, regime := range []string{"plain", "active-domain", "all"} {
		cfg := base()
		cfg.sparql, cfg.regime = q, regime
		got := captureStdout(t, func() {
			if err := run(context.Background(), cfg); err != nil {
				t.Errorf("regime %s: %v", regime, err)
			}
		})
		want, err := os.ReadFile(filepath.Join("testdata", "translate_"+regime+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("regime %s:\n--- got\n%s--- want\n%s", regime, got, want)
		}
	}
}

// TestSparqlEvaluate: with -data the query is evaluated and stdout holds the
// mappings, one per line, as sparql2triq -eval listed them.
func TestSparqlEvaluate(t *testing.T) {
	cfg := base()
	cfg.sparql = writeFile(t, "q.rq", authorsQuery)
	cfg.data = writeFile(t, "g.nt", authorsData)
	got := captureStdout(t, func() {
		if err := run(context.Background(), cfg); err != nil {
			t.Error(err)
		}
	})
	want, err := os.ReadFile(filepath.Join("testdata", "eval_plain.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("mappings:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestSparqlTraceAndMetrics checks that -trace writes one span tree holding
// the translation compile spans, per-operator spans, and the chase spans from
// the evaluation.
func TestSparqlTraceAndMetrics(t *testing.T) {
	cfg := base()
	cfg.sparql = writeFile(t, "q.rq", authorsQuery)
	cfg.data = writeFile(t, "g.nt", authorsData)
	cfg.trace = filepath.Join(t.TempDir(), "trace.json")
	cfg.metrics = true
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, sp := range readTrace(t, cfg.trace) {
		kinds[sp.Name] = true
	}
	for _, k := range []string{"translate.compile", "translate.op", "translate.load_db", "translate.decode", "chase.run", "chase.round", "chase.rule", "triq.eval"} {
		if !kinds[k] {
			t.Errorf("missing span kind %q (got %v)", k, kinds)
		}
	}
}

// TestSparqlErrors: usage errors exit 1, and the SPARQL path keeps the
// resource-governance codes of the Datalog one (2 / 3 / 124).
func TestSparqlErrors(t *testing.T) {
	q := writeFile(t, "q.rq", `SELECT ?X WHERE { ?X p ?Y }`)
	bad := writeFile(t, "bad.rq", `SELECT`)
	mod := func(f func(*config)) config {
		cfg := base()
		cfg.sparql = q
		f(&cfg)
		return cfg
	}
	for i, cfg := range []config{
		mod(func(c *config) { c.sparql = "" }),
		mod(func(c *config) { c.regime = "klingon" }),
		mod(func(c *config) { c.sparql = q + ".nope" }),
		mod(func(c *config) { c.sparql = bad }),
		mod(func(c *config) { c.data = "/nope.nt" }),
		mod(func(c *config) { c.trace = filepath.Join(q, "nope", "t.json") }),
		mod(func(c *config) { c.analyze = true }),
	} {
		if err := run(context.Background(), cfg); err == nil || exitCode(err) != exitUsage {
			t.Errorf("case %d: want a usage error, got %v", i, err)
		}
	}

	eval := mod(func(c *config) {
		c.sparql = writeFile(t, "a.rq", authorsQuery)
		c.data = writeFile(t, "g.nt", authorsData)
	})
	budget := eval
	budget.maxFacts = 5
	var err error
	captureStdout(t, func() { err = run(context.Background(), budget) })
	if err == nil || exitCode(err) != exitBudget {
		t.Errorf("max-facts: want exit %d, got %v", exitBudget, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	if err := run(ctx, eval); err == nil || exitCode(err) != exitTimeout {
		t.Errorf("timeout: want exit %d, got %v", exitTimeout, err)
	}
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{Point: "chase.rule", Action: limits.ActPanic}))
	err = run(context.Background(), eval)
	restore()
	if err == nil || exitCode(err) != exitInternal {
		t.Errorf("panic: want exit %d, got %v", exitInternal, err)
	}
}
