package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/flagledger"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/serve"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const cliData = `
TheAirline partOf transportService .
A311 partOf TheAirline .
Oxford A311 London .
`

const cliProgram = `
triple(?X, partOf, transportService) -> ts(?X).
triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
conn(?X, ?Y) -> query(?X, ?Y).
`

// base returns the flag defaults, as main sees them after parsing no
// arguments.
func base() config {
	return *defineFlags(flag.NewFlagSet("triq", flag.ContinueOnError))
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/flags.golden")

// TestFlagLedger pins triq's flags — name, default, usage — against
// testdata/flags.golden. Regenerate with: go test -run TestFlagLedger ./cmd/triq -update
func TestFlagLedger(t *testing.T) {
	fs := flag.NewFlagSet("triq", flag.ContinueOnError)
	defineFlags(fs)
	flagledger.Check(t, fs, *updateGolden)
}

func TestCLIRunQuery(t *testing.T) {
	cfg := base()
	cfg.data = writeFile(t, "g.nt", cliData)
	cfg.program = writeFile(t, "p.dlog", cliProgram)
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// Exact mode too.
	exact := cfg
	exact.exact = true
	if err := run(context.Background(), exact); err != nil {
		t.Fatal(err)
	}
	// TriQ language name and explicit depth.
	tq := cfg
	tq.lang = "triq"
	tq.depth = 6
	if err := run(context.Background(), tq); err != nil {
		t.Fatal(err)
	}
	// No language check.
	any := cfg
	any.lang = "unrestricted"
	if err := run(context.Background(), any); err != nil {
		t.Fatal(err)
	}
}

func TestCLIProve(t *testing.T) {
	cfg := base()
	cfg.data = writeFile(t, "g.nt", cliData)
	cfg.program = writeFile(t, "p.dlog", cliProgram)
	cfg.prove = "ts(A311)"
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// DOT output of the proof.
	dot := cfg
	dot.dot = true
	if err := run(context.Background(), dot); err != nil {
		t.Fatal(err)
	}
	// Unprovable goal still succeeds (prints NOT).
	not := cfg
	not.prove = "ts(Oxford)"
	if err := run(context.Background(), not); err != nil {
		t.Fatal(err)
	}
}

func TestCLIAnalyze(t *testing.T) {
	cfg := base()
	cfg.program = writeFile(t, "p.dlog", cliProgram)
	cfg.analyze = true
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	dot := cfg
	dot.dot = true
	if err := run(context.Background(), dot); err != nil {
		t.Fatal(err)
	}
	// Regime merge in analyze mode.
	reg := cfg
	reg.regime = "active-domain"
	if err := run(context.Background(), reg); err != nil {
		t.Fatal(err)
	}
}

func TestCLIOntologyAndRegime(t *testing.T) {
	cfg := base()
	cfg.data = writeFile(t, "g.nt", "")
	cfg.ontology = writeFile(t, "o.owl", `
		SubClassOf(dog, animal)
		ClassAssertion(dog, rex)
	`)
	cfg.program = writeFile(t, "p.dlog", `
		triple1(?X, rdf:type, animal), C(?X) -> query(?X).
	`)
	cfg.regime = "active-domain"
	cfg.depth = 8
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCLITraceAndMetrics runs a query and a proof with -trace and -metrics on
// and checks the trace file is an OTLP/JSON document covering the chase
// round, per-rule, and prover span kinds.
func TestCLITraceAndMetrics(t *testing.T) {
	cfg := base()
	cfg.data = writeFile(t, "g.nt", cliData)
	cfg.program = writeFile(t, "p.dlog", cliProgram)
	cfg.trace = filepath.Join(t.TempDir(), "trace.json")
	cfg.metrics = true
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	prove := cfg
	prove.prove = "ts(A311)"
	prove.trace = filepath.Join(t.TempDir(), "prove.json")
	if err := run(context.Background(), prove); err != nil {
		t.Fatal(err)
	}

	wantKinds := map[string][]string{
		cfg.trace:   {"chase.deepen", "chase.round", "chase.rule", "chase.run", "triq.eval"},
		prove.trace: {"prover.prove"},
	}
	for file, want := range wantKinds {
		kinds := map[string]bool{}
		for _, sp := range readTrace(t, file) {
			kinds[sp.Name] = true
		}
		for _, k := range want {
			if !kinds[k] {
				t.Errorf("%s: missing span kind %q (got %v)", file, k, kinds)
			}
		}
	}
}

// traceSpan is a span of a -trace file.
type traceSpan struct {
	ID, Parent, Name string
	Ended            bool
}

// readTrace decodes a -trace file, fails the test unless it holds one
// complete span tree — one root, every parent in the file, every span ended,
// none dropped at the span cap — and returns its spans by id.
func readTrace(t *testing.T, file string) map[string]traceSpan {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.OTLPDocument
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: not an OTLP/JSON document: %v", file, err)
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("%s: want one resource and one scope", file)
	}
	if doc.Account.SpansDropped != 0 {
		t.Errorf("%s: %d spans dropped", file, doc.Account.SpansDropped)
	}
	spans := map[string]traceSpan{}
	for _, sp := range doc.ResourceSpans[0].ScopeSpans[0].Spans {
		spans[sp.SpanID] = traceSpan{ID: sp.SpanID, Parent: sp.ParentSpanID, Name: sp.Name,
			Ended: sp.EndTimeUnixNano != "" && sp.EndTimeUnixNano != "0"}
	}
	roots := 0
	for _, sp := range spans {
		if sp.Parent == "" {
			roots++
		} else if _, ok := spans[sp.Parent]; !ok {
			t.Errorf("%s: %s span's parent %s is not in the file", file, sp.Name, sp.Parent)
		}
		if !sp.Ended {
			t.Errorf("%s: %s span has no end time", file, sp.Name)
		}
	}
	if roots != 1 {
		t.Errorf("%s: %d root spans, want 1", file, roots)
	}
	return spans
}

// TestCLITraceComplete: -trace writes one complete span tree however the run
// ends — exit 0, a budget trip (exit 3), -timeout expiry (exit 124) — for
// the transport program and for the university SPARQL request under `all`,
// with chase.deepen → chase.run → chase.round → chase.rule nested in it.
func TestCLITraceComplete(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "golden")
	empty := writeFile(t, "empty.nt", "")
	inputs := []struct {
		name     string
		set      func(*config)
		maxFacts int
	}{
		{"transport", func(c *config) {
			c.data = filepath.Join(golden, "transport", "graph.nt")
			c.program = filepath.Join(golden, "transport", "program.dlog")
		}, 15},
		{"university", func(c *config) {
			c.data = empty
			c.ontology = filepath.Join(golden, "university-person", "ontology.owl")
			c.sparql = filepath.Join(golden, "university-person", "query.rq")
			c.regime = "all"
		}, 200},
	}
	for _, in := range inputs {
		for _, exit := range []int{0, exitBudget, exitTimeout} {
			cfg := base()
			in.set(&cfg)
			cfg.trace = filepath.Join(t.TempDir(), "trace.json")
			restore := func() {}
			switch exit {
			case exitBudget:
				cfg.maxFacts = in.maxFacts
			case exitTimeout:
				// The third rule turn outsleeps the deadline, with a margin for
				// the context's timer to fire, so the run is cut inside the
				// chase with rule spans open.
				cfg.timeout = 100 * time.Millisecond
				restore = limits.SetGlobal(limits.NewPlan(limits.Fault{Point: "chase.rule", Action: limits.ActHook,
					After: 2, Times: 1, Hook: func() { time.Sleep(3 * cfg.timeout) }}))
			}
			var err error
			captureStdout(t, func() { err = run(context.Background(), cfg) })
			restore()
			got := 0
			if err != nil {
				got = exitCode(err)
			}
			if got != exit {
				t.Errorf("%s: exit %d (%v), want %d", in.name, got, err, exit)
			}
			spans := readTrace(t, cfg.trace)
			nested := false
			for _, rule := range spans {
				round := spans[rule.Parent]
				chaseRun := spans[round.Parent]
				if rule.Name == "chase.rule" && round.Name == "chase.round" && chaseRun.Name == "chase.run" &&
					spans[chaseRun.Parent].Name == "chase.deepen" {
					nested = true
				}
			}
			if !nested {
				t.Errorf("%s, exit %d: no chase.deepen → chase.run → chase.round → chase.rule chain", in.name, exit)
			}
		}
	}
}

// TestCLIMetricsOnly exercises -metrics without -trace (in-memory registry,
// no file I/O).
func TestCLIMetricsOnly(t *testing.T) {
	cfg := base()
	cfg.data = writeFile(t, "g.nt", cliData)
	cfg.program = writeFile(t, "p.dlog", cliProgram)
	cfg.metrics = true
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCLIErrors(t *testing.T) {
	data := writeFile(t, "g.nt", cliData)
	prog := writeFile(t, "p.dlog", cliProgram)
	mod := func(f func(*config)) config {
		cfg := base()
		cfg.data = data
		cfg.program = prog
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  config
	}{
		{"missing program", mod(func(c *config) { c.program = "" })},
		{"program and sparql", mod(func(c *config) { c.sparql = prog })},
		{"missing data", mod(func(c *config) { c.data = "" })},
		{"bad language", mod(func(c *config) { c.lang = "klingon" })},
		{"bad data path", mod(func(c *config) { c.data = data + ".nope" })},
		{"bad program path", mod(func(c *config) { c.program = prog + ".nope" })},
		{"bad goal", mod(func(c *config) { c.prove = "?X" })},
		{"bad ontology path", mod(func(c *config) { c.ontology = "/nope.owl" })},
		{"bad trace path", mod(func(c *config) { c.trace = filepath.Join(data, "nope", "t.json") })},
	}
	for _, tc := range cases {
		if err := run(context.Background(), tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestCLIExitCodeContract pins the resource-governance exit codes: budget
// trips map to 3, deadlines to 124, recovered panics to 2, other errors to 1.
func TestCLIExitCodeContract(t *testing.T) {
	data := writeFile(t, "g.nt", cliData)
	prog := writeFile(t, "p.dlog", cliProgram)

	budget := base()
	budget.data, budget.program = data, prog
	budget.maxFacts = 4
	err := run(context.Background(), budget)
	if err == nil || exitCode(err) != exitBudget {
		t.Fatalf("max-facts: want exit %d, got err=%v code=%d", exitBudget, err, exitCode(err))
	}

	deadline := base()
	deadline.data, deadline.program = data, prog
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	err = run(ctx, deadline)
	if err == nil || exitCode(err) != exitTimeout {
		t.Fatalf("timeout: want exit %d, got err=%v code=%d", exitTimeout, err, exitCode(err))
	}

	boom := base()
	boom.data, boom.program = data, prog
	restore := limits.SetGlobal(limits.NewPlan(limits.Fault{Point: "chase.rule", Action: limits.ActPanic}))
	err = run(context.Background(), boom)
	restore()
	if err == nil || exitCode(err) != exitInternal {
		t.Fatalf("panic: want exit %d, got err=%v code=%d", exitInternal, err, exitCode(err))
	}

	usage := base()
	if err := run(context.Background(), usage); err == nil || exitCode(err) != exitUsage {
		t.Fatalf("usage: want exit %d, got %v", exitUsage, err)
	}
}

// captureStdout redirects os.Stdout around f and returns what it wrote.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCLIJSONOutput pins the -json contract: the stdout document is the same
// serve.QueryResponse shape a triqd 200 carries, truncation included.
func TestCLIJSONOutput(t *testing.T) {
	data := writeFile(t, "g.nt", cliData)
	prog := writeFile(t, "p.dlog", cliProgram)

	cfg := base()
	cfg.data, cfg.program = data, prog
	cfg.jsonOut = true
	out := captureStdout(t, func() {
		if err := run(context.Background(), cfg); err != nil {
			t.Error(err)
		}
	})
	var resp serve.QueryResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("stdout is not a QueryResponse: %v\n%s", err, out)
	}
	if len(resp.Rows) == 0 || resp.Incomplete {
		t.Fatalf("want complete rows, got %+v", resp)
	}

	// A budget trip mirrors the server's 200 contract: incomplete body with
	// the truncation report, not an error document.
	trunc := cfg
	trunc.maxFacts = 6
	out = captureStdout(t, func() {
		if err := run(context.Background(), trunc); err != nil {
			t.Error(err)
		}
	})
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("truncated stdout: %v\n%s", err, out)
	}
	if !resp.Incomplete || resp.Truncation == nil {
		t.Fatalf("want incomplete + truncation, got %+v", resp)
	}
	if resp.Truncation.Limit != limits.LimitFacts {
		t.Fatalf("truncation.limit = %q, want %q", resp.Truncation.Limit, limits.LimitFacts)
	}
	// The wire error for hard failures round-trips through limits.WireError.
	w := limits.ToWire(limits.NewError(limits.ErrDeadline, limits.Truncation{}))
	buf, _ := json.Marshal(w)
	var back limits.WireError
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(back.Err(), limits.ErrDeadline) {
		t.Fatal("wire error lost its sentinel")
	}
}
