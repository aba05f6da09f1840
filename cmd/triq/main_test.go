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
// and checks the trace file is valid JSONL covering the chase round, per-rule,
// and prover span kinds (the ISSUE acceptance criterion).
func TestCLITraceAndMetrics(t *testing.T) {
	cfg := base()
	cfg.data = writeFile(t, "g.nt", cliData)
	cfg.program = writeFile(t, "p.dlog", cliProgram)
	cfg.trace = filepath.Join(t.TempDir(), "trace.jsonl")
	cfg.metrics = true
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	prove := cfg
	prove.prove = "ts(A311)"
	prove.trace = filepath.Join(t.TempDir(), "prove.jsonl")
	if err := run(context.Background(), prove); err != nil {
		t.Fatal(err)
	}

	wantKinds := map[string][]string{
		cfg.trace:   {"chase.deepen", "chase.round", "chase.rule", "chase.run", "triq.eval"},
		prove.trace: {"prover.prove"},
	}
	for file, want := range wantKinds {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ParseTrace(raw)
		if err != nil {
			t.Fatalf("%s: invalid JSONL: %v", file, err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: empty trace", file)
		}
		kinds := map[string]bool{}
		for _, k := range obs.TraceKinds(recs) {
			kinds[k] = true
		}
		for _, k := range want {
			if !kinds[k] {
				t.Errorf("%s: missing span kind %q (got %v)", file, k, obs.TraceKinds(recs))
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
		{"bad trace path", mod(func(c *config) { c.trace = filepath.Join(data, "nope", "t.jsonl") })},
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
