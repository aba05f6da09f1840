// Command triq evaluates a TriQ 1.0 / TriQ-Lite 1.0 query over an RDF graph.
//
// Usage:
//
//	triq -data graph.nt -program rules.dlog -query answer [-lang triqlite] [-regime]
//	triq -data graph.nt -program rules.dlog -prove 'p(a, b)'
//
// The data file is N-Triples (bare prefixed names allowed); the program file
// uses the rule syntax of the paper, e.g.
//
//	triple(?X, partOf, transportService) -> ts(?X).
//	triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
//	ts(?T), triple(?X, ?T, ?Y) -> query(?X, ?Y).
//
// With -regime the fixed OWL 2 QL core ontology program τ_owl2ql_core is
// prepended, so the query sees the entailed triples in triple1(·,·,·).
// With -prove the ProofTree decision procedure of Section 6.3 is run on a
// single goal atom and the proof tree is printed.
//
// Observability (see README "Observability"): -explain prints the per-query
// EXPLAIN report (per-rule chase stats with provenance, worker balance, stage
// times), -metrics prints the per-rule chase breakdown and the metrics
// registry to stderr, -trace streams the JSONL span trace to a file, and
// -pprof serves net/http/pprof.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/serve"
	"repro/internal/translate"
	"repro/internal/triq"
)

// Exit codes of the resource-governance contract (see README "Resource
// limits & cancellation"): 124 mirrors timeout(1).
const (
	exitUsage    = 1   // flag/parse/IO errors
	exitInternal = 2   // recovered engine panic
	exitBudget   = 3   // fact/round/visit budget tripped
	exitTimeout  = 124 // -timeout deadline exceeded
)

// config collects the CLI flags.
type config struct {
	data      string        // N-Triples data file
	program   string        // Datalog program file
	query     string        // output predicate
	lang      string        // triq | triqlite | any
	regime    bool          // prepend τ_owl2ql_core
	ontology  string        // OWL functional-syntax file merged into the data
	exact     bool          // exact ProofTree enumeration
	prove     string        // decide one ground atom instead of querying
	analyze   bool          // print the program analysis report
	dot       bool          // DOT output for -analyze / -prove
	depth     int           // chase null-depth bound
	timeout   time.Duration // wall-clock deadline (0 = none)
	maxFacts  int           // chase fact budget (0 = none)
	maxRounds int           // chase round budget (0 = none)
	maxVisits int           // proof-search visit budget (0 = default)
	trace     string        // JSONL span trace file ("" = off)
	explain   bool          // print the per-query EXPLAIN report to stderr
	metrics   bool          // print metrics summary to stderr
	pprof     string        // pprof listen address ("" = off)
	jsonOut   bool          // emit the shared JSON wire format on stdout
}

func main() {
	var cfg config
	flag.StringVar(&cfg.data, "data", "", "N-Triples data file (required)")
	flag.StringVar(&cfg.program, "program", "", "Datalog program file (required)")
	flag.StringVar(&cfg.query, "query", "query", "output predicate")
	flag.StringVar(&cfg.lang, "lang", "triqlite", "language check: triq | triqlite | any")
	flag.BoolVar(&cfg.regime, "regime", false, "prepend the fixed OWL 2 QL core ontology program")
	flag.StringVar(&cfg.ontology, "ontology", "", "OWL 2 QL core ontology file in functional-style syntax; its RDF serialization is merged into the data")
	flag.BoolVar(&cfg.exact, "exact", false, "use the exact ProofTree enumeration (TriQ-Lite 1.0 only)")
	flag.StringVar(&cfg.prove, "prove", "", "instead of querying, decide one ground atom with ProofTree and print the proof")
	flag.BoolVar(&cfg.analyze, "analyze", false, "instead of querying, print the program analysis report (strata, affected positions, wards, dialects)")
	flag.BoolVar(&cfg.dot, "dot", false, "with -analyze: print the predicate dependency graph in Graphviz DOT; with -prove: print the proof tree in DOT")
	flag.IntVar(&cfg.depth, "depth", 0, "chase null-depth bound (0 = default)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock evaluation deadline, e.g. 30s (0 = none; exit 124 on expiry)")
	flag.IntVar(&cfg.maxFacts, "max-facts", 0, "abort the chase once the instance holds this many facts (0 = unlimited; partial answers + exit 3)")
	flag.IntVar(&cfg.maxRounds, "max-rounds", 0, "abort the chase after this many rounds per stratum (0 = unlimited; partial answers + exit 3)")
	flag.IntVar(&cfg.maxVisits, "max-visits", 0, "proof-search component-visit budget for -prove/-exact (0 = default; exit 3 on trip)")
	flag.StringVar(&cfg.trace, "trace", "", "write a JSONL span trace to this file")
	flag.BoolVar(&cfg.explain, "explain", false, "print the EXPLAIN report (per-rule chase stats with provenance, stage times) to stderr; with -json it is embedded in the response")
	flag.BoolVar(&cfg.metrics, "metrics", false, "print the per-rule chase breakdown and metrics registry to stderr")
	flag.StringVar(&cfg.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit results (and errors) as JSON in the same wire format the triqd server uses")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("triq"))
		return
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	if err := run(ctx, cfg); err != nil {
		if cfg.jsonOut {
			// The same failure body a triqd error response carries.
			_ = json.NewEncoder(os.Stdout).Encode(limits.ToWire(err))
		}
		fmt.Fprintln(os.Stderr, "triq:", err)
		if tr, ok := limits.TruncationOf(err); ok {
			fmt.Fprint(os.Stderr, tr.String())
		}
		os.Exit(exitCode(err))
	}
}

// exitCode maps the error taxonomy onto the exit-code contract.
func exitCode(err error) int {
	switch {
	case errors.Is(err, limits.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		return exitTimeout
	case limits.IsBudget(err):
		return exitBudget
	case errors.Is(err, limits.ErrInternal):
		return exitInternal
	}
	return exitUsage
}

// setupObs builds the observability handle from the trace/metrics flags. The
// returned closer flushes and closes the trace file. With both flags off it
// returns a nil handle: no registry, no spans, no I/O.
func setupObs(cfg config) (*obs.Obs, func() error, error) {
	if cfg.trace == "" && !cfg.metrics {
		return nil, func() error { return nil }, nil
	}
	if cfg.trace == "" {
		return obs.New(), func() error { return nil }, nil
	}
	f, err := os.Create(cfg.trace)
	if err != nil {
		return nil, nil, err
	}
	o := obs.NewWithSink(f)
	return o, func() error {
		if err := o.SinkErr(); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		return f.Close()
	}, nil
}

// startPprof serves net/http/pprof on addr for the lifetime of the process.
func startPprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "pprof: listening on http://%s/debug/pprof/\n", ln.Addr())
	go http.Serve(ln, nil) // pprof handlers live on http.DefaultServeMux
	return ln, nil
}

func run(ctx context.Context, cfg config) (err error) {
	// One pathological query must not take down the process with a raw
	// panic: recover it into a typed ErrInternal (exit 2).
	defer limits.Recover(&err)
	if cfg.program == "" {
		return fmt.Errorf("-program is required")
	}
	if cfg.pprof != "" {
		ln, err := startPprof(cfg.pprof)
		if err != nil {
			return err
		}
		defer ln.Close()
	}
	if cfg.analyze {
		src, err := os.ReadFile(cfg.program)
		if err != nil {
			return err
		}
		prog, err := datalog.Parse(string(src))
		if err != nil {
			return err
		}
		if cfg.regime {
			prog = owl.Program().Merge(prog)
		}
		if cfg.dot {
			fmt.Print(datalog.DependencyDOT(prog))
			return nil
		}
		fmt.Print(datalog.Report(prog))
		return nil
	}
	if cfg.data == "" {
		return fmt.Errorf("-data is required")
	}
	o, closeObs, err := setupObs(cfg)
	if err != nil {
		return err
	}
	dataFile, err := os.Open(cfg.data)
	if err != nil {
		closeObs()
		return err
	}
	defer dataFile.Close()
	g, err := rdf.ParseNTriples(dataFile)
	if err != nil {
		closeObs()
		return err
	}
	if cfg.ontology != "" {
		ontoSrc, err := os.ReadFile(cfg.ontology)
		if err != nil {
			closeObs()
			return err
		}
		onto, err := owl.ParseOntology(string(ontoSrc))
		if err != nil {
			closeObs()
			return err
		}
		g.AddGraph(onto.ToGraph())
	}
	src, err := os.ReadFile(cfg.program)
	if err != nil {
		closeObs()
		return err
	}
	prog, err := datalog.Parse(string(src))
	if err != nil {
		closeObs()
		return err
	}
	if cfg.regime {
		prog = owl.Program().Merge(prog)
	}

	if cfg.prove != "" {
		err := runProve(ctx, cfg, g, prog, o)
		if cerr := closeObs(); err == nil {
			err = cerr
		}
		return err
	}
	err = runQuery(ctx, cfg, g, prog, o)
	if cerr := closeObs(); err == nil {
		err = cerr
	}
	return err
}

func runProve(ctx context.Context, cfg config, g *rdf.Graph, prog *datalog.Program, o *obs.Obs) error {
	goal, err := datalog.ParseAtom(cfg.prove)
	if err != nil {
		return fmt.Errorf("parsing goal: %w", err)
	}
	db, err := chase.FromFacts(owl.GraphToDB(g))
	if err != nil {
		return err
	}
	pv, err := triq.NewProver(db, prog, triq.ProofOptions{Obs: o, MaxVisits: cfg.maxVisits})
	if err != nil {
		return err
	}
	node, ok, err := pv.ProveCtx(ctx, goal)
	if err != nil {
		return err
	}
	if cfg.metrics {
		m := pv.Metrics()
		fmt.Fprintf(os.Stderr, "prover: %d components, %d expansions, %d memo hits / %d misses, %d resolutions, max depth %d (visit budget %d)\n",
			m.Components, m.Expansions, m.MemoHits, m.MemoMisses, m.Resolutions, m.MaxRecursionDepth, m.VisitBudget)
		fmt.Fprint(os.Stderr, o.Summary())
	}
	if !ok {
		fmt.Printf("%s is NOT in Π(D)\n", goal)
		return nil
	}
	if cfg.dot {
		fmt.Print(node.DOT())
		return nil
	}
	fmt.Printf("%s is in Π(D); proof tree:\n\n%s", goal, node.Render())
	return nil
}

func runQuery(ctx context.Context, cfg config, g *rdf.Graph, prog *datalog.Program, o *obs.Obs) error {
	req := repro.Request{
		Query:   datalog.NewQuery(prog, cfg.query),
		Exact:   cfg.exact,
		Explain: cfg.explain,
	}
	switch strings.ToLower(cfg.lang) {
	case "triq":
		req.Language = repro.TriQ10
	case "triqlite":
		req.Language = repro.TriQLite10
	case "any":
		req.Language = repro.Unrestricted
	default:
		return fmt.Errorf("unknown language %q (want triq, triqlite, or any)", cfg.lang)
	}
	if cfg.depth > 0 {
		req.Options.Chase.MaxDepth = cfg.depth
	}
	req.Options.Chase.MaxFacts = cfg.maxFacts
	req.Options.Chase.MaxRounds = cfg.maxRounds
	req.Options.Chase.Obs = o
	req.Options.MaxVisits = cfg.maxVisits // read by the exact procedure only
	res, err := repro.Eval(ctx, g, req)
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		// The same body shape a triqd 200 carries (serve.QueryResponse), so
		// downstream tooling parses CLI and server output identically.
		resp := serve.QueryResponse{
			Rows:         make([]string, 0, len(res.Tuples)),
			Inconsistent: res.Inconsistent,
			Exact:        res.Exact,
			Incomplete:   res.Incomplete,
			Truncation:   res.Truncation,
			Attempts:     1,
			Explain:      res.Explain,
		}
		for _, tup := range res.Tuples {
			resp.Rows = append(resp.Rows, row(tup, " "))
		}
		return json.NewEncoder(os.Stdout).Encode(resp)
	}
	if res.Inconsistent {
		fmt.Println("⊤ (the graph is inconsistent with the program's constraints)")
		return nil
	}
	for _, tup := range res.Tuples {
		fmt.Println(row(tup, "\t"))
	}
	fmt.Fprintf(os.Stderr, "%d answers (depth %d, exact=%v, %d facts derived)\n",
		len(res.Tuples), res.Depth, res.Exact, res.Stats.FactsDerived)
	if res.Explain != nil {
		fmt.Fprint(os.Stderr, res.Explain.String())
	}
	if cfg.metrics {
		fmt.Fprint(os.Stderr, res.Stats.String())
		fmt.Fprint(os.Stderr, o.Summary())
	}
	if res.Incomplete {
		// The partial answers above are sound; signal the truncation on
		// stderr and through the exit code (3).
		return res.Truncation.Err()
	}
	return nil
}

// row renders an answer tuple in the program's own spelling of its constants
// (bare names, as the rules write them) rather than as N-Triples terms.
func row(tup []repro.Term, sep string) string {
	parts := make([]string, len(tup))
	for i, t := range tup {
		parts[i] = translate.EncodeTerm(t).String()
	}
	return strings.Join(parts, sep)
}
