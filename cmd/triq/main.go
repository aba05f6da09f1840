// Command triq evaluates a TriQ 1.0 / TriQ-Lite 1.0 query, or a SPARQL query
// translated into one (Sections 5.1–5.3 of the paper), over an RDF graph.
//
// Usage:
//
//	triq -data graph.nt -program rules.dlog [-query answer] [-lang triq-lite] [-regime active-domain]
//	triq -data graph.nt -sparql query.rq [-regime active-domain]
//	triq -sparql query.rq [-regime all]              # print the translated program
//	triq -data graph.nt -program rules.dlog -prove 'p(a, b)'
//
// The data file is N-Triples (bare prefixed names allowed); the program file
// uses the rule syntax of the paper, e.g.
//
//	triple(?X, partOf, transportService) -> ts(?X).
//	triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
//	ts(?T), triple(?X, ?T, ?Y) -> query(?X, ?Y).
//
// The flags fill the same serve.QueryRequest a triqd request body decodes
// into, and the answer is the same serve.QueryResponse: -lang and -regime take
// the wire's names, the rows are the wire's rows, and -json prints the body a
// triqd 200 carries. Under a non-plain -regime a SPARQL query is translated
// for that regime, and a program gets the regime's fixed rule library
// prepended (τ_owl2ql_core, or the ρdf rules), so it sees the entailed triples
// in triple1(·,·,·). With -prove the ProofTree decision procedure of Section
// 6.3 is run on a single goal atom and the proof tree is printed.
//
// Observability (see README "Observability"): -explain prints the per-query
// EXPLAIN report (per-rule chase stats with provenance, stage times), -metrics
// prints the per-rule chase breakdown and the metrics registry to stderr,
// -trace streams the JSONL span trace to a file, and -pprof serves
// net/http/pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	sparql    string        // SPARQL query file ("-" = stdin)
	query     string        // output predicate
	lang      string        // wire name of the dialect
	regime    string        // wire name of the entailment regime
	ontology  string        // OWL functional-syntax file merged into the data
	exact     bool          // provably complete answer (ProofTree on what the chase leaves open)
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
	version   bool          // print version and exit
}

// defineFlags declares every flag of the binary on fs; TestFlagLedger pins
// the result against testdata/flags.golden.
func defineFlags(fs *flag.FlagSet) *config {
	cfg := &config{}
	fs.StringVar(&cfg.data, "data", "", "N-Triples data file (required except with -analyze, or with -sparql to print the translation only)")
	fs.StringVar(&cfg.program, "program", "", "Datalog program file (this or -sparql is required)")
	fs.StringVar(&cfg.sparql, "sparql", "", "SPARQL SELECT query file ('-' for stdin), translated into a TriQ query under -regime; without -data the translated program is printed instead of evaluated")
	fs.StringVar(&cfg.query, "query", "query", "output predicate of the program")
	fs.StringVar(&cfg.lang, "lang", "triq-lite", "language check for -program: triq | triq-lite | unrestricted")
	fs.StringVar(&cfg.regime, "regime", "plain", "entailment regime: plain | active-domain | all | rdfs (translates -sparql under it; prepends its fixed rule library to -program)")
	fs.StringVar(&cfg.ontology, "ontology", "", "OWL 2 QL core ontology file in functional-style syntax; its RDF serialization is merged into the data")
	fs.BoolVar(&cfg.exact, "exact", false, "provably complete answer: ProofTree decides what the chase leaves open (TriQ-Lite 1.0 only)")
	fs.StringVar(&cfg.prove, "prove", "", "instead of querying, decide one ground atom with ProofTree and print the proof")
	fs.BoolVar(&cfg.analyze, "analyze", false, "instead of querying, print the program analysis report (strata, affected positions, wards, dialects)")
	fs.BoolVar(&cfg.dot, "dot", false, "with -analyze: print the predicate dependency graph in Graphviz DOT; with -prove: print the proof tree in DOT")
	fs.IntVar(&cfg.depth, "depth", 0, "chase null-depth bound (0 = default)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock evaluation deadline, e.g. 30s (0 = none; exit 124 on expiry)")
	fs.IntVar(&cfg.maxFacts, "max-facts", 0, "abort the chase once the instance holds this many facts (0 = unlimited; partial answers + exit 3)")
	fs.IntVar(&cfg.maxRounds, "max-rounds", 0, "abort the chase after this many rounds per stratum (0 = unlimited; partial answers + exit 3)")
	fs.IntVar(&cfg.maxVisits, "max-visits", 0, "proof-search component-visit budget for -prove/-exact (0 = default; exit 3 on trip)")
	fs.StringVar(&cfg.trace, "trace", "", "write a JSONL span trace to this file")
	fs.BoolVar(&cfg.explain, "explain", false, "print the EXPLAIN report (per-rule chase stats with provenance, stage times) to stderr; with -json it is embedded in the response")
	fs.BoolVar(&cfg.metrics, "metrics", false, "print the per-rule chase breakdown and metrics registry to stderr")
	fs.StringVar(&cfg.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit results (and errors) as JSON in the same wire format the triqd server uses")
	fs.BoolVar(&cfg.version, "version", false, "print version and exit")
	return cfg
}

func main() {
	cfg := defineFlags(flag.CommandLine)
	flag.Parse()
	if cfg.version {
		fmt.Println(obs.VersionString("triq"))
		return
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	if err := run(ctx, *cfg); err != nil {
		if cfg.jsonOut {
			// The same failure body a triqd error response carries.
			_ = serve.EncodeJSON(os.Stdout, limits.ToWire(err))
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

// request spells the flags as the wire request a triqd client would send,
// reading the program or query text from its file.
func request(cfg config) (serve.QueryRequest, error) {
	qr := serve.QueryRequest{
		Output:    cfg.query,
		Lang:      cfg.lang,
		Regime:    cfg.regime,
		MaxFacts:  cfg.maxFacts,
		MaxRounds: cfg.maxRounds,
		Explain:   cfg.explain,
		Exact:     cfg.exact,
	}
	if cfg.analyze || cfg.prove != "" {
		// The report and the proof search take any program: reporting which
		// dialects it belongs to is what -analyze is for.
		qr.Lang = "unrestricted"
	}
	var src []byte
	var err error
	switch {
	case (cfg.program == "") == (cfg.sparql == ""):
		return qr, errors.New("exactly one of -program and -sparql is required")
	case cfg.sparql == "-":
		src, err = io.ReadAll(os.Stdin)
	case cfg.sparql != "":
		src, err = os.ReadFile(cfg.sparql)
	default:
		src, err = os.ReadFile(cfg.program)
	}
	if cfg.sparql != "" {
		qr.Query = string(src)
	} else {
		qr.Program = string(src)
	}
	return qr, err
}

func run(ctx context.Context, cfg config) (err error) {
	// One pathological query must not take down the process with a raw
	// panic: recover it into a typed ErrInternal (exit 2).
	defer limits.Recover(&err)
	qr, err := request(cfg)
	if err != nil {
		return err
	}
	req, err := qr.Request(cfg.sparql != "")
	if err != nil {
		return err
	}
	if (cfg.analyze || cfg.prove != "") && req.SPARQL != nil {
		return errors.New("-analyze and -prove take a -program")
	}
	if cfg.pprof != "" {
		ln, err := startPprof(cfg.pprof)
		if err != nil {
			return err
		}
		defer ln.Close()
	}
	if cfg.analyze {
		if cfg.dot {
			fmt.Print(datalog.DependencyDOT(req.Query.Program))
			return nil
		}
		fmt.Print(datalog.Report(req.Query.Program))
		return nil
	}
	if cfg.data == "" && req.SPARQL == nil {
		return errors.New("-data is required")
	}
	o, closeObs, err := setupObs(cfg)
	if err != nil {
		return err
	}
	// What the wire cannot say: the depth bound, the proof-search budget
	// (read by -exact and -prove only) and where the telemetry goes.
	req.Options.Chase.MaxDepth = cfg.depth
	req.Options.Chase.Obs = o
	req.Options.MaxVisits = cfg.maxVisits
	if cfg.data == "" {
		err = printTranslation(cfg, req, o)
	} else if g, gerr := owl.LoadGraph(cfg.data, cfg.ontology); gerr != nil {
		err = gerr
	} else if cfg.prove != "" {
		err = runProve(ctx, cfg, g, req.Query.Program, o)
	} else {
		err = runQuery(ctx, cfg, g, req)
	}
	if cerr := closeObs(); err == nil {
		err = cerr
	}
	return err
}

// printTranslation prints the TriQ query a SPARQL query translates to under
// the regime, behind a header naming the pattern, the regime and the answer
// predicate.
func printTranslation(cfg config, req repro.Request, o *obs.Obs) error {
	tr, err := translate.Traced(req.SPARQL.Pattern(), req.Regime, o)
	if err != nil {
		return err
	}
	fmt.Printf("%% SPARQL pattern: %s\n", req.SPARQL.Pattern())
	fmt.Printf("%% regime: %s\n", req.Regime)
	fmt.Printf("%% answer predicate: %s(%s)  (⋆ marks unbound positions)\n",
		translate.AnswerPred, strings.Join(tr.Vars, ", "))
	fmt.Print(tr.Query.Program.String())
	if cfg.metrics {
		fmt.Fprint(os.Stderr, o.Summary())
	}
	return nil
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

// runQuery evaluates the request and prints the response a triqd 200 would
// carry for it: as that JSON body with -json, otherwise one wire row per line
// on stdout and everything else on stderr.
func runQuery(ctx context.Context, cfg config, g *rdf.Graph, req repro.Request) error {
	start := time.Now()
	out, err := repro.Eval(ctx, g, req)
	if err != nil {
		return err
	}
	resp := serve.NewQueryResponse(out, 1)
	resp.ElapsedUS = time.Since(start).Microseconds()
	if cfg.jsonOut {
		return serve.EncodeJSON(os.Stdout, resp)
	}
	if resp.Inconsistent {
		fmt.Println("⊤ (the graph is inconsistent with the program's constraints)")
		return nil
	}
	for _, row := range resp.Rows {
		fmt.Println(row)
	}
	fmt.Fprintf(os.Stderr, "%d answers (depth %d, exact=%v, %d facts derived)\n",
		len(resp.Rows), out.Depth, resp.Exact, out.Stats.FactsDerived)
	if resp.Explain != nil {
		fmt.Fprint(os.Stderr, resp.Explain.String())
	}
	if cfg.metrics {
		fmt.Fprint(os.Stderr, out.Stats.String())
		fmt.Fprint(os.Stderr, req.Options.Chase.Obs.Summary())
	}
	if resp.Incomplete {
		// The partial answers above are sound; signal the truncation on
		// stderr and through the exit code (3).
		return resp.Truncation.Err()
	}
	return nil
}
