// Command sparql2triq translates a SPARQL query into a TriQ query following
// Sections 5.1–5.3 of the paper and prints the resulting Datalog program.
//
// Usage:
//
//	sparql2triq -query query.rq [-regime plain|u|all] [-eval graph.nt]
//
// With -eval the translated query is additionally evaluated over the given
// graph and the solution mappings are printed.
//
// Observability (see README "Observability"): -metrics prints the per-rule
// chase breakdown and the metrics registry to stderr, -trace streams the
// JSONL span trace (translation and evaluation spans) to a file, and -pprof
// serves net/http/pprof.
package main

import (
	"context"
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
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/translate"
)

// Exit codes of the resource-governance contract (see README "Resource
// limits & cancellation"): 124 mirrors timeout(1).
const (
	exitUsage    = 1   // flag/parse/IO errors
	exitInternal = 2   // recovered engine panic
	exitBudget   = 3   // fact/round budget tripped
	exitTimeout  = 124 // -timeout deadline exceeded
)

// config collects the CLI flags.
type config struct {
	query     string        // SPARQL query file ("-" = stdin)
	regime    string        // plain | u | all
	eval      string        // N-Triples graph to evaluate over ("" = translate only)
	timeout   time.Duration // wall-clock deadline for -eval (0 = none)
	maxFacts  int           // chase fact budget (0 = none)
	maxRounds int           // chase round budget (0 = none)
	trace     string        // JSONL span trace file ("" = off)
	explain   bool          // print the per-query EXPLAIN report to stderr
	metrics   bool          // print metrics summary to stderr
	pprof     string        // pprof listen address ("" = off)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.query, "query", "", "SPARQL query file (required; '-' for stdin)")
	flag.StringVar(&cfg.regime, "regime", "plain", "semantics: plain | u | all")
	flag.StringVar(&cfg.eval, "eval", "", "optionally evaluate over this N-Triples graph")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock evaluation deadline, e.g. 30s (0 = none; exit 124 on expiry)")
	flag.IntVar(&cfg.maxFacts, "max-facts", 0, "abort the chase once the instance holds this many facts (0 = unlimited; partial mappings + exit 3)")
	flag.IntVar(&cfg.maxRounds, "max-rounds", 0, "abort the chase after this many rounds per stratum (0 = unlimited; partial mappings + exit 3)")
	flag.StringVar(&cfg.trace, "trace", "", "write a JSONL span trace to this file")
	flag.BoolVar(&cfg.explain, "explain", false, "with -eval: print the EXPLAIN report (Datalog rules attributed to SPARQL operators, per-rule chase stats, stage times) to stderr")
	flag.BoolVar(&cfg.metrics, "metrics", false, "print the per-rule chase breakdown and metrics registry to stderr")
	flag.StringVar(&cfg.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("sparql2triq"))
		return
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sparql2triq:", err)
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

// setupObs builds the observability handle from the trace/metrics flags; the
// closer flushes and closes the trace file. Both flags off → nil handle.
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

func run(ctx context.Context, cfg config) (err error) {
	// One pathological query must not take down the process with a raw
	// panic: recover it into a typed ErrInternal (exit 2).
	defer limits.Recover(&err)
	if cfg.query == "" {
		return fmt.Errorf("-query is required")
	}
	if cfg.pprof != "" {
		ln, err := net.Listen("tcp", cfg.pprof)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "pprof: listening on http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil) // pprof handlers live on http.DefaultServeMux
	}
	o, closeObs, err := setupObs(cfg)
	if err != nil {
		return err
	}
	err = translateAndEval(ctx, cfg, o)
	if cerr := closeObs(); err == nil {
		err = cerr
	}
	return err
}

func translateAndEval(ctx context.Context, cfg config, o *obs.Obs) error {
	var src []byte
	var err error
	if cfg.query == "-" {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 4096)
		for {
			n, rerr := os.Stdin.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if rerr != nil {
				break
			}
		}
		src = buf
	} else {
		src, err = os.ReadFile(cfg.query)
		if err != nil {
			return err
		}
	}
	q, err := sparql.ParseQuery(string(src))
	if err != nil {
		return err
	}
	var regime translate.Regime
	switch strings.ToLower(cfg.regime) {
	case "plain":
		regime = translate.Plain
	case "u":
		regime = translate.ActiveDomain
	case "all":
		regime = translate.All
	default:
		return fmt.Errorf("unknown regime %q (want plain, u, or all)", cfg.regime)
	}
	// When the query is evaluated too, Eval runs the traced translation the
	// telemetry should see; the one printed here then stays out of it.
	printObs := o
	if cfg.eval != "" {
		printObs = nil
	}
	tr, err := translate.Traced(q.Pattern(), regime, printObs)
	if err != nil {
		return err
	}
	fmt.Printf("%% SPARQL pattern: %s\n", q.Pattern())
	fmt.Printf("%% regime: %s\n", regime)
	fmt.Printf("%% answer predicate: %s(%s)  (⋆ marks unbound positions)\n",
		translate.AnswerPred, strings.Join(tr.Vars, ", "))
	fmt.Print(tr.Query.Program.String())

	if cfg.eval == "" {
		if cfg.metrics {
			fmt.Fprint(os.Stderr, o.Summary())
		}
		return nil
	}
	f, err := os.Open(cfg.eval)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := rdf.ParseNTriples(f)
	if err != nil {
		return err
	}
	res, err := repro.Eval(ctx, g, repro.Request{
		SPARQL:  q,
		Regime:  regime,
		Explain: cfg.explain,
		Options: repro.Options{Chase: chase.Options{
			MaxDepth:  16,
			MaxFacts:  cfg.maxFacts,
			MaxRounds: cfg.maxRounds,
			Obs:       o,
		}},
	})
	if err != nil {
		return err
	}
	if res.Explain != nil {
		fmt.Fprint(os.Stderr, res.Explain.String())
	}
	if cfg.metrics {
		fmt.Fprint(os.Stderr, res.Stats.String())
		fmt.Fprint(os.Stderr, o.Summary())
	}
	if res.Inconsistent {
		fmt.Println("\n% evaluation: ⊤ (inconsistent)")
		return nil
	}
	ms := res.Mappings
	fmt.Printf("\n%% evaluation over %s: %d mappings\n", cfg.eval, ms.Len())
	fmt.Println(ms.String())
	if ms.Incomplete {
		// The partial mappings above are sound; signal the truncation on
		// stderr and through the exit code (3).
		return ms.Truncation.Err()
	}
	return nil
}
