// Command triqbench runs the full experiment harness — one experiment per
// paper artifact (Table 1, Figure 1, Theorems 4.4, 5.2, 5.3, 6.7, 6.15,
// Lemmas 6.5/6.6, Theorems 7.1/7.2) — and prints the paper-vs-measured
// tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	triqbench            # run everything
//	triqbench -only E2   # run one experiment
//	triqbench -json      # machine-readable BENCH JSON (tables + per-stage breakdowns + host stamp)
//
// A table fails on a deterministic check (answers, identities, shapes) or on
// a wall-clock gate (overhead bars, speedup floors); either exits non-zero.
// The test suite asserts only the former.
//
// With -server it switches to concurrent-client mode against a running
// triqd, reporting throughput and latency quantiles (the serving baseline
// recorded in EXPERIMENTS.md E10):
//
//	triqbench -server http://localhost:8471 -parallel 8 -requests 400
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	only := flag.String("only", "", "run a single experiment by id (T1, F1, E1 … E9, E11 … E17)")
	asJSON := flag.Bool("json", false, "emit the tables as JSON (with per-stage engine breakdowns) instead of markdown")
	parallelism := flag.Int("parallelism", 0, "chase workers for every experiment (0 = GOMAXPROCS, 1 = sequential; E11 sweeps its own)")
	server := flag.String("server", "", "concurrent-client mode: base URL of a running triqd (e.g. http://localhost:8471)")
	endpoint := flag.String("endpoint", "/query", "with -server: endpoint to hit (/query or /sparql)")
	reqBody := flag.String("body", "", "with -server: JSON request body (default: the transport-closure program)")
	parallel := flag.Int("parallel", 8, "with -server: number of concurrent clients")
	requests := flag.Int("requests", 200, "with -server: total requests across all clients")
	traceSample := flag.Float64("trace-sample", 0, "with -server: send W3C traceparent headers, this fraction with the sampled flag")
	writePct := flag.Float64("write-pct", 0, "with -server: percentage of requests sent as /insert-/delete batches (write soak)")
	writeBatch := flag.Int("write-batch", 8, "with -server: triples per mutation batch")
	retryBudget := flag.Int("retry-budget", 0, "with -server: total 503 retries the run may spend honoring Retry-After (0 = no retries)")
	readYourWrites := flag.Bool("read-your-writes", false, "with -server: reads demand the highest acknowledged write epoch (X-Triq-Min-Epoch); reports observed staleness waits")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("triqbench"))
		os.Exit(0)
	}

	if *server != "" {
		os.Exit(clientMain(*server, *endpoint, *reqBody, *parallel, *requests, *traceSample, *writePct, *writeBatch, *retryBudget, *readYourWrites, *asJSON))
	}
	bench.SetParallelism(*parallelism)

	runners := map[string]func() *bench.Table{
		"T1": bench.RunT1, "F1": bench.RunF1,
		"E1": bench.RunE1, "E2": bench.RunE2, "E3": bench.RunE3,
		"E4": bench.RunE4, "E5": bench.RunE5, "E6": bench.RunE6,
		"E7": bench.RunE7, "E8": bench.RunE8, "E9": bench.RunE9,
		"E11": bench.RunE11, "E12": bench.RunE12, "E13": bench.RunE13, "E14": bench.RunE14,
		"E15": bench.RunE15, "E16": bench.RunE16, "E17": bench.RunE17,
	}

	var tables []*bench.Table
	if *only != "" {
		r, ok := runners[strings.ToUpper(*only)]
		if !ok {
			fmt.Fprintf(os.Stderr, "triqbench: unknown experiment %q\n", *only)
			os.Exit(1)
		}
		tables = append(tables, r())
	} else {
		tables = bench.RunAll()
	}

	failed := 0
	for _, t := range tables {
		if !t.Passed() {
			failed++
		}
	}
	if *asJSON {
		host := bench.HostStamp()
		for _, t := range tables {
			t.Host = host
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, "triqbench:", err)
			os.Exit(1)
		}
	} else {
		for _, t := range tables {
			fmt.Println(t.Render())
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "triqbench: %d experiment(s) did not reproduce or failed a timing gate\n", failed)
		os.Exit(1)
	}
	if !*asJSON {
		fmt.Printf("all %d experiments reproduced.\n", len(tables))
	}
}

// defaultClientBody is the body clientMain posts when -body is empty: the
// paper's transport-service closure as a /query request.
const defaultClientBody = `{"program": "triple(?X, partOf, transportService) -> ts(?X). triple(?X, partOf, ?Y), ts(?Y) -> ts(?X). ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y). ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y). conn(?X, ?Y) -> query(?X, ?Y)."}`

// clientMain is the concurrent-client mode: drive a running triqd and
// report throughput + latency quantiles (plus observed staleness waits and
// the node's replication lag, in epochs and seconds, from /readyz).
func clientMain(server, endpoint, body string, parallel, requests int, traceSample, writePct float64, writeBatch, retryBudget int, readYourWrites, asJSON bool) int {
	if body == "" {
		body = defaultClientBody
	}
	res, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		URL:            strings.TrimRight(server, "/") + endpoint,
		Body:           []byte(body),
		Parallel:       parallel,
		Requests:       requests,
		Timeout:        60 * time.Second,
		Trace:          traceSample > 0,
		TraceSample:    traceSample,
		WritePct:       writePct,
		MutateBase:     strings.TrimRight(server, "/"),
		WriteBatch:     writeBatch,
		RetryBudget:    retryBudget,
		ReadYourWrites: readYourWrites,
		StatusBase:     strings.TrimRight(server, "/"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "triqbench:", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "triqbench:", err)
			return 1
		}
	} else {
		fmt.Printf("triqd load: %s %s parallel=%d\n  %s\n", server, endpoint, parallel, res)
	}
	if res.OK == 0 {
		fmt.Fprintln(os.Stderr, "triqbench: no request succeeded")
		return 1
	}
	return 0
}
