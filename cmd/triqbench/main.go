// Command triqbench is the load client for a running triqd: concurrent
// clients post queries (and, with -write-pct, mutation batches) and the run
// reports throughput and latency quantiles — the serving baseline recorded in
// EXPERIMENTS.md E10 and the driver of the CI smokes.
//
//	triqbench -server http://localhost:8471 -parallel 8 -requests 400
//
// The paper's reproduction tables are printed by
// `go test -v -run TestAllExperimentsReproduce ./internal/bench`; the
// benchmark binary is built from the benchmark/ module.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// defaultBody is posted when -body is empty: the paper's transport-service
// closure as a /query request.
const defaultBody = `{"program": "triple(?X, partOf, transportService) -> ts(?X). triple(?X, partOf, ?Y), ts(?Y) -> ts(?X). ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y). ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y). conn(?X, ?Y) -> query(?X, ?Y)."}`

// main drives a running triqd and reports throughput + latency quantiles
// (plus observed staleness waits and the node's replication lag, in epochs
// and seconds, from /readyz).
func main() {
	server := flag.String("server", "", "base URL of a running triqd (e.g. http://localhost:8471)")
	endpoint := flag.String("endpoint", "/query", "endpoint to hit (/query or /sparql)")
	body := flag.String("body", "", "JSON request body (default: the transport-closure program)")
	parallel := flag.Int("parallel", 8, "number of concurrent clients")
	requests := flag.Int("requests", 200, "total requests across all clients")
	traceSample := flag.Float64("trace-sample", 0, "send W3C traceparent headers, this fraction with the sampled flag")
	writePct := flag.Float64("write-pct", 0, "percentage of requests sent as /insert-/delete batches (write soak)")
	writeBatch := flag.Int("write-batch", 8, "triples per mutation batch")
	retryBudget := flag.Int("retry-budget", 0, "total 503 retries the run may spend honoring Retry-After (0 = no retries)")
	readYourWrites := flag.Bool("read-your-writes", false, "reads demand the highest acknowledged write epoch (X-Triq-Min-Epoch); reports observed staleness waits")
	asJSON := flag.Bool("json", false, "emit the load result as JSON")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("triqbench"))
		return
	}
	if *server == "" {
		fmt.Fprintln(os.Stderr, "triqbench: -server is required")
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err any) {
		fmt.Fprintln(os.Stderr, "triqbench:", err)
		os.Exit(1)
	}
	if *body == "" {
		*body = defaultBody
	}
	base := strings.TrimRight(*server, "/")
	res, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		URL:            base + *endpoint,
		Body:           []byte(*body),
		Parallel:       *parallel,
		Requests:       *requests,
		Timeout:        60 * time.Second,
		Trace:          *traceSample > 0,
		TraceSample:    *traceSample,
		WritePct:       *writePct,
		MutateBase:     base,
		WriteBatch:     *writeBatch,
		RetryBudget:    *retryBudget,
		ReadYourWrites: *readYourWrites,
		StatusBase:     base,
	})
	if err != nil {
		fail(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
	} else {
		fmt.Printf("triqd load: %s %s parallel=%d\n  %s\n", *server, *endpoint, *parallel, res)
	}
	if res.OK == 0 {
		fail("no request succeeded")
	}
}
