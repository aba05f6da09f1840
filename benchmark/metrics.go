package main

// The declared metrics. BENCHMARK.json at the repository root is the output
// of `triqbench manifest`, which renders these tables; the test compares the
// two, so a metric cannot be printed without being declared, or the reverse.

import (
	"encoding/json"
	"math"
	"sort"
	"time"
)

type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is the measured window of one run, and BENCHMARK.json's
// run_seconds: the longest that lets the driver's 114 runs, at 21 to 25 s
// each with set-up, use four fifths of its 3420 s.
const runSeconds = 18

// endToEnd is what a client of triqd, or whoever pays for its machine, sees.
// The same six are reported on every workload; ops, p50 and p95 describe the
// side the workload reports (its reads, or write_mix's commits). Everything
// the clock enters is scaled to the reference host speed (calib.go) and has
// the widest bound allowed: ten runs spread by 2 to 7 %, but a slow phase of
// the host leaves a residue of up to 18 % after scaling (README.md, "Observed
// spread"). Allocation does not depend on the host and is tight.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
	{"server_alloc_mb_per_op", "MB", "lower", 0.02},
}

// perLayer is the ledger of the traced run, one row per layer boundary. A
// name's suffix is its unit; _us is microseconds per request or per commit.
var perLayer = []decl{
	{Name: "serve.request_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "facade.ask_us", Unit: "us", Better: "lower"},
	{Name: "facade.self_us", Unit: "us", Better: "lower"},
	{Name: "facade.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "facade.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "sparql.parse_us", Unit: "us", Better: "lower"},
	{Name: "datalog.parse_us", Unit: "us", Better: "lower"},
	{Name: "triq.validate_us", Unit: "us", Better: "lower"},
	{Name: "translate.translate_us", Unit: "us", Better: "lower"},
	{Name: "translate.rules", Unit: "count", Better: "lower"},
	{Name: "translate.load_db_us", Unit: "us", Better: "lower"},
	{Name: "translate.load_db_allocs", Unit: "count", Better: "lower"},
	{Name: "chase.instance_add_ns", Unit: "ns", Better: "lower"},
	{Name: "chase.instance_clone_us", Unit: "us", Better: "lower"},
	{Name: "triq.eval_us", Unit: "us", Better: "lower"},
	{Name: "triq.eval_allocs", Unit: "count", Better: "lower"},
	{Name: "chase.eval_ns_per_fact", Unit: "ns", Better: "lower"},
	{Name: "chase.rounds", Unit: "count", Better: "lower"},
	{Name: "chase.triggers_attempted", Unit: "count", Better: "lower"},
	{Name: "chase.triggers_fired", Unit: "count", Better: "lower"},
	{Name: "chase.facts_derived", Unit: "count", Better: "lower"},
	{Name: "chase.nulls_invented", Unit: "count", Better: "lower"},
	{Name: "chase.fired_per_attempted", Unit: "ratio", Better: "higher"},
	{Name: "mat.build_us", Unit: "us", Better: "lower"},
	{Name: "mat.serve_us", Unit: "us", Better: "lower"},
	{Name: "mat.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "mat.maintain_insert_us", Unit: "us", Better: "lower"},
	{Name: "mat.maintain_delete_us", Unit: "us", Better: "lower"},
	{Name: "rdf.graph_clone_us", Unit: "us", Better: "lower"},
	{Name: "rdf.parse_ntriples_us", Unit: "us", Better: "lower"},
	{Name: "store.insert_us", Unit: "us", Better: "lower"},
	{Name: "store.insert_nosync_us", Unit: "us", Better: "lower"},
	{Name: "store.sync_cost_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "store.disk_kb_per_batch", Unit: "KB", Better: "lower"},
	{Name: "store.checkpoint_us", Unit: "us", Better: "lower"},
	{Name: "store.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "store.recovery_records", Unit: "count", Better: "lower"},
	{Name: "store.apply_replicated_us", Unit: "us", Better: "lower"},
	{Name: "repl.visible_lag_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.loadgen_cpu_share", Unit: "ratio", Better: "lower"},
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(out, '\n')
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns measured values into the metrics object of the result line,
// in the declared units; a declared metric without a value is an error the
// caller reports, never a silent zero.
func report(decls []decl, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(decls))
	var missing []string
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{v, d.Unit}
	}
	return out, missing
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
