package main

// The five fixed workloads. Each is a traffic mix against a fresh triqd with
// default flags plus -addr, -data and -trace-seed, unless flags says more.
// Load is a closed loop of two clients, one connection each: every caller of
// triqd waits for its reply before sending again.

const clients = 2

type workload struct {
	name string
	why  string // also the "why" in BENCHMARK.json

	graph func(*inputs) string // N-Triples served by triqd
	route bool                 // the graph holds the transport route
	// sparql and regime make the read request a POST /sparql; without them
	// it is a POST /query of the transport program.
	sparql func(*inputs) string
	regime string
	expect func(in *inputs, epoch uint64) digest // oracle for a read at a store epoch

	// durable runs triqd behind a WAL with the materializer on, replaces one
	// of the two readers by a writer that alternates /insert and /delete of
	// generated batches, and ends with the crash-recovery audit.
	durable bool
	// reportWrites selects which side's latencies become ops_per_s, p50_ms
	// and p95_ms: the writer's commits, or the reader's queries.
	reportWrites bool
	// dominant names the layer the rationale says this workload is bound by;
	// the traced run aborts when another one is.
	dominant string
}

var workloads = []workload{
	{
		name:     "transport_chase",
		why:      "derivation-bound: 83 chase rounds over 128 triples, so trigger matching and Instance.Add show here and a cheaper graph copy must not",
		graph:    func(in *inputs) string { return in.T },
		route:    true,
		expect:   func(in *inputs, _ uint64) digest { return in.closure },
		dominant: "eval",
	},
	{
		name:     "university_regime",
		why:      "the paper's headline path: SPARQL under the OWL 2 QL core regime, 26 translated rules with existential nulls and few rounds, so translation and rule indexing show here first",
		graph:    func(in *inputs) string { return in.U },
		sparql:   func(*inputs) string { return universityQuery },
		regime:   "active-domain",
		expect:   func(in *inputs, _ uint64) digest { return in.persons },
		dominant: "eval",
	},
	{
		name:     "lookup_big",
		why:      "copy-bound: a point lookup deriving a handful of facts over a 10k-triple graph costs what loading and copying the graph costs, 80x the working set of the other graphs",
		graph:    func(in *inputs) string { return in.D },
		route:    true,
		sparql:   (*inputs).lookupQuery,
		regime:   "plain",
		expect:   func(in *inputs, _ uint64) digest { return in.contacts },
		dominant: "copy",
	},
	{
		name:         "write_mix",
		why:          "commit path beside reads: parse, graph clone, WAL append and fsync, materialization maintenance and every 16th commit a checkpoint; reports the writer's commits",
		graph:        func(in *inputs) string { return in.D },
		route:        true,
		expect:       (*inputs).closureAt,
		durable:      true,
		reportWrites: true,
		dominant:     "mat",
	},
	{
		name:     "write_mix_reads",
		why:      "write_mix seen by its reader: answers come from the warm materialization, so parsing, validation and encoding 3240 rows show here, and so does a commit that makes readers miss it",
		graph:    func(in *inputs) string { return in.D },
		route:    true,
		expect:   (*inputs).closureAt,
		durable:  true,
		dominant: "mat",
	},
}

// request is the workload's read: endpoint and JSON body.
func (w *workload) request(in *inputs) (path string, body []byte) {
	if w.sparql == nil {
		return "/query", queryBody(transportProgram)
	}
	return "/sparql", sparqlBody(w.sparql(in), w.regime)
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
