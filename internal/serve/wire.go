package serve

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/limits"
	"repro/internal/obs"
)

// The HTTP wire format. Success bodies are QueryResponse; failure bodies are
// Failure, which embeds limits.WireError — the same JSON rendering of the
// error taxonomy the CLI -json mode emits, so one client-side decoder serves
// both surfaces. Field names are frozen (see internal/limits/wire.go).

// QueryRequest is the body of POST /query and POST /sparql.
type QueryRequest struct {
	// Program is the Datalog^{∃,¬s,⊥} program text (/query).
	Program string `json:"program,omitempty"`
	// Output is the program's output predicate (/query; default "query").
	Output string `json:"output,omitempty"`
	// Query is the SPARQL SELECT text (/sparql).
	Query string `json:"query,omitempty"`
	// Lang picks the dialect check for /query: "triq", "triq-lite"
	// (default), or "unrestricted".
	Lang string `json:"lang,omitempty"`
	// Regime picks the /sparql entailment regime: "plain" (default),
	// "active-domain", "all", or "rdfs".
	Regime string `json:"regime,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline, capped
	// by the server's maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxFacts / MaxRounds cap the chase; zero uses engine defaults. Budget
	// trips degrade to a 200 with Incomplete and Truncation set.
	MaxFacts  int `json:"max_facts,omitempty"`
	MaxRounds int `json:"max_rounds,omitempty"`
	// Explain requests the per-query telemetry report in the response; the
	// handlers also accept it as the query parameter explain=1.
	Explain bool `json:"explain,omitempty"`
	// Exact requests certain-answer evaluation through the proof-theoretic
	// prover instead of the sound chase approximation. Supported by both
	// endpoints for TriQ-Lite 1.0 programs (Corollaries 5.4 / 6.2).
	Exact bool `json:"exact,omitempty"`
	// MinEpoch is the bounded-staleness floor: the evaluation waits (up to
	// the server's StalenessWait) for the local store to reach this epoch,
	// and sheds 503 + Retry-After if it cannot. Clients take the token from
	// a write's MutationResponse.Epoch (or any X-Triq-Epoch header) to get
	// read-your-writes on a replica. The X-Triq-Min-Epoch request header is
	// an equivalent spelling; the larger of the two wins.
	MinEpoch uint64 `json:"min_epoch,omitempty"`
}

// QueryResponse is the 200 body. A truncated evaluation is still a 200 — the
// rows are a sound partial answer and Truncation says what tripped; clients
// that need completeness must check Incomplete.
type QueryResponse struct {
	// Rows holds the answers, one row per answer tuple (space-joined RDF
	// terms for /query, "var=term" bindings for /sparql).
	Rows []string `json:"rows"`
	// Inconsistent is true when the query evaluated to ⊤.
	Inconsistent bool `json:"inconsistent,omitempty"`
	// Exact reports a provably complete evaluation: the chase terminated, or
	// its closing pass proved that a deeper bound adds no answer.
	Exact bool `json:"exact,omitempty"`
	// Incomplete marks a budget-truncated (sound but possibly partial)
	// answer set.
	Incomplete bool `json:"incomplete,omitempty"`
	// Truncation is the limit report, present exactly when Incomplete.
	Truncation *limits.Truncation `json:"truncation,omitempty"`
	// ElapsedUS is the server-side evaluation time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Attempts counts evaluation tries (> 1 when transient faults were
	// retried away).
	Attempts int `json:"attempts,omitempty"`
	// Explain is the per-query telemetry report, present when the request
	// asked for it (body field or explain=1).
	Explain *repro.ExplainReport `json:"explain,omitempty"`
	// TraceID identifies the request's trace; the same id is echoed in the
	// traceparent response header and addresses /debug/trace?id=...
	TraceID string `json:"trace_id,omitempty"`
	// Resources is the request's resource account, present when the request
	// asked for Explain (it also rides inside Explain.Resources).
	Resources *obs.Account `json:"resources,omitempty"`
	// Epoch is the store epoch the evaluation pinned (also in the
	// X-Triq-Epoch response header). Zero on graph-only deployments.
	Epoch uint64 `json:"epoch,omitempty"`
}

// MutationRequest is the body of POST /insert and POST /delete: a batch of
// N-Triples to apply atomically (all-or-nothing, one new epoch).
type MutationRequest struct {
	// Triples is the batch in N-Triples text.
	Triples string `json:"triples"`
}

// MutationResponse is the 200 body of a mutation.
type MutationResponse struct {
	// Epoch is the store epoch after the batch (unchanged for a no-op batch).
	Epoch uint64 `json:"epoch"`
	// Applied counts the triples that actually changed the graph (inserts of
	// present triples and deletes of absent ones are no-ops).
	Applied int `json:"applied"`
	// Batch counts the triples in the request.
	Batch int `json:"batch"`
	// Durable reports whether the acknowledgement implies the batch survives
	// a crash (WAL enabled with the "always" fsync policy).
	Durable bool `json:"durable"`
	// ElapsedUS is the server-side mutation time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// TraceID identifies the mutation's trace (also echoed in the
	// traceparent response header); a sampled trace gains a replica-side
	// repl.apply span once the record ships.
	TraceID string `json:"trace_id,omitempty"`
}

// Failure is the non-200 body: the taxonomy wire error plus an optional
// retry hint (set on 503s).
type Failure struct {
	limits.WireError
	// RetryAfterMS mirrors the Retry-After header in milliseconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Primary is the primary's address, set when a replica refuses a write
	// (mirrors the X-Triq-Primary header) so clients can re-aim.
	Primary string `json:"primary,omitempty"`
}

// parseLang maps the wire name to a dialect.
func parseLang(name string) (repro.Language, error) {
	switch name {
	case "", "triq-lite":
		return repro.TriQLite10, nil
	case "triq":
		return repro.TriQ10, nil
	case "unrestricted":
		return repro.Unrestricted, nil
	default:
		return 0, fmt.Errorf("unknown lang %q (want triq, triq-lite, or unrestricted)", name)
	}
}

// parseRegime maps the wire name to an entailment regime.
func parseRegime(name string) (repro.Regime, error) {
	switch name {
	case "", "plain":
		return repro.PlainRegime, nil
	case "active-domain":
		return repro.ActiveDomainRegime, nil
	case "all":
		return repro.AllRegime, nil
	case "rdfs":
		return repro.RDFSRegime, nil
	default:
		return 0, fmt.Errorf("unknown regime %q (want plain, active-domain, all, or rdfs)", name)
	}
}

// timeoutOf resolves the effective evaluation deadline for a request.
func (r *QueryRequest) timeoutOf(def, max time.Duration) time.Duration {
	d := def
	if r.TimeoutMS > 0 {
		d = time.Duration(r.TimeoutMS) * time.Millisecond
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
