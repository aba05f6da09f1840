package serve

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/limits"
	"repro/internal/obs"
)

// The wire format, and the one front door: a request is spelled as a
// QueryRequest and an answer rendered as a QueryResponse whoever asks — the
// HTTP handlers decode the struct from a body, cmd/triq fills it from flags —
// and QueryRequest.Request / NewQueryResponse are the only code that turns
// one into a repro.Request and a repro.Response into the other. Failure
// bodies are Failure, which embeds limits.WireError, the JSON rendering of
// the error taxonomy that triq -json prints too, so one client-side decoder
// serves both surfaces. Field names are frozen (see internal/limits/wire.go).

// QueryRequest is the body of POST /query and POST /sparql.
type QueryRequest struct {
	// Program is the Datalog^{∃,¬s,⊥} program text (/query).
	Program string `json:"program,omitempty"`
	// Output is the program's output predicate (/query; default "query").
	Output string `json:"output,omitempty"`
	// Query is the SPARQL SELECT text (/sparql).
	Query string `json:"query,omitempty"`
	// Lang picks the dialect a program is checked against: "triq",
	// "triq-lite" (default), or "unrestricted". A translated SPARQL query
	// needs no check.
	Lang string `json:"lang,omitempty"`
	// Regime picks the entailment regime: "plain" (default),
	// "active-domain", "all", or "rdfs". A SPARQL query is translated under
	// it; a program gets the regime's fixed rule library prepended
	// (τ_owl2ql_core, or the ρdf rules for "rdfs"), so it can read the
	// entailed triples off triple1(·,·,·).
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
	// Exact requests an answer that is provably complete or marked
	// Incomplete: the chase, with the ProofTree prover deciding the goals its
	// closing pass leaves open. Supported by both endpoints for TriQ-Lite 1.0
	// programs (Corollaries 5.4 / 6.2).
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

// Request turns the wire request into the evaluation it asks for: the names of
// lang and regime mapped, the program (or, when sparql is set, the SELECT
// text) parsed and validated, the budgets copied. Every failure is a bad
// request. What a door adds on top — the server its registry, progress gauge
// and materializer, the CLI its depth bound and trace — it sets on the
// returned Request's Options.
func (r *QueryRequest) Request(sparql bool) (repro.Request, error) {
	req := repro.Request{Exact: r.Exact, Explain: r.Explain}
	req.Options.Chase.MaxFacts = r.MaxFacts
	req.Options.Chase.MaxRounds = r.MaxRounds
	var err error
	if req.Language, err = parseLang(r.Lang); err != nil {
		return req, badRequest(err)
	}
	if req.Regime, err = parseRegime(r.Regime); err != nil {
		return req, badRequest(err)
	}
	if sparql {
		if req.SPARQL, err = repro.ParseSPARQL(r.Query); err != nil {
			return req, badRequest(err)
		}
		return req, nil
	}
	output := r.Output
	if output == "" {
		output = "query"
	}
	if req.Query, err = repro.ParseQuery(r.Program, output); err != nil {
		return req, badRequest(err)
	}
	if fixed := req.Regime.Program(); fixed != nil {
		req.Query.Program = fixed.Merge(req.Query.Program)
	}
	if err := repro.Validate(req.Query, req.Language); err != nil {
		return req, badRequest(err)
	}
	return req, nil
}

// NewQueryResponse renders an evaluation's outcome as the success body; the
// rows come from Response.Rows and nowhere else. The fields only a server
// knows (ElapsedUS, TraceID, Resources, Epoch) are left for it to fill.
func NewQueryResponse(out *repro.Response, attempts int) *QueryResponse {
	return &QueryResponse{
		Rows:         out.Rows(),
		Inconsistent: out.Inconsistent,
		Exact:        out.Exact,
		Incomplete:   out.Incomplete,
		Truncation:   out.Truncation,
		Attempts:     attempts,
		Explain:      out.Explain,
	}
}

// errBadRequest marks a request that cannot be evaluated as asked — unknown
// names, text that does not parse, a program outside its dialect — for the
// 400 mapping (exit 1 on the CLI).
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

func badRequest(err error) error { return errBadRequest{err: err} }

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
