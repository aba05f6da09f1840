// Package repro is the public API of this reproduction of "Expressive
// Languages for Querying the Semantic Web" (Arenas, Gottlob, Pieris;
// PODS 2014 / TODS 2018). It exposes the paper's two query languages —
// TriQ 1.0 (weakly-frontier-guarded Datalog^{∃,¬s,⊥}) and TriQ-Lite 1.0
// (warded Datalog^{∃,¬sg,⊥}) — over RDF graphs, together with the SPARQL
// algebra, the SPARQL → Datalog translations with and without the OWL 2 QL
// core entailment regimes, OWL 2 QL core ontologies, and the ProofTree
// decision procedure.
//
// Quick start:
//
//	g, _ := repro.ParseGraph(`
//	    TheAirline partOf transportService .
//	    A311 partOf TheAirline .
//	    Oxford A311 London .
//	`)
//	q, _ := repro.ParseQuery(`
//	    triple(?X, partOf, transportService) -> ts(?X).
//	    triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
//	    ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
//	    ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
//	    conn(?X, ?Y) -> query(?X, ?Y).
//	`, "query")
//	res, _ := repro.Ask(g, q, repro.TriQLite10, repro.Options{})
//	for _, row := range res.Rows() { fmt.Println(row) }
//
// # Concurrency
//
// A Graph is immutable after parsing and safe for any number of concurrent
// readers, and every evaluation entry point (Ask, AskSPARQL, AskExact and
// their Ctx variants) builds its own working state per call — the
// translation materializes a fresh instance of τ_db(G), the chase appends to
// a private layer over that instance and never writes it, and the exact
// enumeration builds a private prover. Many goroutines may
// therefore evaluate queries over one shared Graph (and shared parsed Query
// / SPARQLQuery / Translation values) without external locking; this is the
// contract the triqd server (cmd/triqd, internal/serve) relies on. The one
// stateful object is a Prover obtained from NewProver: it carries a memo
// table across calls, so its Prove methods serialize on an internal mutex —
// concurrent use is safe but not parallel; build one Prover per goroutine
// for parallel proof search.
package repro

import (
	"context"
	"io"
	"strings"
	"time"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/translate"
	"repro/internal/triq"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Graph is an indexed RDF graph.
	Graph = rdf.Graph
	// Triple is an RDF triple.
	Triple = rdf.Triple
	// Term is an RDF term (URI, blank node, or literal).
	Term = rdf.Term
	// Program is a Datalog^{∃,¬s,⊥} program.
	Program = datalog.Program
	// Query is a Datalog^{∃,¬s,⊥} query (Π, p).
	Query = datalog.Query
	// Options configure evaluation.
	Options = triq.Options
	// Language selects TriQ 1.0, TriQ-Lite 1.0, or no syntactic check.
	Language = triq.Language
	// Ontology is an OWL 2 QL core ontology.
	Ontology = owl.Ontology
	// SPARQLQuery is a parsed SPARQL SELECT or CONSTRUCT query.
	SPARQLQuery = sparql.Query
	// Pattern is a SPARQL algebra graph pattern.
	Pattern = sparql.Pattern
	// MappingSet is a set of SPARQL solution mappings.
	MappingSet = sparql.MappingSet
	// Translation is a compiled SPARQL → Datalog query.
	Translation = translate.Translation
	// Regime selects plain SPARQL semantics or an entailment regime.
	Regime = translate.Regime
	// ProofNode is a node of a proof-tree (Definition 6.11).
	ProofNode = triq.ProofNode
	// Truncation reports which resource limit cut an evaluation short and
	// how far it got (see internal/limits).
	Truncation = limits.Truncation
	// FaultPlan is a deterministic fault-injection plan for tests and chaos
	// drills (see internal/limits); install one via Options.Chase.Faults.
	FaultPlan = limits.Plan
	// ExplainReport is the structured telemetry of one explained evaluation:
	// per-rule chase stats with operator provenance, worker shard balance,
	// prover memo behavior, and per-stage wall-time percentiles.
	ExplainReport = triq.ExplainReport
	// Progress is a lock-free live progress gauge for chase runs; install one
	// via Options.Chase.Progress and poll Snapshot from any goroutine (triqd
	// serves it at /debug/progress).
	Progress = chase.Progress
	// ProgressSnapshot is one consistent-enough reading of a Progress.
	ProgressSnapshot = chase.ProgressSnapshot
)

// Resource-governance error taxonomy. Every limit abort wraps exactly one of
// these sentinels, so callers can dispatch with errors.Is; the full report is
// recoverable with TruncationOf.
var (
	// ErrCanceled is returned when the context was canceled.
	ErrCanceled = limits.ErrCanceled
	// ErrDeadline is returned when the context deadline passed.
	ErrDeadline = limits.ErrDeadline
	// ErrFactBudget is returned when Options.Chase.MaxFacts tripped.
	ErrFactBudget = limits.ErrFactBudget
	// ErrRoundBudget is returned when Options.Chase.MaxRounds tripped.
	ErrRoundBudget = limits.ErrRoundBudget
	// ErrVisitBudget is returned when ProofOptions.MaxVisits tripped.
	ErrVisitBudget = limits.ErrVisitBudget
	// ErrInternal wraps a panic recovered at the public API boundary.
	ErrInternal = limits.ErrInternal
)

// TruncationOf extracts the Truncation report from a limit error.
func TruncationOf(err error) (*Truncation, bool) { return limits.TruncationOf(err) }

// IsBudget reports whether err is a resource-budget trip (facts, rounds, or
// visits) as opposed to cancellation, a deadline, or an internal error.
func IsBudget(err error) bool { return limits.IsBudget(err) }

// Languages of the paper.
const (
	// TriQ10 is TriQ 1.0 (Definition 4.2); Eval is ExpTime-complete in data
	// complexity.
	TriQ10 = triq.TriQ10
	// TriQLite10 is TriQ-Lite 1.0 (Definition 6.1); Eval is PTime-complete
	// in data complexity.
	TriQLite10 = triq.TriQLite10
	// Unrestricted skips the dialect check.
	Unrestricted = triq.Unrestricted
)

// Entailment regimes for SPARQL evaluation (Sections 5.1–5.3).
const (
	// PlainRegime is the standard SPARQL semantics.
	PlainRegime = translate.Plain
	// ActiveDomainRegime is the OWL 2 QL core direct semantics entailment
	// regime ⟦·⟧^U.
	ActiveDomainRegime = translate.ActiveDomain
	// AllRegime is ⟦·⟧^All, lifting the active-domain restriction.
	AllRegime = translate.All
)

// ParseGraph reads an RDF graph in (a pragmatic superset of) N-Triples.
func ParseGraph(src string) (*Graph, error) {
	return rdf.ParseNTriplesString(src)
}

// ReadGraph reads an RDF graph from a reader.
func ReadGraph(r io.Reader) (*Graph, error) { return rdf.ParseNTriples(r) }

// ParseProgram parses a Datalog^{∃,¬s,⊥} program in the rule syntax used
// throughout the paper (see internal/datalog.Parse).
func ParseProgram(src string) (*Program, error) { return datalog.Parse(src) }

// ParseQuery parses a program and pairs it with its output predicate.
func ParseQuery(src, output string) (Query, error) {
	return datalog.ParseQuery(src, output)
}

// Validate checks that a query belongs to the given language.
func Validate(q Query, lang Language) error { return triq.Validate(q, lang) }

// Results is the outcome of asking a query over a graph.
type Results struct {
	// Inconsistent is true when Q(G) = ⊤ (some constraint fired).
	Inconsistent bool
	// Tuples holds the answer tuples as decoded RDF terms.
	Tuples [][]Term
	// Exact reports whether the evaluation provably saturated (see
	// internal/chase.StableGround).
	Exact bool
	// Incomplete is true when a resource budget tripped and Tuples is the
	// sound partial answer set derived before the abort. For positive
	// programs every listed tuple is a certain answer; only completeness is
	// lost. Cancellation and deadlines never degrade — they return errors.
	Incomplete bool
	// Truncation reports which limit tripped; non-nil exactly when
	// Incomplete.
	Truncation *Truncation
}

// Rows renders the tuples as strings, one row per answer.
func (r *Results) Rows() []string {
	out := make([]string, 0, len(r.Tuples))
	for _, tup := range r.Tuples {
		parts := make([]string, len(tup))
		for i, t := range tup {
			parts[i] = t.String()
		}
		out = append(out, strings.Join(parts, " "))
	}
	return out
}

// Ask evaluates a TriQ query over an RDF graph: the graph is loaded as the
// database τ_db(G) over the predicate triple(·,·,·), the query program is
// validated against the language, and the answers are decoded as RDF terms.
func Ask(g *Graph, q Query, lang Language, opts Options) (*Results, error) {
	return AskCtx(context.Background(), g, q, lang, opts)
}

// AskCtx is Ask under a context. Cancellation and deadlines return typed
// errors (ErrCanceled, ErrDeadline); budget trips (MaxFacts, MaxRounds)
// degrade gracefully to a sound partial Results with Incomplete and
// Truncation set. Panics in the engine are recovered and returned as
// ErrInternal.
func AskCtx(ctx context.Context, g *Graph, q Query, lang Language, opts Options) (out *Results, err error) {
	defer limits.Recover(&err)
	// Warm-materialization fast path: when a materialization of this program
	// is pinned to opts.MatEpoch, answer from it without even loading the
	// graph into an instance. On a miss, EvalCtx still gets a chance to
	// build one (and answers by chase regardless).
	if res, ok := triq.ServeMaterialized(q, lang, opts); ok {
		return resultsOf(res), nil
	}
	db, err := chase.FromFacts(owl.GraphToDB(g))
	if err != nil {
		return nil, err
	}
	res, err := triq.EvalCtx(ctx, db, q, lang, opts)
	if err != nil {
		return nil, err
	}
	return resultsOf(res), nil
}

// resultsOf decodes a triq.Result into the facade Results.
func resultsOf(res *triq.Result) *Results {
	out := &Results{
		Inconsistent: res.Answers.Inconsistent,
		Exact:        res.Exact,
		Incomplete:   res.Incomplete,
		Truncation:   res.Truncation,
	}
	for _, tup := range res.Answers.Tuples {
		row := make([]Term, len(tup))
		for i, t := range tup {
			row[i] = translate.DecodeTerm(t.Name)
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out
}

// ParseSPARQL parses a SPARQL SELECT or CONSTRUCT query.
func ParseSPARQL(src string) (*SPARQLQuery, error) { return sparql.ParseQuery(src) }

// EvalSPARQL evaluates a SELECT query directly under the algebraic
// semantics ⟦·⟧_G of Section 3.1.
func EvalSPARQL(q *SPARQLQuery, g *Graph) (*MappingSet, error) { return q.Select(g) }

// EvalSPARQLCtx is EvalSPARQL under a context; cancellation and deadlines
// surface as ErrCanceled / ErrDeadline.
func EvalSPARQLCtx(ctx context.Context, q *SPARQLQuery, g *Graph) (ms *MappingSet, err error) {
	defer limits.Recover(&err)
	return q.SelectCtx(ctx, g)
}

// Construct evaluates a CONSTRUCT query, producing an RDF graph.
func Construct(q *SPARQLQuery, g *Graph) (*Graph, error) { return q.Construct(g) }

// TranslateSPARQL compiles a SPARQL pattern into a TriQ query following
// Sections 5.1–5.3: P_dat under PlainRegime, P^U_dat under
// ActiveDomainRegime, and P^All_dat under AllRegime. The regime variants are
// TriQ-Lite 1.0 queries (Corollaries 5.4, 6.2).
func TranslateSPARQL(p Pattern, regime Regime) (*Translation, error) {
	return translate.Translate(p, regime)
}

// AskSPARQL evaluates a SELECT query over a graph under the chosen regime by
// translating it to a TriQ query and running the Datalog machinery.
func AskSPARQL(q *SPARQLQuery, g *Graph, regime Regime, opts Options) (*MappingSet, bool, error) {
	return AskSPARQLCtx(context.Background(), q, g, regime, opts)
}

// AskSPARQLCtx is AskSPARQL under a context. Budget trips degrade to a
// sound partial MappingSet with ms.Incomplete and ms.Truncation set;
// cancellation and deadlines return typed errors; panics are recovered as
// ErrInternal.
func AskSPARQLCtx(ctx context.Context, q *SPARQLQuery, g *Graph, regime Regime, opts Options) (ms *MappingSet, exact bool, err error) {
	defer limits.Recover(&err)
	tr, err := translate.TracedCtx(ctx, q.Pattern(), regime, opts.Chase.Obs)
	if err != nil {
		return nil, false, err
	}
	return tr.EvaluateCtx(ctx, g, opts)
}

// AskSPARQLExact evaluates a SELECT query under the chosen regime with the
// provably-exact ProofTree procedure instead of the bottom-up chase: the
// translated query (TriQ-Lite 1.0 by Corollaries 5.4 and 6.2) is answered by
// enumerating the answer domain and certifying every mapping with a proof
// tree. Slower than AskSPARQL, but exact even when the chase is infinite.
func AskSPARQLExact(q *SPARQLQuery, g *Graph, regime Regime, opts Options) (*MappingSet, bool, error) {
	return AskSPARQLExactCtx(context.Background(), q, g, regime, opts)
}

// AskSPARQLExactCtx is AskSPARQLExact under a context. The boolean reports
// inconsistency (⊤). A visit-budget trip degrades to the proof-certified
// partial mapping set with ms.Incomplete set; cancellation and deadlines
// return typed errors; panics are recovered as ErrInternal.
func AskSPARQLExactCtx(ctx context.Context, q *SPARQLQuery, g *Graph, regime Regime, opts Options) (ms *MappingSet, inconsistent bool, err error) {
	defer limits.Recover(&err)
	tr, err := translate.TracedCtx(ctx, q.Pattern(), regime, opts.Chase.Obs)
	if err != nil {
		return nil, false, err
	}
	ms, res, err := tr.EvaluateExactFullCtx(ctx, g, opts)
	if err != nil {
		return nil, false, err
	}
	return ms, res.Answers != nil && res.Answers.Inconsistent, nil
}

// NewProver builds a ProofTree decision procedure (Section 6.3) for a
// positive warded program over the graph's triple database.
func NewProver(g *Graph, prog *Program) (*triq.Prover, error) {
	db, err := chase.FromFacts(owl.GraphToDB(g))
	if err != nil {
		return nil, err
	}
	return triq.NewProver(db, prog, triq.ProofOptions{})
}

// OntologyProgram returns the fixed program τ_owl2ql_core of Section 5.2.
func OntologyProgram() *Program { return owl.Program() }

// PathExpr is a SPARQL 1.1 property-path expression (the navigational
// baseline of the paper's motivation).
type PathExpr = sparql.PathExpr

// ParsePath parses a property-path expression such as "partOf+/^partOf".
func ParsePath(src string) (PathExpr, error) { return sparql.ParsePath(src) }

// EvalPath evaluates a property path over a graph, returning the connected
// (subject, object) pairs.
func EvalPath(g *Graph, p PathExpr) sparql.PairSet { return sparql.EvalPath(g, p) }

// ParseOntology reads an OWL 2 QL core ontology in functional-style syntax
// (Section 5.2), e.g. "SubClassOf(animal, ∃eats)".
func ParseOntology(src string) (*Ontology, error) { return owl.ParseOntology(src) }

// TranslateConstruct compiles a CONSTRUCT query into a triple-producing TriQ
// program (rule (3) of Section 2).
func TranslateConstruct(q *SPARQLQuery, regime Regime) (*translate.ConstructTranslation, error) {
	return translate.TranslateConstruct(q, regime)
}

// AskExact evaluates a TriQ-Lite 1.0 query with the provably-exact ProofTree
// enumeration (Section 6.3) instead of the fast bottom-up chase. Slower, but
// correct even on programs with an infinite chase, and every answer carries
// a proof.
func AskExact(g *Graph, q Query, opts Options) (*Results, error) {
	return AskExactCtx(context.Background(), g, q, opts)
}

// AskExactCtx is AskExact under a context. A visit-budget trip degrades to
// the proof-certified partial answer set with Incomplete set (and Exact
// cleared); cancellation and deadlines return typed errors; panics are
// recovered as ErrInternal.
func AskExactCtx(ctx context.Context, g *Graph, q Query, opts Options) (out *Results, err error) {
	defer limits.Recover(&err)
	db, err := chase.FromFacts(owl.GraphToDB(g))
	if err != nil {
		return nil, err
	}
	res, err := triq.EvalExactCtx(ctx, db, q, opts)
	if err != nil {
		return nil, err
	}
	return resultsOf(res), nil
}

// Explain is Ask with a report: the query is evaluated under a private
// metrics registry and the run is distilled into an ExplainReport (per-rule
// chase stats, worker balance, stage times). Answers are identical to Ask's.
func Explain(g *Graph, q Query, lang Language, opts Options) (*Results, *ExplainReport, error) {
	return ExplainCtx(context.Background(), g, q, lang, opts)
}

// ExplainCtx is Explain under a context. If opts.Chase.Obs was set, the
// per-query observations are folded back into it afterwards, so long-lived
// metrics still see the run.
func ExplainCtx(ctx context.Context, g *Graph, q Query, lang Language, opts Options) (out *Results, rep *ExplainReport, err error) {
	defer limits.Recover(&err)
	db, err := chase.FromFacts(owl.GraphToDB(g))
	if err != nil {
		return nil, nil, err
	}
	res, rep, err := triq.ExplainCtx(ctx, db, q, lang, opts)
	if err != nil {
		return nil, nil, err
	}
	return resultsOf(res), rep, nil
}

// ExplainExact is AskExact with a report; the report carries the ProofTree
// prover's memo metrics alongside the chase breakdown.
func ExplainExact(g *Graph, q Query, opts Options) (*Results, *ExplainReport, error) {
	return ExplainExactCtx(context.Background(), g, q, opts)
}

// ExplainExactCtx is ExplainExact under a context.
func ExplainExactCtx(ctx context.Context, g *Graph, q Query, opts Options) (out *Results, rep *ExplainReport, err error) {
	defer limits.Recover(&err)
	db, err := chase.FromFacts(owl.GraphToDB(g))
	if err != nil {
		return nil, nil, err
	}
	res, rep, err := triq.ExplainExactCtx(ctx, db, q, opts)
	if err != nil {
		return nil, nil, err
	}
	return resultsOf(res), rep, nil
}

// ExplainSPARQL is AskSPARQL with a report. Every compiled Datalog rule in
// the report carries the SPARQL operator that emitted it (BGP, AND, UNION,
// OPT, FILTER, SELECT, τ_out, EQ, ontology), and the stage table includes the
// translation and decode phases.
func ExplainSPARQL(q *SPARQLQuery, g *Graph, regime Regime, opts Options) (*MappingSet, *ExplainReport, error) {
	return ExplainSPARQLCtx(context.Background(), q, g, regime, opts)
}

// ExplainSPARQLCtx is ExplainSPARQL under a context. The evaluation runs
// with a fresh private metrics registry; if opts.Chase.Obs was set, the
// observations are folded back into it afterwards.
func ExplainSPARQLCtx(ctx context.Context, q *SPARQLQuery, g *Graph, regime Regime, opts Options) (ms *MappingSet, rep *ExplainReport, err error) {
	defer limits.Recover(&err)
	priv, orig := obs.New(), opts.Chase.Obs
	opts.Chase.Obs = priv
	start := time.Now()
	tr, err := translate.TracedCtx(ctx, q.Pattern(), regime, priv)
	if err != nil {
		return nil, nil, err
	}
	ms, res, err := tr.EvaluateFullCtx(ctx, g, opts)
	elapsed := time.Since(start)
	if orig != nil {
		orig.Registry().MergeFrom(priv.Registry())
	}
	if err != nil {
		return nil, nil, err
	}
	rep = triq.BuildExplain(res, priv.Registry(), elapsed)
	rep.Kind = "sparql"
	rep.Regime = regime.String()
	return ms, rep, nil
}

// ExplainSPARQLExact is AskSPARQLExact with a report; like ExplainExact, the
// report carries the prover's memo metrics alongside the chase breakdown.
func ExplainSPARQLExact(q *SPARQLQuery, g *Graph, regime Regime, opts Options) (*MappingSet, *ExplainReport, error) {
	return ExplainSPARQLExactCtx(context.Background(), q, g, regime, opts)
}

// ExplainSPARQLExactCtx is ExplainSPARQLExact under a context; the same
// private-registry fold-back contract as ExplainSPARQLCtx applies.
func ExplainSPARQLExactCtx(ctx context.Context, q *SPARQLQuery, g *Graph, regime Regime, opts Options) (ms *MappingSet, rep *ExplainReport, err error) {
	defer limits.Recover(&err)
	priv, orig := obs.New(), opts.Chase.Obs
	opts.Chase.Obs = priv
	start := time.Now()
	tr, err := translate.TracedCtx(ctx, q.Pattern(), regime, priv)
	if err != nil {
		return nil, nil, err
	}
	ms, res, err := tr.EvaluateExactFullCtx(ctx, g, opts)
	elapsed := time.Since(start)
	if orig != nil {
		orig.Registry().MergeFrom(priv.Registry())
	}
	if err != nil {
		return nil, nil, err
	}
	rep = triq.BuildExplain(res, priv.Registry(), elapsed)
	rep.Kind = "sparql-exact"
	rep.Regime = regime.String()
	return ms, rep, nil
}

// Isomorphic reports RDF graph isomorphism (equality up to blank renaming).
func Isomorphic(g, h *Graph) bool { return rdf.Isomorphic(g, h) }

// RDFSRegime evaluates basic graph patterns over the ρdf closure (the fixed
// RDFS rule library: subClassOf/subPropertyOf/domain/range reasoning).
const RDFSRegime = translate.RDFS

// NRE is an nSPARQL nested regular expression (reference [32] of the paper).
type NRE = sparql.NRE

// ParseNRE parses a nested regular expression such as
// "(next::[ (next::partOf)+ / self::transportService ])+".
func ParseNRE(src string) (NRE, error) { return sparql.ParseNRE(src) }

// EvalNRE evaluates a nested regular expression over a graph.
func EvalNRE(g *Graph, e NRE) sparql.PairSet { return sparql.EvalNRE(g, e) }

// RDFSProgram returns the fixed ρdf rule library.
func RDFSProgram() *Program { return owl.RDFSProgram() }

// The durable mutation path (internal/store): an epoch-versioned
// copy-on-write fact store with a write-ahead log, periodic snapshot
// checkpoints, and crash recovery. In-flight readers keep the immutable
// epoch graph they started with while writers commit new epochs.
type (
	// Store is the epoch-versioned fact store.
	Store = store.Store
	// StoreConfig configures OpenStore (directory, fsync policy, checkpoint
	// cadence). A zero Dir opens a volatile in-memory store.
	StoreConfig = store.Config
	// StoreEpoch is one immutable (sequence number, graph) version.
	StoreEpoch = store.Epoch
	// StoreRecovery reports what boot-time WAL replay found and repaired.
	StoreRecovery = store.Recovery
	// StoreSyncPolicy is the WAL fsync policy (SyncAlways / SyncInterval /
	// SyncNone).
	StoreSyncPolicy = store.SyncPolicy
)

// WAL fsync policies for StoreConfig.Sync.
const (
	// SyncAlways fsyncs every append before acknowledging (acknowledged
	// writes survive crashes).
	SyncAlways = store.SyncAlways
	// SyncInterval fsyncs on a background cadence (bounded loss window).
	SyncInterval = store.SyncInterval
	// SyncNone leaves flushing to the OS.
	SyncNone = store.SyncNone
)

// OpenStore opens (or creates) a durable store rooted at cfg.Dir, replaying
// the snapshot and WAL into the live epoch. The Recovery report says how
// much log was replayed and whether a torn or corrupt tail was truncated.
func OpenStore(cfg StoreConfig) (*Store, *StoreRecovery, error) { return store.Open(cfg) }

// ParseSyncPolicy maps the flag spelling ("always", "interval", "none") to a
// WAL fsync policy.
func ParseSyncPolicy(name string) (store.SyncPolicy, error) { return store.ParseSyncPolicy(name) }
