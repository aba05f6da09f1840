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
// readers, and Eval — the one evaluation path; Ask, AskSPARQL and their Ctx
// variants are thin wrappers over it — keeps all working state private to the
// call: it translates (SPARQL only), asks a warm materialization first, and
// only on a miss loads a fresh instance of τ_db(G), over which the chase
// appends to a private layer that it never writes through; the prover an exact
// request builds for the goals its chase leaves open is the call's own too.
// Many goroutines may therefore evaluate Requests over one shared Graph (and
// shared parsed Query / SPARQLQuery values) without external locking; this is
// the contract the triqd server (cmd/triqd, internal/serve) relies on. The one
// stateful object is a Prover obtained from NewProver: it carries a memo table
// across calls, so its Prove methods serialize on an internal mutex —
// concurrent use is safe but not parallel; build one Prover per goroutine for
// parallel proof search.
package repro

import (
	"context"
	"errors"
	"io"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
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
	// per-rule chase stats with operator provenance, prover memo behavior,
	// and per-stage wall-time percentiles.
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

// Request is one evaluation over a graph. Exactly one input language is
// set: a Datalog Query, checked against Language, or — when SPARQL is
// non-nil — a SPARQL SELECT query, translated to a TriQ query under Regime
// (Sections 5.1–5.3). Exact and Explain choose how the answer is computed
// and what is reported about it; neither changes what the answer is.
type Request struct {
	// Query is the Datalog^{∃,¬s,⊥} query (Π, p); ignored when SPARQL is set.
	Query Query
	// Language is the dialect Query must belong to.
	Language Language
	// SPARQL is the SELECT query to evaluate instead of Query.
	SPARQL *SPARQLQuery
	// Regime is the semantics SPARQL is translated under.
	Regime Regime
	// Exact asks for an answer that is provably all of Q(G), or marked
	// Incomplete: the chase and its closing pass run as without it, and
	// where they do not prove the answer complete, ProofTree (Section 6.3)
	// decides the goals the pass leaves open, after each negated derived
	// predicate has been certified the same way and copied into the database,
	// where its negation is a lookup. The query must be TriQ-Lite 1.0, which
	// the regime translations are by Corollaries 5.4 and 6.2.
	// Materializations are not consulted.
	Exact bool
	// Explain runs the evaluation under a private metrics registry and
	// distills it into Response.Explain. If Options.Chase.Obs is set, the
	// per-query observations are folded back into it afterwards, so
	// long-lived metrics still see the run.
	Explain bool
	// Options bound and instrument the evaluation.
	Options Options
}

// Response is the outcome of evaluating a Request.
type Response struct {
	// Inconsistent is true when Q(G) = ⊤ (some constraint fired); there are
	// no rows then, and Mappings is nil.
	Inconsistent bool
	// Tuples holds the answer tuples of a Datalog request as decoded RDF
	// terms.
	Tuples [][]Term
	// Mappings holds the solution mappings of a SPARQL request.
	Mappings *MappingSet
	// Exact reports that the rows are provably all of Q(G): the chase
	// terminated within its depth bound, or its closing pass proved that no
	// deeper bound adds a constant-only fact (see internal/chase.StableGround;
	// Stats.Deepening says which), or — on a Request.Exact — ProofTree decided
	// every goal the pass left open. An exact request is Exact unless it is
	// Incomplete.
	Exact bool
	// Incomplete is true when a resource budget tripped and the rows are the
	// sound partial answer set derived before the abort. For positive
	// programs every listed row is a certain answer; only completeness is
	// lost. Cancellation and deadlines never degrade — they return errors.
	Incomplete bool
	// Truncation reports which limit tripped; non-nil exactly when
	// Incomplete.
	Truncation *Truncation
	// Depth is the null-nesting depth the answer was computed at, and Stats
	// the chase work behind it (on an exact request that certified a negated
	// derived predicate, the chase of the program that negates its copy).
	Depth int
	Stats chase.Stats
	// Explain is the report of an explained evaluation; nil unless
	// Request.Explain.
	Explain *ExplainReport
}

// Results is the name Ask and AskCtx return a Response under.
type Results = Response

// Rows renders the answers as strings, one row per answer: space-joined
// terms for a Datalog request, "var=term" bindings for a SPARQL one.
func (r *Response) Rows() []string {
	if r.Mappings != nil {
		out := make([]string, 0, r.Mappings.Len())
		for _, m := range r.Mappings.Mappings() {
			out = append(out, m.String())
		}
		return out
	}
	out := make([]string, 0, len(r.Tuples))
	var buf []byte // one row's rendering, reused
	for _, tup := range r.Tuples {
		buf = buf[:0]
		for i, t := range tup {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = t.AppendNT(buf)
		}
		out = append(out, string(buf))
	}
	return out
}

// Eval is the one evaluation path: every way of asking — Datalog or SPARQL,
// exact or not, with or without a report — runs the same steps in the same
// order, so how a request asks never changes what it is told. The steps:
// translate (SPARQL only); answer from a materialization of the program
// pinned to Options.MatEpoch when there is one; only on a miss load the graph
// as the database τ_db(G) over triple(·,·,·) and run the chase (on an exact
// request, with ProofTree on the goals it leaves open); decode the answers as
// RDF terms or solution mappings.
//
// Cancellation and deadlines return typed errors (ErrCanceled, ErrDeadline);
// budget trips (MaxFacts, MaxRounds, MaxVisits) degrade gracefully to a
// sound partial Response with Incomplete and Truncation set. Panics in the
// engine are recovered and returned as ErrInternal.
func Eval(ctx context.Context, g *Graph, req Request) (_ *Response, err error) {
	defer limits.Recover(&err)
	if req.SPARQL == nil && req.Query.Program == nil {
		return nil, errors.New("repro: Request has neither a Datalog Query nor a SPARQL query")
	}
	resp := &Response{} // handed out only on success: a recovered panic returns none
	eval := func(opts Options) (res *triq.Result, err error) {
		q, lang := req.Query, req.Language
		var tr *Translation
		if req.SPARQL != nil {
			if tr, err = translate.TracedCtx(ctx, req.SPARQL.Pattern(), req.Regime, opts.Chase.Obs); err != nil {
				return nil, err
			}
			q, lang = tr.Query, triq.Unrestricted
		}
		// A warm materialization answers without τ_db(G) being built at all,
		// so it is asked before the graph is loaded. (On a miss, EvalCtx
		// still gets a chance to build one from the loaded instance.)
		if !req.Exact {
			res, _ = triq.ServeMaterialized(q, lang, opts)
		}
		if res == nil {
			var db *chase.Instance
			if tr != nil {
				db = tr.LoadDB(ctx, g, opts) // τ_db(G) plus the seed fact of the empty pattern
			} else if db, err = chase.FromFacts(owl.GraphToDB(g)); err != nil {
				return nil, err
			}
			if req.Exact {
				res, err = triq.EvalExactCtx(ctx, db, q, opts)
			} else {
				res, err = triq.EvalCtx(ctx, db, q, lang, opts)
			}
			if err != nil {
				return nil, err
			}
		}
		if tr != nil {
			resp.Mappings, err = tr.Decode(ctx, res, opts)
			return res, err
		}
		if n := len(res.Answers.Tuples); n > 0 {
			resp.Tuples = make([][]Term, 0, n)
		}
		for _, tup := range res.Answers.Tuples {
			row := make([]Term, len(tup))
			for i, t := range tup {
				row[i] = translate.DecodeTerm(t.Name)
			}
			resp.Tuples = append(resp.Tuples, row)
		}
		return res, nil
	}

	var res *triq.Result
	if req.Explain {
		kind := "triq"
		if req.SPARQL != nil {
			kind = "sparql"
		}
		if req.Exact {
			kind += "-exact"
		}
		if res, resp.Explain, err = triq.Explained(kind, req.Options, eval); err == nil {
			switch {
			case req.SPARQL != nil:
				resp.Explain.Regime = req.Regime.String()
			case req.Exact: // the exact path validates against TriQ-Lite 1.0
				resp.Explain.Language = TriQLite10.String()
			default:
				resp.Explain.Language = req.Language.String()
			}
		}
	} else {
		res, err = eval(req.Options)
	}
	if err != nil {
		return nil, err
	}
	resp.Inconsistent = res.Answers.Inconsistent
	resp.Exact, resp.Incomplete, resp.Truncation = res.Exact, res.Incomplete, res.Truncation
	resp.Depth, resp.Stats = res.Depth, res.Stats
	return resp, nil
}

// Ask evaluates a TriQ query over an RDF graph with the chase: Eval with a
// background context.
func Ask(g *Graph, q Query, lang Language, opts Options) (*Results, error) {
	return AskCtx(context.Background(), g, q, lang, opts)
}

// AskCtx is Ask under a context; see Eval for the limit semantics.
func AskCtx(ctx context.Context, g *Graph, q Query, lang Language, opts Options) (*Results, error) {
	return Eval(ctx, g, Request{Query: q, Language: lang, Options: opts})
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
// translating it to a TriQ query and running the Datalog machinery: Eval
// with a background context. The boolean reports inconsistency (⊤), which
// can arise only under the entailment regimes; the mapping set is nil then.
func AskSPARQL(q *SPARQLQuery, g *Graph, regime Regime, opts Options) (*MappingSet, bool, error) {
	return AskSPARQLCtx(context.Background(), q, g, regime, opts)
}

// AskSPARQLCtx is AskSPARQL under a context. The boolean is the
// inconsistency flag, not exactness (read Response.Exact off Eval for that).
// Budget trips degrade to a sound partial MappingSet with ms.Incomplete and
// ms.Truncation set; see Eval for the rest of the limit semantics.
func AskSPARQLCtx(ctx context.Context, q *SPARQLQuery, g *Graph, regime Regime, opts Options) (ms *MappingSet, inconsistent bool, err error) {
	resp, err := Eval(ctx, g, Request{SPARQL: q, Regime: regime, Options: opts})
	if err != nil {
		return nil, false, err
	}
	return resp.Mappings, resp.Inconsistent, nil
}

// NewProver builds a ProofTree decision procedure (Section 6.3) for a warded
// program over the graph's triple database. The program may negate, with
// grounded negation, predicates that no rule derives, such as triple.
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
