// Package translate implements the SPARQL → Datalog translations of
// Sections 5.1–5.3 of the paper: the plain translation P_dat = (τ_bgp(P) ∪
// τ_opr(P) ∪ τ_out(P), answer_P) of Theorem 5.2, and its entailment-regime
// variants P^U_dat (OWL 2 QL core direct semantics with the active-domain
// restriction, Theorem 5.3) and P^All_dat (without the restriction,
// Definition 5.5). Both regime variants are TriQ-Lite 1.0 queries
// (Corollaries 5.4 and 6.2), which the test-suite checks syntactically.
//
// For every sub-pattern P' the translator computes the set D(P') of
// *possible domains* — the sets of variables that can be simultaneously
// bound in a mapping of ⟦P'⟧ — and emits one predicate q_{P',d} per (P',d).
// The final answer predicate answer_P pads unbound positions with the
// reserved constant ⋆, exactly as in Section 5.1, and mapping sets are
// decoded back per ⟦(P_dat, τ_db(G))⟧.
package translate

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triq"
)

// Regime selects the semantics of basic graph patterns.
type Regime int

const (
	// Plain is the standard SPARQL semantics ⟦·⟧_G over the raw graph
	// (Section 5.1).
	Plain Regime = iota
	// ActiveDomain is the OWL 2 QL core direct semantics entailment regime
	// ⟦·⟧^U_G: variables and blank nodes range over the URIs of G
	// (Section 5.2).
	ActiveDomain
	// All is ⟦·⟧^All_G: blank nodes are true existentials, not restricted
	// to the active domain (Section 5.3).
	All
	// RDFS evaluates basic graph patterns over the ρdf closure of the graph
	// (the fixed RDFS rule library; subPropertyOf/subClassOf/domain/range).
	// The library is plain Datalog, so blank nodes never see nulls and the
	// active-domain question does not arise.
	RDFS
)

func (r Regime) String() string {
	switch r {
	case Plain:
		return "plain"
	case ActiveDomain:
		return "U (active domain)"
	case All:
		return "All"
	case RDFS:
		return "RDFS (ρdf)"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// Program returns the regime's fixed rule library — τ_owl2ql_core for the two
// OWL 2 QL core regimes, the ρdf rules for RDFS — freshly parsed, or nil for
// the plain semantics. A translated query carries it; a hand-written program
// asking for the regime gets it prepended.
func (r Regime) Program() *datalog.Program {
	switch r {
	case ActiveDomain, All:
		return owl.Program()
	case RDFS:
		return owl.RDFSProgram()
	}
	return nil
}

// Translation is the compiled query P_dat (resp. P^U_dat, P^All_dat).
type Translation struct {
	// Query is the Datalog^{∃,¬s,⊥} query (Π, answer_P).
	Query datalog.Query
	// Vars lists var(P) sorted; position i of the answer predicate holds
	// the value of Vars[i], or ⋆ when unbound.
	Vars []string
	// Regime records which semantics was compiled.
	Regime Regime
}

// seedFact makes the empty basic graph pattern (whose value is {µ∅}) work on
// databases of any size: τ_db always contains this 0-ary fact.
const seedFact = "q⊤"

// AnswerPred is the output predicate name of every translation.
const AnswerPred = "answer"

// Translate compiles a SPARQL graph pattern.
func Translate(p sparql.Pattern, regime Regime) (*Translation, error) {
	return Traced(p, regime, nil)
}

// Traced is Translate with the observability layer attached: each compiled
// sub-pattern emits a translate.op span (operator kind, rules added) nested
// under one translate.compile span. A nil Obs behaves exactly like Translate.
func Traced(p sparql.Pattern, regime Regime, o *obs.Obs) (*Translation, error) {
	return TracedCtx(context.Background(), p, regime, o)
}

// TracedCtx is Traced under a context: when the context carries a recording
// trace (obs.ContextWithTrace), the translate.compile span and its
// translate.op children join the request's span tree.
func TracedCtx(ctx context.Context, p sparql.Pattern, regime Regime, o *obs.Obs) (*Translation, error) {
	if err := sparql.Validate(p); err != nil {
		return nil, err
	}
	_, root := obs.StartSpan(ctx, o, "translate.compile", obs.F("regime", regime.String()))
	c := &compiler{regime: regime, prog: &datalog.Program{}, obs: o, span: root}
	node, err := c.compile(p)
	if err != nil {
		root.End(obs.F("error", true))
		return nil, err
	}
	defer func() {
		root.End(obs.F("rules", len(c.prog.Rules)), obs.F("constraints", len(c.prog.Constraints)))
	}()
	// τ_out: answer_P(v1 … vn) with ⋆ at unbound positions.
	vars := sortedVars(p.Vars())
	for _, d := range node.domains {
		head := datalog.Atom{Pred: AnswerPred}
		for _, v := range vars {
			if d.has(v) {
				head.Args = append(head.Args, datalog.V(v))
			} else {
				head.Args = append(head.Args, datalog.C(datalog.StarConstant))
			}
		}
		c.prog.Add(datalog.Rule{
			BodyPos:    []datalog.Atom{node.atom(d)},
			Head:       []datalog.Atom{head},
			Provenance: "τ_out",
		})
	}
	if c.needEq {
		eqStart := len(c.prog.Rules)
		c.emitEqRules()
		c.claimRules(eqStart, "EQ")
	}
	ontStart := len(c.prog.Rules)
	if fixed := regime.Program(); fixed != nil {
		c.prog.Merge(fixed)
	}
	c.claimRules(ontStart, "ontology")
	q := datalog.NewQuery(c.prog, AnswerPred)
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("translate: internal: %w", err)
	}
	return &Translation{Query: q, Vars: vars, Regime: regime}, nil
}

// MustTranslate is Translate, panicking on error.
func MustTranslate(p sparql.Pattern, regime Regime) *Translation {
	tr, err := Translate(p, regime)
	if err != nil {
		panic(err)
	}
	return tr
}

// DB builds τ_db(G) (plus the constant seed fact) as a chase instance.
func DB(g *rdf.Graph) *chase.Instance {
	inst, err := chase.FromFacts(owl.GraphToDB(g))
	if err != nil {
		panic(err) // GraphToDB emits constants only
	}
	inst.Add(datalog.Atom{Pred: seedFact})
	return inst
}

// Evaluate runs the translated query over the graph and decodes the answer
// tuples into a mapping set: ⟦(P_dat, τ_db(G))⟧. The boolean reports
// inconsistency (⊤), which can arise only under the entailment regimes.
func (tr *Translation) Evaluate(g *rdf.Graph, opts triq.Options) (*sparql.MappingSet, bool, error) {
	ms, res, err := tr.EvaluateCtx(context.Background(), g, opts)
	if err != nil {
		return nil, false, err
	}
	return ms, res.Answers.Inconsistent, nil
}

// EvaluateCtx is Evaluate under a context, additionally returning the
// underlying evaluation Result (chase stats with per-rule breakdown, depth,
// exactness). On a budget trip the mapping set is the sound partial set with
// MappingSet.Incomplete and the Truncation attached (err nil); cancellation
// and deadlines return typed limits errors. It is the translation-level
// pipeline — load, chase, decode — that this package's tests and the
// experiments drive; requests go through the facade's Eval, which adds the
// warm-materialization shortcut and the ProofTree evaluator around the same
// LoadDB and Decode.
func (tr *Translation) EvaluateCtx(ctx context.Context, g *rdf.Graph, opts triq.Options) (*sparql.MappingSet, *triq.Result, error) {
	res, err := triq.EvalCtx(ctx, tr.LoadDB(ctx, g, opts), tr.Query, triq.Unrestricted, opts)
	if err != nil {
		return nil, nil, err
	}
	ms, err := tr.Decode(ctx, res, opts)
	return ms, res, err
}

// LoadDB builds τ_db(G) under a translate.load_db span.
func (tr *Translation) LoadDB(ctx context.Context, g *rdf.Graph, opts triq.Options) *chase.Instance {
	_, sp := obs.StartSpan(ctx, opts.Chase.Obs, "translate.load_db", obs.F("triples", g.Len()))
	db := DB(g)
	sp.End(obs.F("facts", db.Len()))
	return db
}

// Decode maps the evaluation result back to ⟦(P_dat, τ_db(G))⟧; ⊤ decodes to
// a nil set. The decode phase emits a translate.decode span and carries the
// "translate.decode" fault point.
func (tr *Translation) Decode(ctx context.Context, res *triq.Result, opts triq.Options) (*sparql.MappingSet, error) {
	if res.Answers.Inconsistent {
		return nil, nil
	}
	if err := limits.Hit(opts.Chase.Faults, "translate.decode"); err != nil {
		return nil, err
	}
	_, dec := obs.StartSpan(ctx, opts.Chase.Obs, "translate.decode", obs.F("tuples", len(res.Answers.Tuples)))
	defer dec.End()
	out := sparql.NewMappingSet()
	out.Incomplete = res.Incomplete
	out.Truncation = res.Truncation
	for _, tup := range res.Answers.Tuples {
		m := make(sparql.Mapping)
		for i, t := range tup {
			if i >= len(tr.Vars) {
				break
			}
			if t.Name == datalog.StarConstant {
				continue
			}
			m[tr.Vars[i]] = DecodeTerm(t.Name)
		}
		out.Add(m)
	}
	return out, nil
}

// compiler carries the translation state.
type compiler struct {
	regime  Regime
	prog    *datalog.Program
	nextID  int
	nextVar int
	needEq  bool
	obs     *obs.Obs
	span    *obs.Span // current parent span for translate.op children
}

// domain is a sorted set of variable names.
type domain []string

func (d domain) key() string { return strings.Join(d, ",") }

func (d domain) has(v string) bool {
	for _, x := range d {
		if x == v {
			return true
		}
	}
	return false
}

func domainOf(vars map[string]bool) domain {
	return domain(sortedVars(vars))
}

func unionDomains(a, b domain) domain {
	seen := make(map[string]bool, len(a)+len(b))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		seen[v] = true
	}
	return domainOf(seen)
}

func intersectWith(a domain, keep map[string]bool) domain {
	seen := make(map[string]bool)
	for _, v := range a {
		if keep[v] {
			seen[v] = true
		}
	}
	return domainOf(seen)
}

// node is the compilation result of one sub-pattern: its predicate family.
type node struct {
	id      int
	domains []domain
	preds   map[string]string // domain key → predicate name
}

func (n *node) atom(d domain) datalog.Atom {
	a := datalog.Atom{Pred: n.preds[d.key()]}
	for _, v := range d {
		a.Args = append(a.Args, datalog.V(v))
	}
	return a
}

func (c *compiler) newNode(domains []domain) *node {
	c.nextID++
	n := &node{id: c.nextID, preds: make(map[string]string)}
	seen := make(map[string]bool)
	for _, d := range domains {
		k := d.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		n.domains = append(n.domains, d)
		n.preds[k] = fmt.Sprintf("q%d|%s", n.id, k)
	}
	return n
}

func (c *compiler) freshVar() datalog.Term {
	c.nextVar++
	return datalog.V(fmt.Sprintf("?_b%d", c.nextVar))
}

func (c *compiler) compile(p sparql.Pattern) (*node, error) {
	kind := sparql.PatternKind(p)
	before := len(c.prog.Rules)
	parent := c.span
	var sp *obs.Span
	if parent != nil {
		sp = parent.Span("translate.op", obs.F("kind", kind))
		c.span = sp
	}
	n, err := c.compileInner(p)
	if parent != nil {
		c.span = parent
		sp.End(obs.F("rules", len(c.prog.Rules)-before), obs.F("error", err != nil))
	}
	// Provenance: rules added by this operator that no nested compile call
	// already claimed belong to this operator (the recursion tags innermost
	// first), giving EXPLAIN its SPARQL-operator → Datalog-rule attribution.
	c.claimRules(before, kind)
	return n, err
}

// claimRules stamps the given provenance on every rule from index start on
// that has none yet.
func (c *compiler) claimRules(start int, provenance string) {
	for i := start; i < len(c.prog.Rules); i++ {
		if c.prog.Rules[i].Provenance == "" {
			c.prog.Rules[i].Provenance = provenance
		}
	}
}

func (c *compiler) compileInner(p sparql.Pattern) (*node, error) {
	switch q := p.(type) {
	case sparql.BGP:
		return c.compileBGP(q)
	case sparql.And:
		return c.compileAnd(q)
	case sparql.Union:
		return c.compileUnion(q)
	case sparql.Opt:
		return c.compileOpt(q)
	case sparql.Filter:
		return c.compileFilter(q)
	case sparql.Select:
		return c.compileSelect(q)
	default:
		return nil, fmt.Errorf("translate: unknown pattern type %T", p)
	}
}

// compileBGP emits τ_bgp (Plain), τ^U_bgp, or τ^All_bgp for one basic graph
// pattern: one rule whose body holds the triple atoms — over triple(·,·,·)
// for Plain and over triple1(·,·,·) with C(·) active-domain atoms under the
// regimes (every variable under U; only the pattern variables, not the
// blank-node variables, under All).
func (c *compiler) compileBGP(p sparql.BGP) (*node, error) {
	d := domainOf(p.Vars())
	n := c.newNode([]domain{d})
	head := n.atom(d)
	if len(p.Triples) == 0 {
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{{Pred: seedFact}},
			Head:    []datalog.Atom{head},
		})
		return n, nil
	}
	triplePred := "triple"
	if c.regime != Plain {
		triplePred = "triple1"
	}
	blankVars := make(map[string]datalog.Term)
	var body []datalog.Atom
	var varTerms []datalog.Term   // pattern variables, for C(·) anchors
	var blankTerms []datalog.Term // blank-node variables, for C(·) under U
	seenVar := map[string]bool{}
	conv := func(t sparql.PTerm) datalog.Term {
		if t.IsVar {
			if !seenVar[t.Var] {
				seenVar[t.Var] = true
				varTerms = append(varTerms, datalog.V(t.Var))
			}
			return datalog.V(t.Var)
		}
		if t.Term.IsBlank() {
			v, ok := blankVars[t.Term.Value]
			if !ok {
				v = c.freshVar()
				blankVars[t.Term.Value] = v
				blankTerms = append(blankTerms, v)
			}
			return v
		}
		return owl.TermConst(t.Term)
	}
	for _, tp := range p.Triples {
		body = append(body, datalog.NewAtom(triplePred, conv(tp.S), conv(tp.P), conv(tp.O)))
	}
	if c.regime != Plain {
		for _, v := range varTerms {
			body = append(body, datalog.NewAtom("C", v))
		}
		if c.regime == ActiveDomain || c.regime == RDFS {
			for _, v := range blankTerms {
				body = append(body, datalog.NewAtom("C", v))
			}
		}
	}
	c.prog.Add(datalog.Rule{BodyPos: body, Head: []datalog.Atom{head}})
	return n, nil
}

func (c *compiler) compileAnd(p sparql.And) (*node, error) {
	l, err := c.compile(p.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(p.R)
	if err != nil {
		return nil, err
	}
	var domains []domain
	for _, d1 := range l.domains {
		for _, d2 := range r.domains {
			domains = append(domains, unionDomains(d1, d2))
		}
	}
	n := c.newNode(domains)
	for _, d1 := range l.domains {
		for _, d2 := range r.domains {
			d := unionDomains(d1, d2)
			c.prog.Add(datalog.Rule{
				BodyPos: []datalog.Atom{l.atom(d1), r.atom(d2)},
				Head:    []datalog.Atom{n.atom(d)},
			})
		}
	}
	return n, nil
}

func (c *compiler) compileUnion(p sparql.Union) (*node, error) {
	l, err := c.compile(p.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(p.R)
	if err != nil {
		return nil, err
	}
	n := c.newNode(append(append([]domain{}, l.domains...), r.domains...))
	for _, d := range l.domains {
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{l.atom(d)},
			Head:    []datalog.Atom{n.atom(d)},
		})
	}
	for _, d := range r.domains {
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{r.atom(d)},
			Head:    []datalog.Atom{n.atom(d)},
		})
	}
	return n, nil
}

// compileOpt realizes Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2) following the
// compatible/¬compatible recipe of Example 5.1: the join rules are those of
// AND; the difference keeps µ1 ∈ Ω1 with no compatible µ2 ∈ Ω2, tracked by a
// per-domain hasmate predicate and stratified grounded negation.
func (c *compiler) compileOpt(p sparql.Opt) (*node, error) {
	l, err := c.compile(p.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(p.R)
	if err != nil {
		return nil, err
	}
	var domains []domain
	for _, d1 := range l.domains {
		for _, d2 := range r.domains {
			domains = append(domains, unionDomains(d1, d2))
		}
	}
	domains = append(domains, l.domains...)
	n := c.newNode(domains)
	for _, d1 := range l.domains {
		// Join part.
		for _, d2 := range r.domains {
			d := unionDomains(d1, d2)
			c.prog.Add(datalog.Rule{
				BodyPos: []datalog.Atom{l.atom(d1), r.atom(d2)},
				Head:    []datalog.Atom{n.atom(d)},
			})
		}
		// Difference part: hasmate_{d1}(d1) ← q_{P1,d1} ⋈ q_{P2,d2}.
		hasmate := fmt.Sprintf("hasmate%d|%s", n.id, d1.key())
		hm := datalog.Atom{Pred: hasmate}
		for _, v := range d1 {
			hm.Args = append(hm.Args, datalog.V(v))
		}
		for _, d2 := range r.domains {
			c.prog.Add(datalog.Rule{
				BodyPos: []datalog.Atom{l.atom(d1), r.atom(d2)},
				Head:    []datalog.Atom{hm},
			})
		}
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{l.atom(d1)},
			BodyNeg: []datalog.Atom{hm},
			Head:    []datalog.Atom{n.atom(d1)},
		})
	}
	return n, nil
}

func (c *compiler) compileSelect(p sparql.Select) (*node, error) {
	inner, err := c.compile(p.P)
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, len(p.Proj))
	for _, v := range p.Proj {
		keep[v] = true
	}
	var domains []domain
	for _, d := range inner.domains {
		domains = append(domains, intersectWith(d, keep))
	}
	n := c.newNode(domains)
	for _, d := range inner.domains {
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{inner.atom(d)},
			Head:    []datalog.Atom{n.atom(intersectWith(d, keep))},
		})
	}
	return n, nil
}

func sortedVars(vars map[string]bool) []string {
	out := make([]string, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// DecodeTerm inverts owl.TermConst, the encoding of RDF terms as constants
// that τ_db(G) and the translated rules share.
func DecodeTerm(name string) rdf.Term {
	if strings.HasPrefix(name, "_:") {
		return rdf.NewBlank(strings.TrimPrefix(name, "_:"))
	}
	if strings.HasPrefix(name, `"`) {
		g, err := rdf.ParseNTriplesString("s p " + name + " .")
		if err == nil {
			for _, tr := range g.Triples() {
				return tr.O
			}
		}
	}
	return rdf.NewIRI(name)
}
