package datalog

import (
	"slices"
	"strconv"
)

// Library is a fixed rule library — the program of an entailment regime,
// τ_owl2ql_core or ρdf, that every query under the regime is joined with —
// checked and analysed once: its validation verdict, its strata, its affected
// positions and its verdict under each dialect. Compose joins a query's rules
// with it, and on the program Compose returns the checks of this package
// (Program.Validate, Query.Validate, CheckDialect, CheckGroundedNegation,
// HasExistentials) look at the query's rules alone; the chase compiles only
// those, beside the library's rules compiled once (chase.Compile).
//
// That is sound as long as no query rule defines a predicate of the library:
// the library's strata and affected positions are then a function of the
// library alone, since both flow from rule bodies to rule heads only (see
// DESIGN.md "Compile the fixed program once"). A program whose query part
// does define one, or fails a check, takes the from-scratch path, which also
// words any error exactly as it would for the same program built by hand.
//
// A Library is made once per process per fixed program (owl.Library,
// owl.RDFSLibrary) and is read-only after NewLibrary.
type Library struct {
	prog *Program
	// ok says the library is valid, stratified and uses each predicate at one
	// arity. A program joined with a library that is not is checked and
	// evaluated from scratch.
	ok bool
	// schema is sch(Π⊥): the library's predicates with their arities, the
	// inconsistency marker included when it has constraints.
	schema map[string]int
	an     *Analysis // affected(Π) of ex(Π)+
	// dialect holds the library's verdict under each dialect, grounded its
	// CheckGroundedNegation verdict.
	dialect      [WardedMinimalInteraction + 1]error
	grounded     error
	existentials bool
	negation     bool
	multiHead    bool
	// work[0] holds the rules the chase evaluates for the library alone, its
	// rules and then its constraints as rules (ConstraintsAsRules), work[1]
	// the same single-headed (SingleHead); level[k] is the stratification of
	// work[k]. Rule i of work[0] is work[1][at[i]:at[i+1]], and aux[i] names
	// the fresh predicate SingleHead gave it ("" for a single-head rule).
	work  [2][]Rule
	level [2]map[string]int
	at    []int
	aux   []string
	// placed[k] places work[k] by level[k] for every composed plan
	// (Composed.Level): placed[k][l] holds the pieces of the library's rules at
	// level l, in order, and cons[k] its constraints as rules, which sit at the
	// inconsistency marker's level in the composed program.
	placed [2][][]ComposedRule
	cons   [2][]ComposedRule
	// part marks the rules of the database part by their index in prog.Rules,
	// partRules lists them in that order and partReads holds the predicates
	// their bodies read (DatabasePart).
	part      []bool
	partRules []Rule
	partReads map[string]bool
}

// NewLibrary checks and analyses a fixed program. The program must not change
// afterwards.
func NewLibrary(p *Program) *Library {
	l := &Library{prog: p}
	work := ConstraintsAsRules(p)
	sch, err := work.Schema()
	if err != nil || p.Validate() != nil {
		return l
	}
	fresh := newFreshPredicates(work)
	for _, r := range work.Rules {
		l.at = append(l.at, len(l.work[1]))
		l.work[1] = appendSingleHead(l.work[1], r, fresh.next)
		aux := ""
		if len(r.Head) > 1 {
			aux = l.work[1][len(l.work[1])-len(r.Head)-1].Head[0].Pred
			l.multiHead = true
		}
		l.aux = append(l.aux, aux)
	}
	l.at = append(l.at, len(l.work[1]))
	l.work[0] = work.Rules
	for k := range l.work {
		strat, err := Stratify(&Program{Rules: l.work[k]})
		if err != nil {
			return l
		}
		l.level[k] = strat.Level
	}
	l.schema = sch
	l.an = Analyze(p.Positive())
	for d := range l.dialect {
		l.dialect[d] = CheckDialect(p, Dialect(d))
	}
	l.grounded = CheckGroundedNegation(p)
	l.existentials, l.negation = p.HasExistentials(), p.HasNegation()
	l.databasePart()
	l.place()
	l.ok = true
	return l
}

// place places the library's evaluation rules by level, in both head forms.
func (l *Library) place() {
	nr := len(l.prog.Rules)
	for k := range l.work {
		top := 0
		for _, lv := range l.level[k] {
			top = max(top, lv)
		}
		l.placed[k] = make([][]ComposedRule, top+1)
		for i := range l.aux {
			lo, hi := i, i+1
			if k == 1 {
				lo, hi = l.at[i], l.at[i+1]
			}
			for j := lo; j < hi; j++ {
				r := ComposedRule{Rule: l.work[k][j], Lib: j, Part: i < nr && l.part[i]}
				if i >= nr {
					l.cons[k] = append(l.cons[k], r)
					continue
				}
				lv := l.level[k][r.Rule.Head[0].Pred]
				l.placed[k][lv] = append(l.placed[k][lv], r)
			}
		}
	}
}

// databasePart computes the library's database part: the largest set S of its
// rules without an existential variable or a negated atom whose body
// predicates are each derived by no library rule, or by rules of S alone. S is
// what remains of those rules once every rule reading a predicate that a rule
// outside S derives has been taken out, until none is.
func (l *Library) databasePart() {
	p := l.prog
	l.part = make([]bool, len(p.Rules))
	for i, r := range p.Rules {
		l.part[i] = len(r.BodyNeg) == 0 && !r.HasExistential()
	}
	for changed := true; changed; {
		changed = false
		outside := map[string]bool{InconsistencyMarker: true}
		for i, r := range p.Rules {
			for _, h := range r.Head {
				outside[h.Pred] = outside[h.Pred] || !l.part[i]
			}
		}
		for i, r := range p.Rules {
			if l.part[i] && slices.ContainsFunc(r.BodyPos, func(a Atom) bool { return outside[a.Pred] }) {
				l.part[i], changed = false, true
			}
		}
	}
	l.partReads = make(map[string]bool)
	for i, r := range p.Rules {
		if l.part[i] {
			l.partRules = append(l.partRules, r)
			for _, a := range r.BodyPos {
				l.partReads[a.Pred] = true
			}
		}
	}
}

// DatabasePart returns the rules of the library's database part, in the
// library's order: the largest set S of its rules without an existential
// variable or a negated atom whose body predicates are each derived by no
// library rule, or by rules of S alone. No query Compose joins with the library
// on the composed path defines a library predicate, so no query rule feeds S
// either, and the fixpoint of S over a database of the predicates it reads is
// a function of that database alone: it is the same for every query under the
// library (DESIGN.md, "The library's database part, once per graph"). For
// τ_owl2ql_core it is the active domain, the ontology extraction, the copy
// into triple1 and the reasoning about properties, classes and disjointness;
// for ρdf every rule. The slice is shared and must not be modified; it is nil
// for a library that is not valid, stratified and of one arity per predicate.
func (l *Library) DatabasePart() []Rule {
	if !l.ok {
		return nil
	}
	return l.partRules
}

// ReadByDatabasePart reports whether a rule of the database part reads the
// predicate in its body.
func (l *Library) ReadByDatabasePart(pred string) bool { return l.partReads[pred] }

// Program returns the library's program, which is shared and read-only.
func (l *Library) Program() *Program { return l.prog }

// Work returns the rules the chase evaluates for the library alone: its rules
// and then its constraints as rules, each multi-head rule rewritten by
// SingleHead when singleHead is set. ComposedRule.Lib indexes them.
func (l *Library) Work(singleHead bool) []Rule {
	if singleHead {
		return l.work[1]
	}
	return l.work[0]
}

// Compose joins a query's rules and constraints with a library's into a
// program of its own: the library's first when libraryFirst is set, after the
// query's otherwise, and each library rule without a provenance labelled
// provenance. The order matters, because the rule indexes the chase names
// nulls by follow it: a translated query puts its library last, a hand-written
// program asking for a regime puts it first.
//
// The result records the join, so the checks of this package and the chase
// treat its library part as checked and compiled already. It must not be
// modified afterwards: a change to its rule or constraint counts, or to one of
// its library rules, makes it an ordinary program again, and a query rule
// edited in place goes unnoticed.
func Compose(q *Program, lib *Library, libraryFirst bool, provenance string) *Program {
	lp := lib.prog
	first, second := q, lp
	if libraryFirst {
		first, second = lp, q
	}
	out := &Program{
		Rules:       append(append(make([]Rule, 0, len(q.Rules)+len(lp.Rules)), first.Rules...), second.Rules...),
		Constraints: append(append([]Constraint(nil), first.Constraints...), second.Constraints...),
	}
	c := &composition{lib: lib, first: libraryFirst, label: provenance, rules: len(out.Rules), constraints: len(out.Constraints)}
	if provenance != "" {
		for i := range lp.Rules {
			if r := &out.Rules[c.libRule(i)]; r.Provenance == "" {
				r.Provenance = provenance
			}
		}
	}
	out.comp = c
	c.ok = lib.ok && c.analyse(out)
	return out
}

// composition is what Compose found a program to be.
type composition struct {
	lib   *Library
	first bool   // the library's rules and constraints come first
	label string // the provenance the library's rules take when they carry none
	// rules and constraints are the program's counts when it was composed.
	rules, constraints int
	// ok says the query's part passed what the composed checks rely on; nothing
	// below is set otherwise, and the program takes the from-scratch path.
	ok bool
	// query is the query's part of the program, positive its rules without
	// their negated atoms (ex(Π)+), qschema its schema.
	query    *Program
	positive []Rule
	qschema  map[string]int
	// an extends the library's analysis with the query's rules.
	an           *Analysis
	existentials bool
	negation     bool
	grounded     bool // CheckGroundedNegation holds
	strata       *Composed
}

// composition returns the program's composition when the program is still the
// one Compose returned and its query part passed Compose's checks; nil
// otherwise.
func (p *Program) composition() *composition {
	c := p.comp
	if c == nil || !c.ok || len(p.Rules) != c.rules || len(p.Constraints) != c.constraints {
		return nil
	}
	// A rule copied from the library shares its atom slices with the library.
	for i, r := range c.lib.prog.Rules {
		if &p.Rules[c.libRule(i)].Head[0] != &r.Head[0] {
			return nil
		}
	}
	for i, k := range c.lib.prog.Constraints {
		if &p.Constraints[c.libConstraint(i)].Body[0] != &k.Body[0] {
			return nil
		}
	}
	return c
}

// libRule and libConstraint map the library's rule or constraint i to its
// index in the composed program.
func (c *composition) libRule(i int) int {
	if c.first {
		return i
	}
	return c.rules - len(c.lib.prog.Rules) + i
}

func (c *composition) libConstraint(i int) int {
	if c.first {
		return i
	}
	return c.constraints - len(c.lib.prog.Constraints) + i
}

// analyse checks the query's part of the composed program p and computes what
// the composed checks answer with, reporting whether the composed path applies:
// the query's rules and constraints are valid, use every predicate at the one
// arity the library does, define no predicate of the library, and the whole is
// stratified.
func (c *composition) analyse(p *Program) bool {
	lib := c.lib
	nr, nc := len(lib.prog.Rules), len(lib.prog.Constraints)
	c.query = &Program{Rules: p.Rules[:len(p.Rules)-nr], Constraints: p.Constraints[:len(p.Constraints)-nc]}
	if c.first {
		c.query = &Program{Rules: p.Rules[nr:], Constraints: p.Constraints[nc:]}
	}
	q := c.query
	sch, err := q.Schema()
	if err != nil || q.Validate() != nil {
		return false
	}
	for pred, arity := range sch {
		if l, ok := lib.schema[pred]; pred == InconsistencyMarker || ok && l != arity {
			return false
		}
	}
	c.qschema = sch
	multiHead := lib.multiHead
	for _, r := range q.Rules {
		for _, h := range r.Head {
			if _, ok := lib.schema[h.Pred]; ok {
				return false // the query defines a predicate of the library
			}
		}
		multiHead = multiHead || len(r.Head) > 1
	}
	c.existentials = lib.existentials || q.HasExistentials()
	c.negation = lib.negation || q.HasNegation()
	if !c.stratify(c.negation && multiHead) {
		return false
	}
	c.positive = q.Positive().Rules
	c.an = &Analysis{affected: make(map[Position]bool), base: lib.an}
	c.an.extend(c.positive)
	c.grounded = lib.grounded == nil
	for _, r := range q.Rules {
		c.grounded = c.grounded && (len(r.BodyNeg) == 0 || groundedRule(c.an, r) == nil)
	}
	return true
}

// holds reports whether the composed program is known to belong to the
// dialect: the library does, and so does every query rule under the composed
// analysis. A false answer sends CheckDialect the from-scratch way.
func (c *composition) holds(d Dialect) bool {
	rule, _, grounded, ok := dialectRule(d)
	if !ok || c.lib.dialect[d] != nil || grounded && !c.grounded {
		return false
	}
	for _, r := range c.positive {
		if rule != nil && rule(c.an, r) != nil {
			return false
		}
	}
	return true
}

// outputUnread reports whether the output predicate occurs in no rule body
// and no constraint of the composed program; false sends Query.Validate the
// from-scratch way.
func (c *composition) outputUnread(output string) bool {
	if _, ok := c.lib.schema[output]; ok {
		return false
	}
	if _, ok := c.qschema[output]; !ok {
		return true
	}
	for _, r := range c.query.Rules {
		for _, atoms := range [2][]Atom{r.BodyPos, r.BodyNeg} {
			for _, a := range atoms {
				if a.Pred == output {
					return false
				}
			}
		}
	}
	for _, k := range c.query.Constraints {
		for _, a := range k.Body {
			if a.Pred == output {
				return false
			}
		}
	}
	return true
}

// Composed is the evaluation plan of a composed program: the rules the chase
// evaluates — the program's rules, then its constraints as rules, each
// multi-head rule rewritten by SingleHead when the program has negation — in
// the strata Stratify and Strata put them in, each library rule tagged with
// its index among the library's own evaluation rules. It is what
// ConstraintsAsRules, SingleHead, Stratify and Strata make of the program:
// the library's rules were placed by level once, by NewLibrary, and the plan
// holds the query's, placed when the program was composed.
type Composed struct {
	Library *Library
	// SingleHead says which of the library's rule lists Lib indexes
	// (Library.Work).
	SingleHead bool
	// Rules counts the plan's rules, the library's included.
	Rules int
	first bool   // the library's rules come first at each level
	label string // the provenance Compose gave the library's rules
	// query holds the query's rules level by level, level l's ending at
	// ends[l], and then its constraints as rules, which sit at level marker.
	query  []ComposedRule
	ends   []int
	marker int
}

// ComposedRule is one rule of a composed program's evaluation plan.
type ComposedRule struct {
	Rule Rule
	// Lib is the rule's index in Library.Work(SingleHead), or −1 for a rule
	// of the query.
	Lib int
	// Part says the rule is, or is a single-head piece of, a rule of the
	// library's database part (Library.DatabasePart).
	Part bool
}

// Levels returns the number of levels of the plan, empty ones included.
func (p *Composed) Levels() int { return len(p.ends) }

// Level returns the rules at level l in evaluation order, as four runs, some
// of them empty: the library's rules there and the query's, then, at the
// inconsistency marker's level, the query's constraints as rules and the
// library's, each pair in the order Compose joined the two parts in. The
// library's runs are shared by every plan and must not be modified.
func (p *Composed) Level(l int) [4][]ComposedRule {
	lib, k := p.Library, p.k()
	var libRules, libCons, queryCons []ComposedRule
	if l < len(lib.placed[k]) {
		libRules = lib.placed[k][l]
	}
	lo := 0
	if l > 0 {
		lo = p.ends[l-1]
	}
	query := p.query[lo:p.ends[l]]
	if l == p.marker {
		libCons, queryCons = lib.cons[k], p.query[p.ends[len(p.ends)-1]:]
	}
	if p.first {
		return [4][]ComposedRule{libRules, query, libCons, queryCons}
	}
	return [4][]ComposedRule{query, libRules, queryCons, libCons}
}

// Origin returns the provenance label the plan's rule r carries in the
// composed program: its own or, for a rule of the library without one (a
// constraint has none), the label Compose gave the library's rules.
func (p *Composed) Origin(r ComposedRule) string {
	if r.Rule.Provenance != "" || r.Lib < 0 || r.Lib >= len(p.Library.work[p.k()])-len(p.Library.cons[p.k()]) {
		return r.Rule.Provenance
	}
	return p.label
}

func (p *Composed) k() int {
	if p.SingleHead {
		return 1
	}
	return 0
}

// Composed returns the evaluation plan of a composed program, or nil for any
// other program and for one whose query part takes the from-scratch path.
func (p *Program) Composed() *Composed {
	if c := p.composition(); c != nil {
		return c.strata
	}
	return nil
}

// stratify computes the composed program's evaluation plan the way prepare
// computes it from scratch — ConstraintsAsRules, SingleHead when single is set,
// Stratify, Strata — but stratifies the query's rules only, over the library's
// levels. It reports false where the plan would differ from the library's
// cached one (a fresh predicate SingleHead would name differently) or the
// query's rules do not stratify within their bound; the from-scratch path
// then decides.
func (c *composition) stratify(single bool) bool {
	lib, k := c.lib, 0
	if single {
		k = 1
	}
	// SingleHead's fresh predicates avoid the whole program's schema and are
	// numbered in rule order across the query's and the library's rules.
	n := 0
	fresh := func(prefix string) string {
		for {
			name := prefix + "#" + strconv.Itoa(n)
			n++
			if _, ok := lib.schema[name]; !ok {
				if _, ok := c.qschema[name]; !ok {
					return name
				}
			}
		}
	}
	// The query's evaluation rules, as they appear in the program's order:
	// its rules, then its constraints as rules.
	var qwork []Rule
	addQuery := func(rules []Rule) {
		for _, r := range rules {
			if single {
				qwork = appendSingleHead(qwork, r, fresh)
			} else {
				qwork = append(qwork, r)
			}
		}
	}
	libRules := func() bool {
		for i := range lib.prog.Rules {
			if single && lib.aux[i] != "" && fresh("h") != lib.aux[i] {
				return false
			}
		}
		return true
	}
	if c.first {
		if !libRules() {
			return false
		}
		addQuery(c.query.Rules)
	} else {
		addQuery(c.query.Rules)
		if !libRules() {
			return false
		}
	}
	nqr := len(qwork)
	for _, con := range c.query.Constraints {
		qwork = append(qwork, con.asRule())
	}
	// The minimal levels of the query's head predicates over the library's,
	// which no query rule changes; the marker collects both parts' constraints.
	level := make(map[string]int)
	if len(lib.prog.Constraints) > 0 {
		level[InconsistencyMarker] = lib.level[k][InconsistencyMarker]
	}
	levelOf := func(pred string) int {
		if l, ok := level[pred]; ok {
			return l
		}
		return lib.level[k][pred]
	}
	maxLevel := len(lib.schema) + len(c.qschema) + len(qwork)
	for changed := true; changed; {
		changed = false
		for _, r := range qwork {
			for _, h := range r.Head {
				hl := levelOf(h.Pred)
				for _, a := range r.BodyPos {
					hl = max(hl, levelOf(a.Pred))
				}
				for _, a := range r.BodyNeg {
					hl = max(hl, levelOf(a.Pred)+1)
				}
				if l, ok := level[h.Pred]; !ok || hl > l {
					if hl > maxLevel {
						return false
					}
					level[h.Pred] = hl
					changed = true
				}
			}
		}
	}
	top := len(lib.placed[k]) - 1
	for _, l := range level {
		top = max(top, l)
	}
	// The query's rules level by level, each level's in the order they come
	// in, then its constraints.
	plan := &Composed{Library: lib, SingleHead: single, Rules: len(lib.work[k]) + len(qwork),
		first: c.first, label: c.label, marker: levelOf(InconsistencyMarker),
		query: make([]ComposedRule, 0, len(qwork)), ends: make([]int, top+1)}
	for l := range plan.ends {
		for _, r := range qwork[:nqr] {
			if levelOf(r.Head[0].Pred) == l {
				plan.query = append(plan.query, ComposedRule{Rule: r, Lib: -1})
			}
		}
		plan.ends[l] = len(plan.query)
	}
	for _, r := range qwork[nqr:] {
		plan.query = append(plan.query, ComposedRule{Rule: r, Lib: -1})
	}
	c.strata = plan
	return true
}
