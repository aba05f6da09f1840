package datalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Rule is a Datalog^{∃,¬} rule
//
//	a1, …, an, ¬b1, …, ¬bm → ∃?Y1 … ∃?Yk c1, …, cj
//
// The paper defines single-head rules and notes (footnote 6) that multi-head
// rules are syntactic sugar; this type allows several head atoms and the
// normalizations of normalize.go expand them.
type Rule struct {
	BodyPos []Atom // body+(ρ)
	BodyNeg []Atom // body−(ρ)
	Head    []Atom
	// Provenance labels where the rule came from — for compiler-generated
	// rules, the construct that emitted it (e.g. the SPARQL operator kind in
	// internal/translate, or "ontology"). It is carried through the
	// normalizations, surfaces as RuleStats.Origin in chase stats, and backs
	// the per-operator attribution of the EXPLAIN report. Empty for
	// hand-written rules; never affects evaluation or equality of answers.
	Provenance string
}

// NewRule builds a positive rule body → head.
func NewRule(head Atom, body ...Atom) Rule {
	return Rule{BodyPos: body, Head: []Atom{head}}
}

// Body returns body(ρ) = body+(ρ) ∪ body−(ρ).
func (r Rule) Body() []Atom {
	out := make([]Atom, 0, len(r.BodyPos)+len(r.BodyNeg))
	out = append(out, r.BodyPos...)
	out = append(out, r.BodyNeg...)
	return out
}

// BodyVars returns var(body(ρ)) in first-occurrence order.
func (r Rule) BodyVars() []Term { return VarsOf(r.Body()) }

// HeadVars returns var(head(ρ)) in first-occurrence order.
func (r Rule) HeadVars() []Term { return VarsOf(r.Head) }

// ExistentialVars returns the head variables that do not occur in the body:
// the existentially quantified variables ?Y1 … ?Yk.
func (r Rule) ExistentialVars() []Term {
	bodyVars := make(map[Term]struct{})
	for _, v := range r.BodyVars() {
		bodyVars[v] = struct{}{}
	}
	var out []Term
	for _, v := range r.HeadVars() {
		if _, ok := bodyVars[v]; !ok {
			out = append(out, v)
		}
	}
	return out
}

// Frontier returns the body variables that are propagated to the head.
func (r Rule) Frontier() []Term {
	headVars := make(map[Term]struct{})
	for _, v := range r.HeadVars() {
		headVars[v] = struct{}{}
	}
	var out []Term
	for _, v := range r.BodyVars() {
		if _, ok := headVars[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

// HasExistential reports whether the rule invents nulls.
func (r Rule) HasExistential() bool { return len(r.ExistentialVars()) > 0 }

// Validate checks the syntactic side conditions of Section 3.2:
// n ≥ 1; nulls may not occur in rules; var(body−) ⊆ var(body+); and the rule
// has at least one head atom.
func (r Rule) Validate() error {
	if len(r.BodyPos) == 0 {
		return fmt.Errorf("rule %v: at least one positive body atom is required", r)
	}
	if len(r.Head) == 0 {
		return fmt.Errorf("rule %v: a head atom is required", r)
	}
	for _, a := range append(r.Body(), r.Head...) {
		for _, t := range a.Args {
			if t.IsNull() {
				return fmt.Errorf("rule %v: labeled null %v may not occur in a rule", r, t)
			}
		}
	}
	pos := make(map[Term]struct{})
	for _, v := range VarsOf(r.BodyPos) {
		pos[v] = struct{}{}
	}
	for _, v := range VarsOf(r.BodyNeg) {
		if _, ok := pos[v]; !ok {
			return fmt.Errorf("rule %v: negated variable %v does not occur in the positive body", r, v)
		}
	}
	return nil
}

// String renders the rule in the surface syntax accepted by Parse.
func (r Rule) String() string {
	var b strings.Builder
	for i, a := range r.BodyPos {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	for _, a := range r.BodyNeg {
		b.WriteString(", not ")
		b.WriteString(a.String())
	}
	b.WriteString(" -> ")
	if ex := r.ExistentialVars(); len(ex) > 0 {
		b.WriteString("exists")
		for _, v := range ex {
			b.WriteByte(' ')
			b.WriteString(v.String())
		}
		b.WriteByte(' ')
	}
	for i, a := range r.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte('.')
	return b.String()
}

// Constraint is an assertion a1, …, an → ⊥.
type Constraint struct {
	Body []Atom
}

// Validate checks that the constraint has a nonempty body without nulls.
func (c Constraint) Validate() error {
	if len(c.Body) == 0 {
		return fmt.Errorf("constraint %v: at least one body atom is required", c)
	}
	for _, a := range c.Body {
		for _, t := range a.Args {
			if t.IsNull() {
				return fmt.Errorf("constraint %v: labeled null %v may not occur", c, t)
			}
		}
	}
	return nil
}

// String renders the constraint.
func (c Constraint) String() string {
	var b strings.Builder
	for i, a := range c.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteString(" -> false.")
	return b.String()
}

// Program is a finite set of Datalog^{∃,¬} rules and constraints — a
// Datalog^{∃,¬,⊥} program in the paper's terminology. The paper's ex(Π) is
// the Rules field alone.
type Program struct {
	Rules       []Rule
	Constraints []Constraint
	// comp is set by Compose on the program it returns: the query's rules
	// joined with a fixed library, analysed once (see Library).
	comp *composition
}

// Clone returns a copy of the program whose rules and constraints, and the
// atom lists in them, are its own; the atoms' argument lists, which nothing
// modifies in place, are shared.
func (p *Program) Clone() *Program {
	q := &Program{
		Rules:       make([]Rule, len(p.Rules)),
		Constraints: make([]Constraint, len(p.Constraints)),
	}
	for i, r := range p.Rules {
		q.Rules[i] = Rule{
			BodyPos:    append([]Atom(nil), r.BodyPos...),
			BodyNeg:    append([]Atom(nil), r.BodyNeg...),
			Head:       append([]Atom(nil), r.Head...),
			Provenance: r.Provenance,
		}
	}
	for i, c := range p.Constraints {
		q.Constraints[i] = Constraint{Body: append([]Atom(nil), c.Body...)}
	}
	return q
}

// Add appends rules to the program.
func (p *Program) Add(rules ...Rule) { p.Rules = append(p.Rules, rules...) }

// AddConstraint appends constraints.
func (p *Program) AddConstraint(cs ...Constraint) {
	p.Constraints = append(p.Constraints, cs...)
}

// Merge appends all rules and constraints of q.
func (p *Program) Merge(qs ...*Program) *Program {
	for _, q := range qs {
		p.Rules = append(p.Rules, q.Rules...)
		p.Constraints = append(p.Constraints, q.Constraints...)
	}
	return p
}

// Validate checks every rule and constraint.
func (p *Program) Validate() error {
	if p.composition() != nil {
		return nil // Compose checked the query's part, NewLibrary the library's
	}
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	for _, c := range p.Constraints {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Schema returns sch(Π): the predicates occurring in the program with their
// arities. Using the same predicate at two arities is reported as an error.
func (p *Program) Schema() (map[string]int, error) {
	sch := make(map[string]int)
	record := func(a Atom) error {
		if ar, ok := sch[a.Pred]; ok && ar != a.Arity() {
			return fmt.Errorf("predicate %s used with arities %d and %d", a.Pred, ar, a.Arity())
		}
		sch[a.Pred] = a.Arity()
		return nil
	}
	for _, r := range p.Rules {
		for _, a := range append(r.Body(), r.Head...) {
			if err := record(a); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range p.Constraints {
		for _, a := range c.Body {
			if err := record(a); err != nil {
				return nil, err
			}
		}
	}
	return sch, nil
}

// Predicates returns the sorted predicate names of sch(Π).
func (p *Program) Predicates() []string {
	sch, _ := p.Schema()
	out := make([]string, 0, len(sch))
	for pred := range sch {
		out = append(out, pred)
	}
	sort.Strings(out)
	return out
}

// IDBPredicates returns the predicates that occur in some rule head.
func (p *Program) IDBPredicates() map[string]bool {
	out := make(map[string]bool)
	for _, r := range p.Rules {
		for _, h := range r.Head {
			out[h.Pred] = true
		}
	}
	return out
}

// NegatedIDB returns the predicates that some rule negates and some rule
// derives, in the order they are first negated. A program without them
// negates only extensional predicates, whose extent is the database's and
// never changes while the program runs.
func (p *Program) NegatedIDB() []string {
	idb := p.IDBPredicates()
	var out []string
	for _, r := range p.Rules {
		for _, a := range r.BodyNeg {
			if idb[a.Pred] && !slices.Contains(out, a.Pred) {
				out = append(out, a.Pred)
			}
		}
	}
	return out
}

// HasNegation reports whether any rule has a negated body atom.
func (p *Program) HasNegation() bool {
	if c := p.composition(); c != nil {
		return c.negation
	}
	for _, r := range p.Rules {
		if len(r.BodyNeg) > 0 {
			return true
		}
	}
	return false
}

// HasExistentials reports whether any rule invents nulls.
func (p *Program) HasExistentials() bool {
	if c := p.composition(); c != nil {
		return c.existentials
	}
	for _, r := range p.Rules {
		if r.HasExistential() {
			return true
		}
	}
	return false
}

// Positive returns Π+ — the program obtained by dropping all negative body
// atoms (and keeping the rules otherwise unchanged). Constraints are dropped
// as well, matching the paper's use of ex(Π)+ for the guardedness checks.
func (p *Program) Positive() *Program {
	q := &Program{Rules: make([]Rule, len(p.Rules))}
	for i, r := range p.Rules {
		q.Rules[i] = Rule{BodyPos: r.BodyPos, Head: r.Head, Provenance: r.Provenance}
	}
	return q
}

// String renders the program, one rule per line, in the surface syntax.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, c := range p.Constraints {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Query is a Datalog^{∃,¬s,⊥} query (Π, p): a program together with an output
// predicate that must not occur in any rule body.
type Query struct {
	Program *Program
	Output  string
}

// NewQuery builds a query.
func NewQuery(p *Program, output string) Query { return Query{Program: p, Output: output} }

// Validate checks the query conditions: the program is valid, stratified, and
// the output predicate does not occur in a rule body.
func (q Query) Validate() error {
	if q.Program == nil {
		return fmt.Errorf("query: nil program")
	}
	if c := q.Program.composition(); c != nil && c.outputUnread(q.Output) {
		return nil
	}
	if err := q.Program.Validate(); err != nil {
		return err
	}
	if _, err := Stratify(q.Program); err != nil {
		return err
	}
	for _, r := range q.Program.Rules {
		for _, a := range r.Body() {
			if a.Pred == q.Output {
				return fmt.Errorf("query: output predicate %s occurs in the body of rule %v", q.Output, r)
			}
		}
	}
	for _, c := range q.Program.Constraints {
		for _, a := range c.Body {
			if a.Pred == q.Output {
				return fmt.Errorf("query: output predicate %s occurs in constraint %v", q.Output, c)
			}
		}
	}
	return nil
}
