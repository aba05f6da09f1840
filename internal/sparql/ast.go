// Package sparql implements the algebraic formalization of SPARQL used in
// Section 3.1 of the paper (after Pérez, Arenas, Gutierrez 2009): graph
// patterns built from basic graph patterns with AND, UNION, OPT, FILTER and
// SELECT, built-in conditions, mapping sets with the ⋈ / ∪ / ∖ / left-outer
// -join operators, the evaluation function ⟦·⟧_G, and a parser for a concrete
// SPARQL subset (SELECT / CONSTRUCT / OPTIONAL / UNION / FILTER).
package sparql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// PTerm is a pattern term: a variable or an RDF term (URI, blank node, or
// literal). Blank nodes in basic graph patterns act as existential variables
// (the function h : B → U of the semantics).
type PTerm struct {
	// IsVar marks a variable; Var then holds its name including the '?'.
	IsVar bool
	Var   string
	// Term holds the RDF term when IsVar is false.
	Term rdf.Term
}

// Var returns a variable pattern term; the '?' prefix is added if missing.
func Var(name string) PTerm {
	if !strings.HasPrefix(name, "?") {
		name = "?" + name
	}
	return PTerm{IsVar: true, Var: name}
}

// IRI returns an IRI pattern term.
func IRI(iri string) PTerm { return PTerm{Term: rdf.NewIRI(iri)} }

// Blank returns a blank-node pattern term.
func Blank(label string) PTerm { return PTerm{Term: rdf.NewBlank(label)} }

// Lit returns a plain-literal pattern term.
func Lit(lex string) PTerm { return PTerm{Term: rdf.NewLiteral(lex)} }

// FromTerm wraps an RDF term as a pattern term.
func FromTerm(t rdf.Term) PTerm { return PTerm{Term: t} }

// String renders the pattern term.
func (t PTerm) String() string {
	if t.IsVar {
		return t.Var
	}
	return t.Term.String()
}

// IsBlank reports whether the term is a blank node.
func (t PTerm) IsBlank() bool { return !t.IsVar && t.Term.IsBlank() }

// TriplePattern is one triple of a basic graph pattern.
type TriplePattern struct {
	S, P, O PTerm
}

// TP builds a triple pattern.
func TP(s, p, o PTerm) TriplePattern { return TriplePattern{S: s, P: p, O: o} }

// String renders the triple pattern.
func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String()
}

// Terms returns the three pattern terms.
func (tp TriplePattern) Terms() [3]PTerm { return [3]PTerm{tp.S, tp.P, tp.O} }

// Pattern is a SPARQL graph pattern.
type Pattern interface {
	isPattern()
	// Vars returns var(P): the set of variables occurring in the pattern.
	Vars() map[string]bool
	String() string
}

// BGP is a basic graph pattern: a set of triple patterns.
type BGP struct {
	Triples []TriplePattern
}

// And is (P1 AND P2).
type And struct{ L, R Pattern }

// Union is (P1 UNION P2).
type Union struct{ L, R Pattern }

// Opt is (P1 OPT P2).
type Opt struct{ L, R Pattern }

// Filter is (P FILTER R).
type Filter struct {
	P    Pattern
	Cond Condition
}

// Select is (SELECT W P): projection to the variable set W.
type Select struct {
	Proj []string
	P    Pattern
}

func (BGP) isPattern()    {}
func (And) isPattern()    {}
func (Union) isPattern()  {}
func (Opt) isPattern()    {}
func (Filter) isPattern() {}
func (Select) isPattern() {}

// Vars implements Pattern.
func (p BGP) Vars() map[string]bool {
	out := make(map[string]bool)
	for _, tp := range p.Triples {
		for _, t := range tp.Terms() {
			if t.IsVar {
				out[t.Var] = true
			}
		}
	}
	return out
}

func union2(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// Vars implements Pattern.
func (p And) Vars() map[string]bool { return union2(p.L.Vars(), p.R.Vars()) }

// Vars implements Pattern.
func (p Union) Vars() map[string]bool { return union2(p.L.Vars(), p.R.Vars()) }

// Vars implements Pattern.
func (p Opt) Vars() map[string]bool { return union2(p.L.Vars(), p.R.Vars()) }

// Vars implements Pattern.
func (p Filter) Vars() map[string]bool { return p.P.Vars() }

// Vars implements Pattern.
func (p Select) Vars() map[string]bool {
	inner := p.P.Vars()
	out := make(map[string]bool)
	for _, v := range p.Proj {
		if inner[v] {
			out[v] = true
		}
	}
	return out
}

func (p BGP) String() string {
	parts := make([]string, len(p.Triples))
	for i, tp := range p.Triples {
		parts[i] = tp.String()
	}
	return "{" + strings.Join(parts, " . ") + "}"
}

func (p And) String() string    { return "(" + p.L.String() + " AND " + p.R.String() + ")" }
func (p Union) String() string  { return "(" + p.L.String() + " UNION " + p.R.String() + ")" }
func (p Opt) String() string    { return "(" + p.L.String() + " OPT " + p.R.String() + ")" }
func (p Filter) String() string { return "(" + p.P.String() + " FILTER " + p.Cond.String() + ")" }
func (p Select) String() string {
	vs := append([]string(nil), p.Proj...)
	sort.Strings(vs)
	return "(SELECT {" + strings.Join(vs, ",") + "} " + p.P.String() + ")"
}

// Condition is a SPARQL built-in condition (Section 3.1).
type Condition interface {
	isCondition()
	// Vars returns var(R).
	Vars() map[string]bool
	// Satisfied implements µ ⊨ R.
	Satisfied(m Mapping) bool
	String() string
}

// Bound is bound(?X).
type Bound struct{ Var string }

// EqConst is ?X = c.
type EqConst struct {
	Var string
	Val rdf.Term
}

// EqVars is ?X = ?Y.
type EqVars struct{ X, Y string }

// Neg is (¬R).
type Neg struct{ C Condition }

// Conj is (R1 ∧ R2).
type Conj struct{ L, R Condition }

// Disj is (R1 ∨ R2).
type Disj struct{ L, R Condition }

func (Bound) isCondition()   {}
func (EqConst) isCondition() {}
func (EqVars) isCondition()  {}
func (Neg) isCondition()     {}
func (Conj) isCondition()    {}
func (Disj) isCondition()    {}

// Vars implements Condition.
func (c Bound) Vars() map[string]bool { return map[string]bool{c.Var: true} }

// Vars implements Condition.
func (c EqConst) Vars() map[string]bool { return map[string]bool{c.Var: true} }

// Vars implements Condition.
func (c EqVars) Vars() map[string]bool { return map[string]bool{c.X: true, c.Y: true} }

// Vars implements Condition.
func (c Neg) Vars() map[string]bool { return c.C.Vars() }

// Vars implements Condition.
func (c Conj) Vars() map[string]bool { return union2(c.L.Vars(), c.R.Vars()) }

// Vars implements Condition.
func (c Disj) Vars() map[string]bool { return union2(c.L.Vars(), c.R.Vars()) }

// Satisfied implements µ ⊨ bound(?X).
func (c Bound) Satisfied(m Mapping) bool { _, ok := m[c.Var]; return ok }

// Satisfied implements µ ⊨ (?X = c).
func (c EqConst) Satisfied(m Mapping) bool {
	v, ok := m[c.Var]
	return ok && v == c.Val
}

// Satisfied implements µ ⊨ (?X = ?Y).
func (c EqVars) Satisfied(m Mapping) bool {
	x, okx := m[c.X]
	y, oky := m[c.Y]
	return okx && oky && x == y
}

// Satisfied implements µ ⊨ (¬R).
func (c Neg) Satisfied(m Mapping) bool { return !c.C.Satisfied(m) }

// Satisfied implements µ ⊨ (R1 ∧ R2).
func (c Conj) Satisfied(m Mapping) bool { return c.L.Satisfied(m) && c.R.Satisfied(m) }

// Satisfied implements µ ⊨ (R1 ∨ R2).
func (c Disj) Satisfied(m Mapping) bool { return c.L.Satisfied(m) || c.R.Satisfied(m) }

func (c Bound) String() string   { return "bound(" + c.Var + ")" }
func (c EqConst) String() string { return c.Var + " = " + c.Val.String() }
func (c EqVars) String() string  { return c.X + " = " + c.Y }
func (c Neg) String() string     { return "(¬" + c.C.String() + ")" }
func (c Conj) String() string    { return "(" + c.L.String() + " ∧ " + c.R.String() + ")" }
func (c Disj) String() string    { return "(" + c.L.String() + " ∨ " + c.R.String() + ")" }

// Validate checks the side condition var(R) ⊆ var(P) for every FILTER
// sub-pattern, as assumed by the paper.
func Validate(p Pattern) error {
	switch q := p.(type) {
	case BGP:
		return nil
	case And:
		if err := Validate(q.L); err != nil {
			return err
		}
		return Validate(q.R)
	case Union:
		if err := Validate(q.L); err != nil {
			return err
		}
		return Validate(q.R)
	case Opt:
		if err := Validate(q.L); err != nil {
			return err
		}
		return Validate(q.R)
	case Select:
		return Validate(q.P)
	case Filter:
		if err := Validate(q.P); err != nil {
			return err
		}
		pv := q.P.Vars()
		for v := range q.Cond.Vars() {
			if !pv[v] {
				return fmt.Errorf("sparql: FILTER uses %s which does not occur in the pattern %s", v, q.P)
			}
		}
		return nil
	default:
		return fmt.Errorf("sparql: unknown pattern type %T", p)
	}
}

// BasicPatterns returns the basic graph patterns of P in left-to-right order.
func BasicPatterns(p Pattern) []BGP {
	var out []BGP
	var walk func(Pattern)
	walk = func(p Pattern) {
		switch q := p.(type) {
		case BGP:
			out = append(out, q)
		case And:
			walk(q.L)
			walk(q.R)
		case Union:
			walk(q.L)
			walk(q.R)
		case Opt:
			walk(q.L)
			walk(q.R)
		case Filter:
			walk(q.P)
		case Select:
			walk(q.P)
		}
	}
	walk(p)
	return out
}

// PatternKind names an operator of the SPARQL algebra for spans and summaries.
func PatternKind(p Pattern) string {
	switch p.(type) {
	case BGP:
		return "BGP"
	case And:
		return "AND"
	case Union:
		return "UNION"
	case Opt:
		return "OPT"
	case Filter:
		return "FILTER"
	case Select:
		return "SELECT"
	default:
		return fmt.Sprintf("%T", p)
	}
}
