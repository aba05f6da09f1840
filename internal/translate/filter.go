package translate

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/sparql"
)

// This file compiles FILTER conditions. For each possible domain d of the
// filtered pattern, the built-in condition is partially evaluated — bound(?X)
// and equalities over unbound variables have statically known truth values
// under d — and the residue is put into disjunctive normal form. Each
// disjunct becomes one rule: positive equalities are compiled away by
// unifying variables or substituting constants, and negative equalities
// become stratified grounded negation over an eq(·,·) predicate holding the
// identity relation on the active domain.

// atomic is a (possibly negated) residual equality over bound variables.
type atomic struct {
	neg bool
	x   string       // variable
	y   string       // second variable for ?X = ?Y, empty for ?X = c
	c   datalog.Term // constant for ?X = c
}

func (c *compiler) compileFilter(p sparql.Filter) (*node, error) {
	inner, err := c.compile(p.P)
	if err != nil {
		return nil, err
	}
	n := c.newNode(inner.domains)
	for _, d := range inner.domains {
		for _, conj := range dnfOf(p.Cond, d, false) {
			rule, ok := c.filterRule(inner, n, d, conj)
			if !ok {
				continue
			}
			c.prog.Add(rule)
		}
	}
	return n, nil
}

// dnfOf puts the condition (negated when neg is set) into DNF under the
// domain d. The empty disjunction means "statically false"; a disjunction
// containing an empty conjunction means "statically true".
func dnfOf(cond sparql.Condition, d domain, neg bool) [][]atomic {
	truth := func(v bool) [][]atomic {
		if v != neg {
			return [][]atomic{{}}
		}
		return nil
	}
	switch q := cond.(type) {
	case sparql.Bound:
		return truth(d.has(q.Var))
	case sparql.EqConst:
		if !d.has(q.Var) {
			return truth(false)
		}
		return [][]atomic{{{neg: neg, x: q.Var, c: owl.TermConst(q.Val)}}}
	case sparql.EqVars:
		if !d.has(q.X) || !d.has(q.Y) {
			return truth(false)
		}
		return [][]atomic{{{neg: neg, x: q.X, y: q.Y}}}
	case sparql.Neg:
		return dnfOf(q.C, d, !neg)
	case sparql.Conj:
		if neg {
			return append(dnfOf(q.L, d, true), dnfOf(q.R, d, true)...)
		}
		return crossDNF(dnfOf(q.L, d, false), dnfOf(q.R, d, false))
	case sparql.Disj:
		if neg {
			return crossDNF(dnfOf(q.L, d, true), dnfOf(q.R, d, true))
		}
		return append(dnfOf(q.L, d, false), dnfOf(q.R, d, false)...)
	default:
		panic(fmt.Sprintf("translate: unknown condition type %T", cond))
	}
}

func crossDNF(a, b [][]atomic) [][]atomic {
	var out [][]atomic
	for _, x := range a {
		for _, y := range b {
			conj := make([]atomic, 0, len(x)+len(y))
			conj = append(conj, x...)
			conj = append(conj, y...)
			out = append(out, conj)
		}
	}
	return out
}

// filterRule builds the rule for one disjunct, or reports the disjunct
// unsatisfiable.
func (c *compiler) filterRule(inner, n *node, d domain, conj []atomic) (datalog.Rule, bool) {
	// Union-find over the domain variables for positive var=var equalities.
	parent := make(map[string]string, len(d))
	for _, v := range d {
		parent[v] = v
	}
	var find func(string) string
	find = func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	bound := make(map[string]datalog.Term) // class representative → constant
	for _, a := range conj {
		if a.neg {
			continue
		}
		if a.y != "" {
			rx, ry := find(a.x), find(a.y)
			if rx == ry {
				continue
			}
			// Merge, reconciling constant bindings.
			if cx, okx := bound[rx]; okx {
				if cy, oky := bound[ry]; oky && cx != cy {
					return datalog.Rule{}, false
				}
				bound[ry] = cx
			}
			parent[rx] = ry
		} else {
			r := find(a.x)
			if prev, ok := bound[r]; ok && prev != a.c {
				return datalog.Rule{}, false
			}
			bound[r] = a.c
		}
	}
	subst := make(map[datalog.Term]datalog.Term)
	value := func(v string) datalog.Term {
		r := find(v)
		if cst, ok := bound[r]; ok {
			return cst
		}
		return datalog.V(r)
	}
	for _, v := range d {
		subst[datalog.V(v)] = value(v)
	}
	var bodyNeg []datalog.Atom
	for _, a := range conj {
		if !a.neg {
			continue
		}
		lhs := value(a.x)
		var rhs datalog.Term
		if a.y != "" {
			rhs = value(a.y)
		} else {
			rhs = a.c
		}
		if lhs == rhs {
			return datalog.Rule{}, false // ¬(t = t) is unsatisfiable
		}
		if lhs.IsConst() && rhs.IsConst() {
			continue // distinct constants: ¬(c1 = c2) is trivially true
		}
		c.needEq = true
		bodyNeg = append(bodyNeg, datalog.NewAtom("eq", lhs, rhs))
	}
	return datalog.Rule{
		BodyPos: []datalog.Atom{inner.atom(d).Substitute(subst)},
		BodyNeg: bodyNeg,
		Head:    []datalog.Atom{n.atom(d).Substitute(subst)},
	}, true
}

// emitEqRules defines eq as the identity on the active domain.
func (c *compiler) emitEqRules() {
	if c.regime == Plain {
		c.prog.Merge(datalog.MustParse(`
			triple(?X, ?Y, ?Z) -> adom(?X), adom(?Y), adom(?Z).
			adom(?X) -> eq(?X, ?X).
		`))
		return
	}
	c.prog.Merge(datalog.MustParse(`
		C(?X) -> eq(?X, ?X).
	`))
}
