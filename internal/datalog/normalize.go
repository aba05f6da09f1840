package datalog

import (
	"fmt"
	"sort"
)

// freshPredicates hands out predicate names that do not clash with a schema.
type freshPredicates struct {
	used map[string]bool
	n    int
}

func newFreshPredicates(p *Program) *freshPredicates {
	f := &freshPredicates{used: make(map[string]bool)}
	sch, _ := p.Schema()
	for pred := range sch {
		f.used[pred] = true
	}
	return f
}

func (f *freshPredicates) next(prefix string) string {
	for {
		name := fmt.Sprintf("%s#%d", prefix, f.n)
		f.n++
		if !f.used[name] {
			f.used[name] = true
			return name
		}
	}
}

// SingleHead rewrites every multi-head rule into single-head rules, following
// footnote 6 of the paper (and [Calì, Gottlob, Pieris 2012]): a rule
// body → ∃Y c1, …, cj becomes body → ∃Y aux(F, Y) and aux(F, Y) → ci, where
// F is the frontier of the original rule. The result is equivalent on all
// original predicates.
func SingleHead(p *Program) *Program {
	fresh := newFreshPredicates(p)
	out := &Program{Constraints: append([]Constraint(nil), p.Constraints...)}
	for _, r := range p.Rules {
		if len(r.Head) == 1 {
			out.Add(r)
			continue
		}
		frontier := r.Frontier()
		ex := r.ExistentialVars()
		args := append(append([]Term(nil), frontier...), ex...)
		aux := Atom{Pred: fresh.next("h"), Args: args}
		out.Add(Rule{BodyPos: r.BodyPos, BodyNeg: r.BodyNeg, Head: []Atom{aux}, Provenance: r.Provenance})
		for _, h := range r.Head {
			out.Add(Rule{BodyPos: []Atom{aux}, Head: []Atom{h}, Provenance: r.Provenance})
		}
	}
	return out
}

// SingleExistential applies the normalization N(ρ) of Section 6.3 so that
// every rule has at most one occurrence of one existentially quantified
// variable: a rule a1,…,an,¬b1,…,¬bm → ∃Y1…∃Yk c becomes the chain
//
//	a1,…,an,¬b1,…,¬bm → ∃Y1 pρ1(X, Y1)
//	pρ1(X, Y1)        → ∃Y2 pρ2(X, Y1, Y2)
//	…
//	pρk(X, Y1,…,Yk)   → c
//
// where X = var(body(ρ)) ∩ var(head(ρ)). Rules must be single-head (apply
// SingleHead first); constraints pass through unchanged. The transformation
// preserves wardedness and all derivable ground atoms (Π(D)↓ = Π'(D)↓ on the
// original schema).
func SingleExistential(p *Program) *Program {
	fresh := newFreshPredicates(p)
	out := &Program{Constraints: append([]Constraint(nil), p.Constraints...)}
	for _, r := range p.Rules {
		if len(r.Head) != 1 {
			// Preserve the rule untouched; callers are expected to run
			// SingleHead first. Multi-head rules with ≤1 existential are
			// still fine for the chase engine.
			out.Add(r)
			continue
		}
		ex := r.ExistentialVars()
		head := r.Head[0]
		if len(ex) <= 1 {
			// Enforce "at most one occurrence" too: an existential variable
			// repeated in the head still counts as several occurrences.
			if len(ex) == 1 && countVar(head, ex[0]) > 1 {
				// fall through to the chain construction below
			} else {
				out.Add(r)
				continue
			}
		}
		frontier := r.Frontier()
		prevAtom := Atom{}
		prevArgs := append([]Term(nil), frontier...)
		for i, y := range ex {
			prevArgs = append(prevArgs, y)
			auxAtom := Atom{Pred: fresh.next("p"), Args: append([]Term(nil), prevArgs...)}
			if i == 0 {
				out.Add(Rule{BodyPos: r.BodyPos, BodyNeg: r.BodyNeg, Head: []Atom{auxAtom}, Provenance: r.Provenance})
			} else {
				out.Add(Rule{BodyPos: []Atom{prevAtom}, Head: []Atom{auxAtom}, Provenance: r.Provenance})
			}
			prevAtom = auxAtom
		}
		out.Add(Rule{BodyPos: []Atom{prevAtom}, Head: []Atom{head}, Provenance: r.Provenance})
	}
	return out
}

func countVar(a Atom, v Term) int {
	n := 0
	for _, t := range a.Args {
		if t == v {
			n++
		}
	}
	return n
}

// IsHeadGrounded reports whether every head term of the rule is a constant or
// an (analysis-)harmless variable (Section 6.3).
func IsHeadGrounded(an *Analysis, r Rule) bool {
	vc := an.Classify(r)
	for _, h := range r.Head {
		for _, t := range h.Args {
			if t.IsVar() && !vc.Harmless[t] {
				return false
			}
		}
	}
	return true
}

// IsSemiBodyGrounded reports whether at most one positive body atom of the
// rule contains a harmful variable (Section 6.3).
func IsSemiBodyGrounded(an *Analysis, r Rule) bool {
	vc := an.Classify(r)
	n := 0
	for _, a := range r.BodyPos {
		for _, v := range a.Vars() {
			if vc.Harmful[v] {
				n++
				break
			}
		}
	}
	return n <= 1
}

// HeadGroundedSplit normalizes a *positive* warded program so that every rule
// is head-grounded or semi-body-grounded, following Section 6.3: a rule
//
//	s0(X,Y1), s1(…), …, sn(…) → ∃W t(X, Y3, Z2, W)
//
// with ward s0 is split into
//
//	s1(…), …, sn(…)      → tρ(S)            (head-grounded)
//	s0(X,Y1), tρ(S)      → ∃W t(X,Y3,Z2,W)  (semi-body-grounded)
//
// where S collects the variables shared between the ward and the rest plus
// the head variables contributed by the rest — all harmless by wardedness.
// Negated atoms go with the ward, and S also carries the variables the rest
// binds for them, so the second rule binds them all; under grounded negation
// those are harmless too. The program must be warded; an error is returned
// otherwise. Ground-atom semantics is preserved: Π(D)↓ = Π'(D)↓ on sch(Π).
func HeadGroundedSplit(p *Program) (*Program, error) {
	if err := CheckWarded(p); err != nil {
		return nil, err
	}
	an := Analyze(p)
	fresh := newFreshPredicates(p)
	out := &Program{Constraints: append([]Constraint(nil), p.Constraints...)}
	for _, r := range p.Rules {
		if IsHeadGrounded(an, r) || IsSemiBodyGrounded(an, r) {
			out.Add(r)
			continue
		}
		ward, ok := FindWard(an, r)
		if !ok {
			return nil, fmt.Errorf("datalog: rule %v has no ward", r)
		}
		wardIdx := -1
		for i, a := range r.BodyPos {
			if a.Equal(ward) {
				wardIdx = i
				break
			}
		}
		rest := make([]Atom, 0, len(r.BodyPos)-1)
		for i, a := range r.BodyPos {
			if i != wardIdx {
				rest = append(rest, a)
			}
		}
		// S = (vars shared between ward and rest) ∪ (head vars occurring in
		// rest). Both sets are harmless under wardedness.
		share := make(map[Term]bool)
		restVars := make(map[Term]bool)
		for _, v := range VarsOf(rest) {
			restVars[v] = true
		}
		for _, v := range ward.Vars() {
			if restVars[v] {
				share[v] = true
			}
		}
		for _, v := range r.HeadVars() {
			if restVars[v] {
				share[v] = true
			}
		}
		for _, v := range VarsOf(r.BodyNeg) {
			if restVars[v] {
				share[v] = true
			}
		}
		args := make([]Term, 0, len(share))
		for v := range share {
			args = append(args, v)
		}
		sort.Slice(args, func(i, j int) bool { return args[i].Name < args[j].Name })
		auxAtom := Atom{Pred: fresh.next("t"), Args: args}
		out.Add(Rule{BodyPos: rest, Head: []Atom{auxAtom}, Provenance: r.Provenance})
		out.Add(Rule{BodyPos: []Atom{ward, auxAtom}, BodyNeg: r.BodyNeg, Head: r.Head, Provenance: r.Provenance})
	}
	return out, nil
}

// NormalizeForProofTree prepares a warded program for the ProofTree algorithm
// of Section 6.3: single-head, at most one existential occurrence per rule,
// and every rule head-grounded or semi-body-grounded. Negated atoms ride along
// into the first rule of each chain and the second of each split.
func NormalizeForProofTree(p *Program) (*Program, error) {
	q := SingleExistential(SingleHead(p))
	return HeadGroundedSplit(q)
}

// StarConstant is the reserved constant ⋆ of Theorem 4.4 (also reused by the
// SPARQL translation of Section 5.1 for unbound positions).
const StarConstant = "⋆"

// ReduceConstraints applies the Π⊥ construction of Theorem 4.4: every
// constraint a1,…,an → ⊥ becomes the rule a1,…,an → p(⋆,…,⋆) on the query's
// output predicate p. For the resulting query Q', Q(D) = ⊤ iff the all-⋆
// tuple is in Q'(D), and otherwise Q(D) = Q'(D) minus that tuple.
func ReduceConstraints(q Query) Query {
	if len(q.Program.Constraints) == 0 {
		return q
	}
	arity := q.OutputArity()
	if arity < 0 {
		arity = 0
	}
	star := make([]Term, arity)
	for i := range star {
		star[i] = C(StarConstant)
	}
	prog := q.Program.Clone()
	for _, c := range prog.Constraints {
		prog.Add(Rule{BodyPos: c.Body, Head: []Atom{{Pred: q.Output, Args: star}}})
	}
	prog.Constraints = nil
	return Query{Program: prog, Output: q.Output}
}

// StarTuple returns the all-⋆ tuple of the given arity, used to detect
// inconsistency after ReduceConstraints.
func StarTuple(arity int) []Term {
	out := make([]Term, arity)
	for i := range out {
		out[i] = C(StarConstant)
	}
	return out
}
