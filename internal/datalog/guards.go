package datalog

import "fmt"

// This file implements the guardedness lattice of the paper: guarded,
// weakly-guarded, frontier-guarded, weakly-frontier-guarded (TriQ 1.0,
// Definition 4.2), nearly-frontier-guarded (Section 6.2), warded
// (TriQ-Lite 1.0, Definition 6.1), warded with minimal interaction
// (Section 6.4), and the grounded-negation condition of Datalog^{∃,¬sg,⊥}.
//
// Every check is performed on ex(Π)+ — the program without negative atoms
// and constraints — as the paper prescribes; candidate guards and wards are
// therefore always positive body atoms.

func covers(a Atom, vars map[Term]bool) bool {
	for v := range vars {
		if !a.HasVar(v) {
			return false
		}
	}
	return true
}

func someBodyAtomCovers(r Rule, vars map[Term]bool) bool {
	for _, a := range r.BodyPos {
		if covers(a, vars) {
			return true
		}
	}
	return false
}

// CheckGuarded reports whether Π is guarded: every rule has a positive body
// atom containing all body variables.
func CheckGuarded(p *Program) error { return checkRules(p, false, guardedRule) }

func guardedRule(_ *Analysis, r Rule) error {
	all := make(map[Term]bool)
	for _, v := range r.BodyVars() {
		all[v] = true
	}
	if !someBodyAtomCovers(r, all) {
		return fmt.Errorf("datalog: rule %v is not guarded: no body atom contains all body variables", r)
	}
	return nil
}

// CheckWeaklyGuarded reports whether Π is weakly-guarded: every rule has a
// positive body atom containing all Π-harmful body variables.
func CheckWeaklyGuarded(p *Program) error { return checkRules(p, true, weaklyGuardedRule) }

func weaklyGuardedRule(an *Analysis, r Rule) error {
	vc := an.Classify(r)
	if !someBodyAtomCovers(r, vc.Harmful) {
		return fmt.Errorf("datalog: rule %v is not weakly-guarded: no body atom contains the harmful variables %v", r, sortedVars(vc.Harmful))
	}
	return nil
}

// CheckFrontierGuarded reports whether Π is frontier-guarded: every rule has
// a positive body atom containing all frontier variables.
func CheckFrontierGuarded(p *Program) error { return checkRules(p, false, frontierGuardedRule) }

func frontierGuardedRule(_ *Analysis, r Rule) error {
	fr := make(map[Term]bool)
	for _, v := range r.Frontier() {
		fr[v] = true
	}
	if !someBodyAtomCovers(r, fr) {
		return fmt.Errorf("datalog: rule %v is not frontier-guarded: no body atom contains the frontier %v", r, sortedVars(fr))
	}
	return nil
}

// CheckWeaklyFrontierGuarded reports whether Π is weakly-frontier-guarded:
// every rule has a positive body atom containing all Π-dangerous variables.
// This is the defining condition of TriQ 1.0 (Definition 4.2).
func CheckWeaklyFrontierGuarded(p *Program) error {
	return checkRules(p, true, weaklyFrontierGuardedRule)
}

func weaklyFrontierGuardedRule(an *Analysis, r Rule) error {
	vc := an.Classify(r)
	if !someBodyAtomCovers(r, vc.Dangerous) {
		return fmt.Errorf("datalog: rule %v is not weakly-frontier-guarded: no body atom contains the dangerous variables %v", r, sortedVars(vc.Dangerous))
	}
	return nil
}

// CheckNearlyFrontierGuarded reports whether Π is nearly frontier-guarded
// (Section 6.2): every rule is frontier-guarded or all its body variables
// are Π-harmless.
func CheckNearlyFrontierGuarded(p *Program) error {
	return checkRules(p, true, nearlyFrontierGuardedRule)
}

func nearlyFrontierGuardedRule(an *Analysis, r Rule) error {
	fr := make(map[Term]bool)
	for _, v := range r.Frontier() {
		fr[v] = true
	}
	if someBodyAtomCovers(r, fr) {
		return nil
	}
	vc := an.Classify(r)
	if len(vc.Harmful) == 0 {
		return nil
	}
	return fmt.Errorf("datalog: rule %v is not nearly frontier-guarded: it is not frontier-guarded and has harmful variables %v", r, sortedVars(vc.Harmful))
}

// checkRules runs a per-rule condition over the rules of ex(Π)+, under the
// affected-position analysis of ex(Π)+ when the condition needs one, and
// returns the first violation.
func checkRules(p *Program, analysed bool, rule func(*Analysis, Rule) error) error {
	pos := p.Positive()
	var an *Analysis
	if analysed {
		an = Analyze(pos)
	}
	for _, r := range pos.Rules {
		if err := rule(an, r); err != nil {
			return err
		}
	}
	return nil
}

// FindWard returns a ward for the rule within the analyzed program: a
// positive body atom a with dangerous(ρ,Π) ⊆ var(a) that shares only
// harmless variables with the rest of the body (Definition 6.1). The second
// result is false when the rule has dangerous variables but no ward exists;
// when the rule has no dangerous variables it returns (Atom{}, true) with an
// empty atom, since no ward is needed.
func FindWard(an *Analysis, r Rule) (Atom, bool) {
	vc := an.Classify(r)
	if len(vc.Dangerous) == 0 {
		return Atom{}, true
	}
	for i, a := range r.BodyPos {
		if !covers(a, vc.Dangerous) {
			continue
		}
		if wardSharesOnlyHarmless(r, i, vc) {
			return a, true
		}
	}
	return Atom{}, false
}

func wardSharesOnlyHarmless(r Rule, wardIdx int, vc VarClass) bool {
	ward := r.BodyPos[wardIdx]
	for _, v := range ward.Vars() {
		if vc.Harmless[v] {
			continue
		}
		for j, b := range r.BodyPos {
			if j != wardIdx && b.HasVar(v) {
				return false
			}
		}
	}
	return true
}

// CheckWarded reports whether Π is warded (Definition 6.1): every rule either
// has no dangerous variables or has a ward.
func CheckWarded(p *Program) error { return checkRules(p, true, wardedRule) }

func wardedRule(an *Analysis, r Rule) error {
	if _, ok := FindWard(an, r); !ok {
		vc := an.Classify(r)
		return fmt.Errorf("datalog: rule %v is not warded: dangerous variables %v admit no ward", r, sortedVars(vc.Dangerous))
	}
	return nil
}

// CheckWardedMinimalInteraction reports whether Π is a warded program with
// minimal interaction (Section 6.4): warded, and for each rule with ward a,
// at most one harmful ward variable ?V escapes the ward; that variable occurs
// at most once outside the ward; and the atom b containing the escaped
// occurrence satisfies var(b) \ {?V} ⊆ harmless.
func CheckWardedMinimalInteraction(p *Program) error {
	return checkRules(p, true, wardedMinimalInteractionRule)
}

func wardedMinimalInteractionRule(an *Analysis, r Rule) error {
	vc := an.Classify(r)
	if len(vc.Dangerous) == 0 {
		// Without dangerous variables there is no ward and nothing to
		// check: the rule is trivially warded.
		return nil
	}
	for i, a := range r.BodyPos {
		if covers(a, vc.Dangerous) && minimalInteractionAt(r, i, vc) {
			return nil
		}
	}
	return fmt.Errorf("datalog: rule %v violates minimal interaction", r)
}

func minimalInteractionAt(r Rule, wardIdx int, vc VarClass) bool {
	ward := r.BodyPos[wardIdx]
	// B = (var(ward) ∩ var(rest)) \ harmless.
	escaped := make(map[Term]int) // escaped harmful ward variable → #occurrences outside
	for _, v := range ward.Vars() {
		if vc.Harmless[v] {
			continue
		}
		for j, b := range r.BodyPos {
			if j == wardIdx {
				continue
			}
			for _, t := range b.Args {
				if t == v {
					escaped[v]++
				}
			}
		}
	}
	if len(escaped) > 1 {
		return false
	}
	for v, count := range escaped {
		if count > 1 {
			return false
		}
		// The atom containing the single escaped occurrence may otherwise
		// hold only constants and harmless variables.
		for j, b := range r.BodyPos {
			if j == wardIdx || !b.HasVar(v) {
				continue
			}
			for _, t := range b.Args {
				if t.IsVar() && t != v && !vc.Harmless[t] {
					return false
				}
			}
		}
	}
	return true
}

// CheckGroundedNegation reports whether every negated atom of the program
// uses only constants and ex(Π)+-harmless variables, i.e. whether the
// negation is grounded in the sense of Datalog^{∃,¬sg,⊥} (Section 6.1).
func CheckGroundedNegation(p *Program) error {
	if c := p.composition(); c != nil && c.grounded {
		return nil
	}
	an := Analyze(p.Positive())
	for _, r := range p.Rules {
		if err := groundedRule(an, r); err != nil {
			return err
		}
	}
	return nil
}

func groundedRule(an *Analysis, r Rule) error {
	vc := an.Classify(r)
	for _, a := range r.BodyNeg {
		for _, t := range a.Args {
			if t.IsConst() {
				continue
			}
			if t.IsVar() && vc.Harmless[t] {
				continue
			}
			return fmt.Errorf("datalog: rule %v: negated atom %v uses term %v which is neither a constant nor harmless", r, a, t)
		}
	}
	return nil
}

// Dialect identifies one of the paper's named program classes.
type Dialect int

const (
	// AnyDialect accepts every Datalog^{∃,¬s,⊥} program.
	AnyDialect Dialect = iota
	// Guarded is guarded Datalog^∃ extended with negation/constraints.
	Guarded
	// WeaklyGuarded requires all harmful variables in one atom.
	WeaklyGuarded
	// FrontierGuarded requires the frontier in one atom.
	FrontierGuarded
	// WeaklyFrontierGuarded is TriQ 1.0 (Definition 4.2).
	WeaklyFrontierGuarded
	// NearlyFrontierGuarded is the tractable class of Section 6.2.
	NearlyFrontierGuarded
	// Warded requires wards (Definition 6.1) but not grounded negation.
	Warded
	// TriQLite is warded + stratified grounded negation: TriQ-Lite 1.0.
	TriQLite
	// WardedMinimalInteraction is the ExpTime-hard relaxation of Section 6.4.
	WardedMinimalInteraction
)

func (d Dialect) String() string {
	switch d {
	case AnyDialect:
		return "Datalog[∃,¬s,⊥]"
	case Guarded:
		return "guarded"
	case WeaklyGuarded:
		return "weakly-guarded"
	case FrontierGuarded:
		return "frontier-guarded"
	case WeaklyFrontierGuarded:
		return "TriQ 1.0 (weakly-frontier-guarded)"
	case NearlyFrontierGuarded:
		return "nearly-frontier-guarded"
	case Warded:
		return "warded"
	case TriQLite:
		return "TriQ-Lite 1.0 (warded, grounded negation)"
	case WardedMinimalInteraction:
		return "warded with minimal interaction"
	default:
		return fmt.Sprintf("Dialect(%d)", int(d))
	}
}

// CheckDialect verifies that the program falls into the given dialect. It
// always also checks stratification (all of the paper's languages are
// stratified).
func CheckDialect(p *Program, d Dialect) error {
	if c := p.composition(); c != nil && c.holds(d) {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if _, err := Stratify(p); err != nil {
		return err
	}
	rule, analysed, grounded, ok := dialectRule(d)
	if !ok {
		return fmt.Errorf("datalog: unknown dialect %v", d)
	}
	if rule != nil {
		if err := checkRules(p, analysed, rule); err != nil {
			return err
		}
	}
	if grounded {
		return CheckGroundedNegation(p)
	}
	return nil
}

// dialectRule returns the dialect's condition on each rule of ex(Π)+ (nil for
// AnyDialect), whether it needs the affected-position analysis, and whether
// the dialect also requires grounded negation; ok is false for an unknown
// dialect.
func dialectRule(d Dialect) (rule func(*Analysis, Rule) error, analysed, grounded, ok bool) {
	switch d {
	case AnyDialect:
		return nil, false, false, true
	case Guarded:
		return guardedRule, false, false, true
	case WeaklyGuarded:
		return weaklyGuardedRule, true, false, true
	case FrontierGuarded:
		return frontierGuardedRule, false, false, true
	case WeaklyFrontierGuarded:
		return weaklyFrontierGuardedRule, true, false, true
	case NearlyFrontierGuarded:
		return nearlyFrontierGuardedRule, true, false, true
	case Warded:
		return wardedRule, true, false, true
	case TriQLite:
		return wardedRule, true, true, true
	case WardedMinimalInteraction:
		return wardedMinimalInteractionRule, true, true, true
	}
	return nil, false, false, false
}
