package datalog

import "sort"

// Analysis holds the affected-position analysis of Section 4.1 for a program.
// All classifications are computed over ex(Π)+ — the program obtained by
// dropping negative atoms and constraints — exactly as the paper prescribes
// for Datalog^{∃,¬s,⊥} programs.
type Analysis struct {
	affected map[Position]bool
	schema   map[string]int
	// base, when set, is the analysis of the library a composed program was
	// joined with (Compose), which this one extends with the query's rules: a
	// position affected there is affected here.
	base *Analysis
}

// Analyze computes affected(Π) by the fixpoint of Section 4.1:
//
//  1. positions where an existentially quantified variable occurs in some
//     rule head are affected;
//  2. if a variable occurs in a rule's positive body only at affected
//     positions and also occurs in the head at position π, then π is affected.
//
// For a composed program the library's part comes from its Library, and only
// the query's rules are analysed.
func Analyze(p *Program) *Analysis {
	sch, _ := p.Schema()
	if c := p.composition(); c != nil {
		an := &Analysis{affected: make(map[Position]bool), schema: sch}
		for _, layer := range []*Analysis{c.lib.an, c.an} {
			for pos := range layer.affected {
				an.affected[pos] = true
			}
		}
		return an
	}
	an := &Analysis{affected: make(map[Position]bool), schema: sch}
	an.extend(p.Rules)
	return an
}

// extend adds what the rules make affected to the analysis: their existential
// head positions, then what propagates from there through their bodies.
func (an *Analysis) extend(rules []Rule) {
	// Seed: existential positions in heads.
	for _, r := range rules {
		ex := make(map[Term]bool)
		for _, v := range r.ExistentialVars() {
			ex[v] = true
		}
		for _, h := range r.Head {
			for i, t := range h.Args {
				if t.IsVar() && ex[t] {
					an.affected[Position{h.Pred, i + 1}] = true
				}
			}
		}
	}

	// Propagate: a variable whose positive-body occurrences are all affected
	// contaminates its head positions.
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			for _, v := range VarsOf(r.BodyPos) {
				if !an.allBodyOccurrencesAffected(r, v) {
					continue
				}
				for _, h := range r.Head {
					for i, t := range h.Args {
						pos := Position{h.Pred, i + 1}
						if t == v && !an.isAffected(pos) {
							an.affected[pos] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

func (an *Analysis) isAffected(pos Position) bool {
	return an.affected[pos] || an.base != nil && an.base.affected[pos]
}

func (an *Analysis) allBodyOccurrencesAffected(r Rule, v Term) bool {
	found := false
	for _, a := range r.BodyPos {
		for i, t := range a.Args {
			if t == v {
				found = true
				if !an.isAffected(Position{a.Pred, i + 1}) {
					return false
				}
			}
		}
	}
	return found
}

// IsAffected reports whether the position belongs to affected(Π).
func (an *Analysis) IsAffected(pos Position) bool { return an.isAffected(pos) }

// AffectedPositions returns affected(Π), sorted.
func (an *Analysis) AffectedPositions() []Position {
	out := make([]Position, 0, len(an.affected))
	for p := range an.affected {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Idx < out[j].Idx
	})
	return out
}

// NonAffectedPositions returns pos(Π) \ affected(Π), sorted.
func (an *Analysis) NonAffectedPositions() []Position {
	var out []Position
	preds := make([]string, 0, len(an.schema))
	for p := range an.schema {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		for i := 1; i <= an.schema[p]; i++ {
			if !an.isAffected(Position{p, i}) {
				out = append(out, Position{p, i})
			}
		}
	}
	return out
}

// VarClass classifies the body variables of one rule with respect to the
// analyzed program (Section 4.1).
type VarClass struct {
	Harmless  map[Term]bool
	Harmful   map[Term]bool // includes dangerous variables
	Dangerous map[Term]bool
}

// Classify partitions var(body(ρ)) into Π-harmless and Π-harmful variables
// and identifies the Π-dangerous ones (harmful and propagated to the head).
// Occurrences in negative body atoms are not considered, matching the
// ex(Π)+ convention (and they could never make a variable harmless anyway,
// because classifications are defined on the positive program).
func (an *Analysis) Classify(r Rule) VarClass {
	vc := VarClass{
		Harmless:  make(map[Term]bool),
		Harmful:   make(map[Term]bool),
		Dangerous: make(map[Term]bool),
	}
	headVars := make(map[Term]bool)
	for _, v := range r.HeadVars() {
		headVars[v] = true
	}
	for _, v := range VarsOf(r.BodyPos) {
		if an.hasNonAffectedOccurrence(r, v) {
			vc.Harmless[v] = true
			continue
		}
		vc.Harmful[v] = true
		if headVars[v] {
			vc.Dangerous[v] = true
		}
	}
	return vc
}

func (an *Analysis) hasNonAffectedOccurrence(r Rule, v Term) bool {
	for _, a := range r.BodyPos {
		for i, t := range a.Args {
			if t == v && !an.isAffected(Position{a.Pred, i + 1}) {
				return true
			}
		}
	}
	return false
}

// sortedVars renders a variable set deterministically (used in error
// messages and tests).
func sortedVars(m map[Term]bool) []Term {
	out := make([]Term, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
