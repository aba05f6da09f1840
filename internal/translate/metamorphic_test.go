package translate

import (
	"math/rand"
	"testing"

	"repro/internal/sparql"
	"repro/internal/triq"
)

// The metamorphic suite checks answer-set invariance of the full
// translate→chase→eval pipeline under rewrites the paper's algebra makes
// semantics-preserving: AND is join (commutative and associative, Sec. 2),
// UNION is set union (commutative), and a FILTER over a conjunction is the
// composition of the two filters. Each rewrite is applied at every matching
// node of a random pattern; the rewritten pattern must produce the same
// mapping set as the original.

// rewrite is one semantics-preserving transformation, applied recursively;
// it reports how many nodes it changed via the counter.
type rewrite struct {
	name  string
	apply func(p sparql.Pattern, hits *int) sparql.Pattern
}

// mapChildren rebuilds a pattern with f applied to every direct child.
func mapChildren(p sparql.Pattern, f func(sparql.Pattern) sparql.Pattern) sparql.Pattern {
	switch t := p.(type) {
	case sparql.And:
		return sparql.And{L: f(t.L), R: f(t.R)}
	case sparql.Union:
		return sparql.Union{L: f(t.L), R: f(t.R)}
	case sparql.Opt:
		return sparql.Opt{L: f(t.L), R: f(t.R)}
	case sparql.Filter:
		return sparql.Filter{P: f(t.P), Cond: t.Cond}
	case sparql.Select:
		return sparql.Select{Proj: t.Proj, P: f(t.P)}
	default: // BGP — no children
		return p
	}
}

var rewrites = []rewrite{
	{"and-commute", func(p sparql.Pattern, hits *int) sparql.Pattern {
		var rec func(sparql.Pattern) sparql.Pattern
		rec = func(p sparql.Pattern) sparql.Pattern {
			p = mapChildren(p, rec)
			if a, ok := p.(sparql.And); ok {
				*hits++
				return sparql.And{L: a.R, R: a.L}
			}
			return p
		}
		return rec(p)
	}},
	{"and-assoc", func(p sparql.Pattern, hits *int) sparql.Pattern {
		var rec func(sparql.Pattern) sparql.Pattern
		rec = func(p sparql.Pattern) sparql.Pattern {
			p = mapChildren(p, rec)
			if a, ok := p.(sparql.And); ok {
				if l, ok := a.L.(sparql.And); ok {
					*hits++
					return sparql.And{L: l.L, R: sparql.And{L: l.R, R: a.R}}
				}
			}
			return p
		}
		return rec(p)
	}},
	{"union-commute", func(p sparql.Pattern, hits *int) sparql.Pattern {
		var rec func(sparql.Pattern) sparql.Pattern
		rec = func(p sparql.Pattern) sparql.Pattern {
			p = mapChildren(p, rec)
			if u, ok := p.(sparql.Union); ok {
				*hits++
				return sparql.Union{L: u.R, R: u.L}
			}
			return p
		}
		return rec(p)
	}},
	{"filter-split", func(p sparql.Pattern, hits *int) sparql.Pattern {
		var rec func(sparql.Pattern) sparql.Pattern
		rec = func(p sparql.Pattern) sparql.Pattern {
			p = mapChildren(p, rec)
			if fp, ok := p.(sparql.Filter); ok {
				if c, ok := fp.Cond.(sparql.Conj); ok {
					*hits++
					return sparql.Filter{P: sparql.Filter{P: fp.P, Cond: c.L}, Cond: c.R}
				}
			}
			return p
		}
		return rec(p)
	}},
}

func TestMetamorphicRewrites(t *testing.T) {
	rng := rand.New(rand.NewSource(20140622))
	rounds := 140
	if testing.Short() {
		rounds = 40
	}
	applied := make(map[string]int)
	for round := 0; round < rounds; round++ {
		p := randomPattern(rng, 3)
		if sparql.Validate(p) != nil {
			continue
		}
		g := randomGraph(rng)
		tr, err := Translate(p, Plain)
		if err != nil {
			t.Fatalf("round %d: translate %s: %v", round, p, err)
		}
		base, baseInc, err := tr.Evaluate(g, triq.Options{})
		if err != nil {
			t.Fatalf("round %d: evaluate %s: %v", round, p, err)
		}
		for _, rw := range rewrites {
			hits := 0
			q := rw.apply(p, &hits)
			if hits == 0 {
				continue
			}
			applied[rw.name] += hits
			trq, err := Translate(q, Plain)
			if err != nil {
				t.Fatalf("round %d: translate rewrite %s of %s: %v", round, rw.name, p, err)
			}
			got, gotInc, err := trq.Evaluate(g, triq.Options{})
			if err != nil {
				t.Fatalf("round %d: evaluate rewrite %s of %s: %v", round, rw.name, p, err)
			}
			if baseInc != gotInc {
				t.Errorf("round %d: %s changed inconsistency: %v vs %v", round, rw.name, baseInc, gotInc)
			}
			if !base.Equal(got) {
				t.Errorf("round %d: %s changed the answers of %s over\n%s\noriginal:\n%s\nrewritten %s:\n%s",
					round, rw.name, p, g, base, q, got)
			}
		}
	}
	for _, rw := range rewrites {
		if applied[rw.name] == 0 {
			t.Errorf("rewrite %s never applied in %d rounds; generator drifted?", rw.name, rounds)
		}
	}
}

// TestMetamorphicRegimes repeats the core rewrites under the OWL 2 QL
// entailment regime, where evaluation routes through the saturation chase
// (existential rules) rather than plain Datalog.
func TestMetamorphicRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rounds := 25
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		p := sparql.And{L: randomPattern(rng, 1), R: randomPattern(rng, 1)}
		if sparql.Validate(p) != nil {
			continue
		}
		g := randomGraph(rng)
		tr, err := Translate(p, ActiveDomain)
		if err != nil {
			t.Fatalf("round %d: translate %s: %v", round, p, err)
		}
		base, baseInc, err := tr.Evaluate(g, triq.Options{})
		if err != nil {
			t.Fatalf("round %d: evaluate %s: %v", round, p, err)
		}
		swapped := sparql.And{L: p.R, R: p.L}
		trs, err := Translate(swapped, ActiveDomain)
		if err != nil {
			t.Fatalf("round %d: translate swap of %s: %v", round, p, err)
		}
		got, gotInc, err := trs.Evaluate(g, triq.Options{})
		if err != nil {
			t.Fatalf("round %d: evaluate swap of %s: %v", round, p, err)
		}
		if baseInc != gotInc || !base.Equal(got) {
			t.Errorf("round %d: AND commutativity violated under regime for %s over\n%s\n%s\nvs\n%s",
				round, p, g, base, got)
		}
	}
}
