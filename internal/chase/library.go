package chase

import (
	"sync"

	"repro/internal/datalog"
)

// Library is the compiled form of a fixed rule library (datalog.Library): its
// evaluation rules, both as they are and single-headed, lowered to patterns
// with their static join orders, and their renderings, the names their
// RuleStats carry. Every engine of a program composed with the library starts
// from it (prepareComposed) and copies only what a run writes: the patterns,
// which resolve against the engine's instance.
type Library struct {
	rules [2][]compiledRule // by datalog.Library.Work(k == 1)
	names [2][]string
	// pats and args count the patterns and their arguments over rules[k], so
	// an engine's copy takes one allocation of each.
	pats, args [2]int
}

// Compile compiles a fixed library's evaluation rules. A process compiles each
// library once, on the first evaluation of a program composed with it; Compile
// itself does not remember what it compiled.
func Compile(lib *datalog.Library) *Library {
	l := &Library{}
	for k, single := range [2]bool{false, true} {
		rules := lib.Work(single)
		l.rules[k] = make([]compiledRule, len(rules))
		l.names[k] = make([]string, len(rules))
		for i, r := range rules {
			c := compileRule(r, i)
			l.rules[k][i], l.names[k][i] = *c, r.String()
			for _, ps := range [3][]pattern{c.bodyPos, c.bodyNeg, c.heads} {
				l.pats[k] += len(ps)
				for _, p := range ps {
					l.args[k] += len(p.args)
				}
			}
		}
	}
	return l
}

// libraries holds each library's compiled form, built once per process.
var libraries sync.Map // *datalog.Library → *compiledOnce

type compiledOnce struct {
	once sync.Once
	lib  *Library
}

// compiledOf returns the library's compiled form, compiling it on first use.
func compiledOf(lib *datalog.Library) *Library {
	v, ok := libraries.Load(lib)
	if !ok {
		v, _ = libraries.LoadOrStore(lib, new(compiledOnce))
	}
	c := v.(*compiledOnce)
	c.once.Do(func() { c.lib = Compile(lib) })
	return c.lib
}

// instance returns an engine's own copy of the compiled rules of rules[k]:
// everything but the patterns is shared, read-only, with every other engine.
func (l *Library) instance(k int) []compiledRule {
	out := append([]compiledRule(nil), l.rules[k]...)
	pats := make([]pattern, l.pats[k])
	args := make([]patArg, l.args[k])
	for i := range out {
		c := &out[i]
		for _, ps := range [3]*[]pattern{&c.bodyPos, &c.bodyNeg, &c.heads} {
			n := len(*ps)
			own := pats[:n:n]
			pats = pats[n:]
			for j, p := range *ps {
				own[j] = p
				m := len(p.args)
				own[j].args = args[:m:m]
				copy(own[j].args, p.args)
				args = args[m:]
			}
			*ps = own
		}
	}
	return out
}
