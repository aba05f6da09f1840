package chase

import (
	"sync"

	"repro/internal/datalog"
)

// Library is the compiled form of a fixed rule library (datalog.Library): its
// evaluation rules, both as they are and single-headed, lowered to patterns
// with their static join orders, and their renderings, the names their
// RuleStats carry. It is read-only: every engine of a program composed with
// the library runs its compiled rules (prepareComposed), and resolves their
// patterns against its own instance in scratch of its own.
type Library struct {
	rules [2][]compiledRule // by datalog.Library.Work(k == 1)
	names [2][]string
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
			l.rules[k][i], l.names[k][i] = *compileRule(r), r.String()
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
