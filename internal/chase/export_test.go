package chase

import (
	"context"

	"repro/internal/datalog"
)

// CompiledOf and Prepare open compiledOf and prepare to the tests of package
// chase_test, which may import the packages that import this one: the regime
// libraries and the evaluation paths built on the chase.
var CompiledOf = compiledOf

// Prepare prepares an evaluation of prog, chasing nothing.
func Prepare(prog *datalog.Program) error {
	_, err := prepare(context.Background(), NewInstance(), prog, Options{}.withDefaults(), false)
	return err
}
