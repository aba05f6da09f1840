// Package pep implements the program-expressive-power apparatus of
// Section 7 of the paper: Pep_L[Π] collects the triples (D, Λ, t) such that
// the query (Π ∪ Λ, p) lies in the language L and answers t over D, where Λ
// is a set of plain Datalog output rules. The package provides the witness
// constructions of Theorems 7.1 (Datalog ≺_Pep warded Datalog^∃) and 7.2
// (Datalog^{¬s,⊥} ≺_Pep TriQ-Lite 1.0) as executable artifacts, plus the
// machinery to evaluate Pep-triples.
package pep

import (
	"context"
	"fmt"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/triq"
)

// Witness bundles one Pep separation: a database D, a fixed program Π in the
// stronger language, and two output-rule sets Λ1, Λ2 such that
// (D, Λ1, ()) ∈ Pep[Π] and (D, Λ2, ()) ∉ Pep[Π], while for every program of
// the weaker (null-free) language the two triples necessarily coexist.
type Witness struct {
	// DB is the database D.
	DB *chase.Instance
	// Pi is the fixed program Π of the stronger language.
	Pi *datalog.Program
	// Lambda1 and Lambda2 are the output-rule sets; Output names their
	// 0-ary output predicate q.
	Lambda1, Lambda2 *datalog.Program
	Output           string
}

// Theorem71 returns the witness of Theorem 7.1:
//
//	D = {p(c)},  Π = {p(X) → ∃Y s(X,Y)},
//	Λ1 = {s(X,Y) → q},  Λ2 = {s(X,Y), p(Y) → q}.
func Theorem71() Witness {
	return Witness{
		DB:      chase.NewInstance(datalog.NewAtom("p", datalog.C("c"))),
		Pi:      datalog.MustParse(`p(?X) -> exists ?Y s(?X, ?Y).`),
		Lambda1: datalog.MustParse(`s(?X, ?Y) -> q().`),
		Lambda2: datalog.MustParse(`s(?X, ?Y), p(?Y) -> q().`),
		Output:  "q",
	}
}

// Theorem72 returns the analogous witness separating Datalog^{¬s,⊥} from
// TriQ-Lite 1.0: the fixed program uses both value invention and stratified
// grounded negation, and is a TriQ-Lite 1.0 program.
func Theorem72() Witness {
	return Witness{
		DB: chase.NewInstance(datalog.NewAtom("p", datalog.C("c"))),
		Pi: datalog.MustParse(`
			p(?X), not excluded(?X) -> p1(?X).
			p1(?X) -> exists ?Y s(?X, ?Y).
		`),
		Lambda1: datalog.MustParse(`s(?X, ?Y) -> q().`),
		Lambda2: datalog.MustParse(`s(?X, ?Y), p(?Y) -> q().`),
		Output:  "q",
	}
}

// Query assembles (Π ∪ Λ, q).
func (w Witness) Query(lambda *datalog.Program) datalog.Query {
	prog := w.Pi.Clone()
	prog.Merge(lambda)
	return datalog.NewQuery(prog, w.Output)
}

// Holds reports whether (D, Λ, ()) belongs to Pep[Π], i.e. whether the empty
// tuple is an answer of (Π ∪ Λ, q) over D.
func (w Witness) Holds(lambda *datalog.Program) (bool, error) {
	q := w.Query(lambda)
	res, err := triq.EvalCtx(context.Background(), w.DB, q, triq.Unrestricted, triq.Options{})
	if err != nil {
		return false, err
	}
	if res.Answers.Inconsistent {
		return false, fmt.Errorf("pep: unexpected ⊤")
	}
	return len(res.Answers.Tuples) > 0, nil
}

// DatalogCoexistence checks the weaker-language side of the separation for
// one candidate program Π': over the witness database, () ∈ (Π' ∪ Λ1, q)(D)
// must imply () ∈ (Π' ∪ Λ2, q)(D). It holds for every constant-free
// Datalog^{¬s} program because without labeled nulls every derivable s-fact
// ranges over dom(D) = {c}, where Λ1 and Λ2 coincide.
func (w Witness) DatalogCoexistence(pi *datalog.Program) (bool, error) {
	if pi.HasExistentials() {
		return false, fmt.Errorf("pep: candidate program must be null-free Datalog")
	}
	mk := func(lambda *datalog.Program) (bool, error) {
		prog := pi.Clone()
		prog.Merge(lambda)
		q := datalog.NewQuery(prog, w.Output)
		res, err := triq.EvalCtx(context.Background(), w.DB, q, triq.Unrestricted, triq.Options{})
		if err != nil {
			return false, err
		}
		return !res.Answers.Inconsistent && len(res.Answers.Tuples) > 0, nil
	}
	q1, err := mk(w.Lambda1)
	if err != nil {
		return false, err
	}
	q2, err := mk(w.Lambda2)
	if err != nil {
		return false, err
	}
	return !q1 || q2, nil
}
