package triq

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
)

func TestExactGroundAgreesWithStableGround(t *testing.T) {
	cases := []struct {
		name string
		db   *chase.Instance
		src  string
	}{
		{
			"example 6.10",
			chase.NewInstance(atom("s", "a", "a", "a"), atom("t", "a")),
			example610Src,
		},
		{
			"infinite chain",
			chase.NewInstance(atom("e", "a", "b"), atom("g", "b")),
			`
				e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
				e(?X, ?Y), g(?Y) -> out(?X).
			`,
		},
		{
			"grounded negation",
			chase.NewInstance(atom("p", "c"), atom("p", "d"), atom("seen", "d")),
			`
				p(?X), not seen(?X) -> fresh(?X).
				fresh(?X) -> exists ?Y s(?X, ?Y).
				s(?X, ?Y), p(?X) -> out(?X).
			`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := datalog.MustParse(tc.src)
			exact, err := ExactGroundCtx(t.Context(), tc.db, prog, nil, chase.Options{}, ProofOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gr, err := chase.StableGround(tc.db, prog, chase.Options{MaxDepth: 24}, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Compare on the original program's predicates only (negation
			// elimination adds complement relations on the exact side, and
			// StableGround does not see them; single-head aux predicates are
			// shared).
			sch, _ := prog.Schema()
			for pred := range sch {
				exactAtoms := exact.AtomsOf(pred)
				for _, a := range exactAtoms {
					if !gr.Ground().Has(a) {
						t.Errorf("exact derived %v, chase did not", a)
					}
				}
				for _, a := range gr.Ground().AtomsOf(pred) {
					if !exact.Has(a) {
						t.Errorf("chase derived %v, exact did not", a)
					}
				}
			}
		})
	}
}

func TestExactGroundPredicateSelection(t *testing.T) {
	db := chase.NewInstance(atom("e", "a", "b"), atom("e", "b", "c"))
	prog := datalog.MustParse(`
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
	`)
	out, err := ExactGroundCtx(t.Context(), db, prog, []string{"tc"}, chase.Options{}, ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.AtomsOf("tc")) != 3 {
		t.Errorf("tc = %v", out.AtomsOf("tc"))
	}
	if len(out.AtomsOf("e")) != 0 {
		t.Error("unselected predicate should not be enumerated")
	}
	if _, err := ExactGroundCtx(t.Context(), db, prog, []string{"absent"}, chase.Options{}, ProofOptions{}); err == nil {
		t.Error("unknown predicate should error")
	}
}

func TestExactGroundRejectsConstraints(t *testing.T) {
	prog := datalog.MustParse(`p(?X) -> q(?X). q(?X) -> false.`)
	if _, err := ExactGroundCtx(t.Context(), chase.NewInstance(), prog, nil, chase.Options{}, ProofOptions{}); err == nil {
		t.Error("constraints must be rejected")
	}
}

func TestEvalExactMatchesEval(t *testing.T) {
	db := chase.NewInstance(
		atom("triple", "TheAirline", "partOf", "transportService"),
		atom("triple", "A311", "partOf", "TheAirline"),
		atom("triple", "Oxford", "A311", "London"),
		atom("triple", "London", "A311", "Madrid"),
	)
	q := datalog.MustParseQuery(`
		triple(?X, partOf, transportService) -> ts(?X).
		triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
		ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
		ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
		conn(?X, ?Y) -> query(?X, ?Y).
	`, "query")
	fast, err := Eval(db, q, TriQLite10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := EvalExactCtx(t.Context(), db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Answers.Tuples) != len(exact.Answers.Tuples) {
		t.Fatalf("answer counts differ: fast %d vs exact %d",
			len(fast.Answers.Tuples), len(exact.Answers.Tuples))
	}
	for i := range fast.Answers.Tuples {
		if !isSameTuple(fast.Answers.Tuples[i], exact.Answers.Tuples[i]) {
			t.Errorf("tuple %d differs: %v vs %v", i, fast.Answers.Tuples[i], exact.Answers.Tuples[i])
		}
	}
	if !exact.Exact {
		t.Error("EvalExact must report exactness")
	}
}

func isSameTuple(a, b []datalog.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEvalExactConstraints(t *testing.T) {
	q := datalog.MustParseQuery(`
		type(?X, ?Y) -> out(?X).
		type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.
	`, "out")
	bad := chase.NewInstance(atom("type", "a", "C1"), atom("type", "a", "C2"), atom("disj", "C1", "C2"))
	res, err := EvalExactCtx(t.Context(), bad, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Inconsistent {
		t.Error("EvalExact should detect ⊤")
	}
	good := chase.NewInstance(atom("type", "a", "C1"))
	res, err = EvalExactCtx(t.Context(), good, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Inconsistent || len(res.Answers.Tuples) != 1 {
		t.Errorf("answers = %+v", res.Answers)
	}
}

func TestEvalExactRejectsNonTriQLite(t *testing.T) {
	q := datalog.MustParseQuery(datalog.MustParse(`
		n(?X) -> exists ?Y s(?X, ?Y).
		s(?X, ?Y) -> s(?Y, ?X).
		s(?X, ?Y), s(?Y, ?W) -> out(?X).
	`).String(), "out")
	if _, err := EvalExactCtx(t.Context(), chase.NewInstance(), q, Options{}); err == nil {
		t.Error("non-warded query must be rejected")
	}
}
