package triq

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
)

// TestExactGroundAgreesWithStableGround: the exact path's ground part, read
// one predicate at a time, is the chase's at depth 24 — for a program whose
// chase a pass closes, an infinite chain, and grounded negation.
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
			gr, err := chase.StableGroundCtx(context.Background(), tc.db, prog, chase.Options{MaxDepth: 24})
			if err != nil {
				t.Fatal(err)
			}
			for _, pred := range prog.Predicates() {
				res, err := exactOf(t.Context(), tc.db, prog, pred, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprint(res.Answers), fmt.Sprint(AnswersOf(false, gr.Ground().AtomsOf(pred))); !res.Exact || got != want {
					t.Errorf("%s: exact path %s (exact %v), chase to depth 24 %s", pred, got, res.Exact, want)
				}
			}
		})
	}
}

// exactOf evaluates the atoms of one predicate of prog on the exact path: the
// query that copies them into a fresh output predicate, which no rule body
// mentions.
func exactOf(ctx context.Context, db *chase.Instance, prog *datalog.Program, pred string, opts Options) (*Result, error) {
	sch, err := prog.Schema()
	if err != nil {
		return nil, err
	}
	args := make([]datalog.Term, sch[pred])
	for i := range args {
		args[i] = datalog.V(fmt.Sprint("X", i))
	}
	withGoal := prog.Clone()
	withGoal.Add(datalog.Rule{BodyPos: []datalog.Atom{{Pred: pred, Args: args}}, Head: []datalog.Atom{{Pred: "goal#", Args: args}}})
	opts.Exact = true
	return EvalCtx(ctx, db, datalog.Query{Program: withGoal, Output: "goal#"}, TriQLite10, opts)
}

// deepChain derives q(a) at the end of a chain r1 … r8 of nulls, so at null
// depth 8; no closing pass closes it, and q(a) is its open goal.
func deepChain() (*chase.Instance, string) {
	var src strings.Builder
	src.WriteString("p(?X) -> r1(?X, ?Y).\n")
	for k := 1; k <= 7; k++ {
		fmt.Fprintf(&src, "r%d(?X, ?Y) -> e%d(?Y, ?Z), r%d(?X, ?Z).\n", k, k, k+1)
	}
	src.WriteString("r8(?X, ?Y) -> q(?X).\n")
	return chase.NewInstance(atom("p", "a")), src.String()
}

// deepNegationFixture is a TriQ-Lite program whose answer hinges on that
// fact: ans(a) holds unless q(a) does.
func deepNegationFixture() (*chase.Instance, *datalog.Program) {
	db, src := deepChain()
	return db, datalog.MustParse(src + "p(?X), not q(?X) -> ans(?X).")
}

// skipInjected skips a test whose evaluation the process-wide TRIQ_FAULTS plan
// tripped: where its hit count falls is not the test's to choose.
func skipInjected(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, limits.ErrInjected) {
		t.Skipf("injected fault (TRIQ_FAULTS armed): %v", err)
	}
}

// wideNegation is deepChain with a negation of arity 5 over n constants: q5
// copies q onto the w facts, and ans(A) holds for each w(X, A, …) with no q(X).
// The database is p(a) and w(k, k, k, k, k) for the n constants k = a, c1, …,
// c(n-1), so every k but a answers: q(a) holds, at null depth 8.
func wideNegation(n int) (*chase.Instance, *datalog.Program) {
	db, src := deepChain()
	for i := range n {
		k := "a"
		if i > 0 {
			k = fmt.Sprint("c", i)
		}
		db.Add(atom("w", k, k, k, k, k))
	}
	return db, datalog.MustParse(src + `
		q(?X), w(?X, ?A, ?B, ?C, ?D) -> q5(?X, ?A, ?B, ?C, ?D).
		w(?X, ?A, ?B, ?C, ?D), not q5(?X, ?A, ?B, ?C, ?D) -> ans(?A).
	`)
}

// TestEvalExactWideNegation: a negation of arity 5 over 32 and 42 constants,
// where Step 1's complement of q5 would hold 32^5 ≈ 33.5 M and 42^5 ≈ 131 M
// atoms. The exact path certifies q5 — the chase, and ProofTree on the goals
// q5(a, …) the closing pass leaves open — and reads it as database facts, so
// it answers as the chase to depth 24, which terminates.
func TestEvalExactWideNegation(t *testing.T) {
	for _, n := range []int{32, 42} {
		db, prog := wideNegation(n)
		o := obs.New()
		res, err := EvalCtx(t.Context(), db, datalog.Query{Program: prog, Output: "ans"}, TriQLite10, Options{Exact: true, Chase: chase.Options{Obs: o}})
		skipInjected(t, err)
		if err != nil {
			t.Fatalf("%d constants: %v", n, err)
		}
		deep, err := chase.RunCtx(context.Background(), db, prog, chase.Options{MaxDepth: 24})
		skipInjected(t, err)
		if err != nil || deep.Stats.DepthTruncated {
			t.Fatalf("%d constants: the chase to depth 24 must terminate: %v", n, err)
		}
		want := fmt.Sprint(AnswersOf(false, deep.Instance.GroundPart().AtomsOf("ans")).Tuples)
		if got := fmt.Sprint(res.Answers.Tuples); !res.Exact || got != want || len(res.Answers.Tuples) != n-1 {
			t.Errorf("%d constants: exact path %s (exact %v), the chase to depth 24 %s", n, got, res.Exact, want)
		}
		t.Logf("%d constants: %d rows, %d prover visits", n, len(res.Answers.Tuples), o.Registry().Counter("prover.components"))
	}
}

// TestEvalExactDeepNegation: the stability window stops the chase of the
// stratum below the negation at depth 6, before q(a), so a negation read off
// that ground part lets ans(a) through. The exact path answers {}: the closing
// pass leaves q(a) open in the stratum below, ProofTree proves it, and the
// certified copy of q that the negation reads holds it.
func TestEvalExactDeepNegation(t *testing.T) {
	db, prog := deepNegationFixture()
	res, err := EvalCtx(t.Context(), db, datalog.Query{Program: prog, Output: "ans"}, TriQLite10, Options{Exact: true})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Incomplete || len(res.Answers.Tuples) != 0 {
		t.Errorf("got %v (exact %v, incomplete %v), want {} exact", res.Answers.Tuples, res.Exact, res.Incomplete)
	}
	deep, err := chase.RunCtx(context.Background(), db, prog, chase.Options{MaxDepth: 20})
	skipInjected(t, err)
	if err != nil || deep.Stats.DepthTruncated || !deep.Instance.GroundPart().Has(atom("q", "a")) || deep.Instance.GroundPart().Has(atom("ans", "a")) {
		t.Errorf("the chase to depth 20 must terminate with q(a) and without ans(a): %v", err)
	}
	// A visit budget that trips on q(a) before q is certified leaves nothing
	// known to be sound: the chase's ans(a) is not reported.
	res, err = EvalCtx(t.Context(), db, datalog.Query{Program: prog, Output: "ans"}, TriQLite10, Options{Exact: true, MaxVisits: 1})
	skipInjected(t, err)
	if err != nil || !res.Incomplete || res.Exact || res.Truncation.Limit != limits.LimitVisits || len(res.Answers.Tuples) != 0 {
		t.Errorf("got %+v, %v; want an incomplete empty answer on a visits trip", res, err)
	}
}

// TestEvalExactMatchesEval: where the chase terminates, EvalCtx under
// Options.Exact is that chase — the same depth, chase work and rows — and
// asks ProofTree nothing.
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
	fast, err := EvalCtx(context.Background(), db, q, TriQLite10, Options{})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	exact, err := EvalCtx(t.Context(), db, q, TriQLite10, Options{Exact: true, Chase: chase.Options{Obs: o}})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	work := func(st chase.Stats) [4]int {
		return [4]int{st.Rounds, st.TriggersFired, st.FactsDerived, st.NullsInvented}
	}
	if exact.Depth != fast.Depth || work(exact.Stats) != work(fast.Stats) || o.Registry().Counter("prover.proofs") != 0 {
		t.Errorf("exact: depth %d, work %v, %d proofs; the chase: depth %d, work %v",
			exact.Depth, work(exact.Stats), o.Registry().Counter("prover.proofs"), fast.Depth, work(fast.Stats))
	}
	if got, want := fmt.Sprint(exact.Answers), fmt.Sprint(fast.Answers); got != want || len(fast.Answers.Tuples) == 0 {
		t.Errorf("exact rows %s, the chase's %s", got, want)
	}
	if !exact.Exact || !fast.Exact {
		t.Errorf("exact %v, the chase %v: a terminating chase is exact either way", exact.Exact, fast.Exact)
	}
}

func TestEvalExactConstraints(t *testing.T) {
	q := datalog.MustParseQuery(`
		type(?X, ?Y) -> out(?X).
		type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.
	`, "out")
	bad := chase.NewInstance(atom("type", "a", "C1"), atom("type", "a", "C2"), atom("disj", "C1", "C2"))
	res, err := EvalCtx(t.Context(), bad, q, TriQLite10, Options{Exact: true})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Inconsistent {
		t.Error("EvalExact should detect ⊤")
	}
	good := chase.NewInstance(atom("type", "a", "C1"))
	res, err = EvalCtx(t.Context(), good, q, TriQLite10, Options{Exact: true})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Inconsistent || len(res.Answers.Tuples) != 1 {
		t.Errorf("answers = %+v", res.Answers)
	}
	// The constraint's body holds only at null depth 8, past where the
	// stability window stops the chase, so the marker is an open goal that
	// ProofTree proves: directly, and after certifyNegated has certified q for
	// the negation, which must keep the constraint in the program it rebuilds.
	db, src := deepChain()
	for _, neg := range []string{"", "p(?X), not q(?X) -> ans(?X).\n"} {
		prog := datalog.MustParse(src + neg + "p(?X) -> out(?X).\nq(?X), p(?X) -> false.")
		o := obs.New()
		res, err := EvalCtx(t.Context(), db, datalog.Query{Program: prog, Output: "out"}, TriQLite10, Options{Exact: true, Chase: chase.Options{Obs: o}})
		skipInjected(t, err)
		if err != nil {
			t.Fatalf("%q: %v", neg, err)
		}
		if !res.Answers.Inconsistent || !res.Exact || o.Registry().Counter("prover.proofs") == 0 {
			t.Errorf("%q: inconsistent %v, exact %v, %d proofs; want ⊤ proved by ProofTree",
				neg, res.Answers.Inconsistent, res.Exact, o.Registry().Counter("prover.proofs"))
		}
	}
}

func TestEvalExactRejectsNonTriQLite(t *testing.T) {
	q := datalog.MustParseQuery(datalog.MustParse(`
		n(?X) -> exists ?Y s(?X, ?Y).
		s(?X, ?Y) -> s(?Y, ?X).
		s(?X, ?Y), s(?Y, ?W) -> out(?X).
	`).String(), "out")
	if _, err := EvalCtx(t.Context(), chase.NewInstance(), q, TriQLite10, Options{Exact: true}); err == nil {
		t.Error("non-warded query must be rejected")
	}
}
