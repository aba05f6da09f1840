package chase

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datalog"
)

func mustRun(t *testing.T, db *Instance, src string, opts Options) *Result {
	t.Helper()
	res, err := Run(db, datalog.MustParse(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChaseTransitiveClosure(t *testing.T) {
	db := NewInstance(
		atom("e", "a", "b"), atom("e", "b", "c"), atom("e", "c", "d"),
	)
	res := mustRun(t, db, `
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
	`, Options{})
	want := [][2]string{
		{"a", "b"}, {"b", "c"}, {"c", "d"},
		{"a", "c"}, {"b", "d"}, {"a", "d"},
	}
	for _, w := range want {
		if !res.Instance.Has(atom("tc", w[0], w[1])) {
			t.Errorf("missing tc(%s,%s)", w[0], w[1])
		}
	}
	if got := len(res.Instance.AtomsOf("tc")); got != len(want) {
		t.Errorf("tc count = %d, want %d", got, len(want))
	}
	if res.Stats.DepthTruncated {
		t.Error("Datalog chase should never truncate")
	}
}

func TestChaseSection2Transport(t *testing.T) {
	// The transport-service scenario of Section 2.
	db := NewInstance(
		atom("triple", "TheAirline", "partOf", "transportService"),
		atom("triple", "BritishAirways", "partOf", "transportService"),
		atom("triple", "Renfe", "partOf", "transportService"),
		atom("triple", "A311", "partOf", "TheAirline"),
		atom("triple", "BA201", "partOf", "BritishAirways"),
		atom("triple", "R502", "partOf", "Renfe"),
		atom("triple", "Oxford", "A311", "London"),
		atom("triple", "London", "BA201", "Madrid"),
		atom("triple", "Madrid", "R502", "Valladolid"),
	)
	// The Section 2 program, with the recursive predicate factored out of
	// the output predicate to satisfy the formal query definition of §3.2
	// (the output predicate may not occur in rule bodies).
	q := datalog.MustParseQuery(`
		triple(?X, partOf, transportService) -> ts(?X).
		triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
		ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
		ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
		conn(?X, ?Y) -> query(?X, ?Y).
	`, "query")
	ans, err := Answer(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := [][2]string{
		{"Oxford", "London"}, {"Oxford", "Madrid"}, {"Oxford", "Valladolid"},
		{"London", "Madrid"}, {"London", "Valladolid"},
		{"Madrid", "Valladolid"},
	}
	if len(ans.Tuples) != len(wantPairs) {
		t.Errorf("answers = %v, want %d pairs", ans.Tuples, len(wantPairs))
	}
	for _, w := range wantPairs {
		if !ans.HasConstants(w[0], w[1]) {
			t.Errorf("missing connection %s → %s", w[0], w[1])
		}
	}
}

func TestChaseStratifiedNegationMinMax(t *testing.T) {
	// The Π_aux order rules of Example 4.3.
	db := NewInstance(
		atom("succ0", "0", "1"), atom("succ0", "1", "2"), atom("succ0", "2", "3"),
	)
	res := mustRun(t, db, `
		succ0(?X, ?Y) -> less0(?X, ?Y).
		succ0(?X, ?Y), less0(?Y, ?Z) -> less0(?X, ?Z).
		less0(?X, ?Y) -> not_max(?X).
		less0(?X, ?Y) -> not_min(?Y).
		less0(?X, ?Y), not not_min(?X) -> zero0(?X).
		less0(?Y, ?X), not not_max(?X) -> max0(?X).
	`, Options{})
	if !res.Instance.Has(atom("zero0", "0")) {
		t.Error("zero0(0) missing")
	}
	if !res.Instance.Has(atom("max0", "3")) {
		t.Error("max0(3) missing")
	}
	if got := len(res.Instance.AtomsOf("zero0")); got != 1 {
		t.Errorf("zero0 atoms = %d, want 1", got)
	}
	if got := len(res.Instance.AtomsOf("max0")); got != 1 {
		t.Errorf("max0 atoms = %d, want 1", got)
	}
	if got := len(res.Instance.AtomsOf("less0")); got != 6 {
		t.Errorf("less0 atoms = %d, want 6", got)
	}
}

func TestChaseExistentialCoauthors(t *testing.T) {
	// The blank-node CONSTRUCT query (4) of Section 2 as a Datalog∃ rule.
	db := NewInstance(atom("triple", "dbAho", "is_coauthor_of", "dbUllman"))
	res := mustRun(t, db, `
		triple(?X, is_coauthor_of, ?Y) ->
			exists ?Z pub(?X, ?Z), pub(?Y, ?Z).
	`, Options{})
	pubs := res.Instance.AtomsOf("pub")
	if len(pubs) != 2 {
		t.Fatalf("pub atoms = %v", pubs)
	}
	// Both authors share the same invented null.
	if pubs[0].Args[1] != pubs[1].Args[1] {
		t.Errorf("shared existential differs: %v vs %v", pubs[0], pubs[1])
	}
	if !pubs[0].Args[1].IsNull() {
		t.Error("second position should be a null")
	}
}

func TestChaseSkolemReusesNulls(t *testing.T) {
	// Two derivations of the same trigger must not invent two nulls.
	db := NewInstance(atom("a", "c"), atom("b", "c"))
	res := mustRun(t, db, `
		a(?X) -> s(?X).
		b(?X) -> s(?X).
		s(?X) -> exists ?Z e(?X, ?Z).
	`, Options{})
	if got := len(res.Instance.AtomsOf("e")); got != 1 {
		t.Errorf("e atoms = %d, want 1 (Skolem reuse)", got)
	}
	if res.Stats.NullsInvented != 1 {
		t.Errorf("nulls invented = %d, want 1", res.Stats.NullsInvented)
	}
}

func TestChaseSkolemKeysNumberRulesAcrossStrata(t *testing.T) {
	// The two existential rules are each the first rule of their stratum and
	// fire under the same frontier binding; they are different Skolem
	// functions all the same, so r and t never share a null and q stays empty.
	res := mustRun(t, NewInstance(atom("p", "a")), `
		p(?X) -> exists ?Z r(?X, ?Z).
		p(?X), not s(?X) -> exists ?Z t(?X, ?Z).
		r(?X, ?Z), t(?X, ?Z) -> q(?X).
	`, Options{})
	r, tt := res.Instance.AtomsOf("r"), res.Instance.AtomsOf("t")
	if len(r) != 1 || len(tt) != 1 || res.Stats.NullsInvented != 2 {
		t.Fatalf("r = %v, t = %v, %d nulls; want one atom each over two nulls", r, tt, res.Stats.NullsInvented)
	}
	if r[0].Args[1] == tt[0].Args[1] {
		t.Errorf("r and t share the null %v", r[0].Args[1])
	}
	if q := res.Instance.AtomsOf("q"); len(q) != 0 {
		t.Errorf("q = %v, want nothing", q)
	}
}

func TestEnumerateSkipsRuleOverEmptyRelation(t *testing.T) {
	const src = `
		p(?X), p(?Y), q(?X, ?Y) -> r(?X).
		p(?X) -> seen(?X).
	`
	var facts []datalog.Atom
	for i := 0; i < 100; i++ {
		facts = append(facts, atom("p", fmt.Sprint("c", i)))
	}
	empty := NewInstance(facts...)
	// One q fact that joins nothing keeps the rule in play: the unskipped run.
	inPlay := NewInstance(append(facts, atom("q", "z", "z"))...)
	skipped, unskipped := mustRun(t, empty, src, Options{}).Stats, mustRun(t, inPlay, src, Options{}).Stats
	for i := range skipped.PerRule {
		skipped.PerRule[i].Time, unskipped.PerRule[i].Time = 0, 0
	}
	if !reflect.DeepEqual(skipped, unskipped) {
		t.Errorf("stats with q empty:\n%v\nwith q in play:\n%v", skipped, unskipped)
	}

	// Enumeration polls the context every 64 candidates, so under a canceled
	// one it fails exactly when it visits that many. Over the empty q it
	// visits none of the hundred p facts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		db      *Instance
		visited bool
	}{{empty, false}, {inPlay, true}} {
		e, err := prepare(ctx, c.db.Overlay(), datalog.MustParse(src), Options{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		err = e.enumerate(e.strata[0].comp[0], nil, &e.found)
		if visited := err != nil; visited != c.visited || e.found.n != 0 {
			t.Errorf("%d facts: visited candidates = %v (err %v), %d triggers; want %v and none",
				c.db.Len(), visited, err, e.found.n, c.visited)
		}
	}
}

func TestChaseAnonymizationGlobalBlankNodes(t *testing.T) {
	// The subject-anonymization program of Section 2: the same subject gets
	// the same blank node across all its triples (which CONSTRUCT cannot do).
	db := NewInstance(
		atom("triple", "u1", "p", "a"),
		atom("triple", "u1", "q", "b"),
		atom("triple", "u2", "p", "c"),
	)
	res := mustRun(t, db, `
		triple(?X, ?Y, ?Z) -> subj(?X).
		subj(?X) -> exists ?Y bn(?X, ?Y).
		triple(?X, ?Y, ?Z), bn(?X, ?U) -> output(?U, ?Y, ?Z).
	`, Options{})
	out := res.Instance.AtomsOf("output")
	if len(out) != 3 {
		t.Fatalf("output = %v", out)
	}
	byPred := map[string]datalog.Term{}
	for _, a := range out {
		if !a.Args[0].IsNull() {
			t.Errorf("subject not anonymized: %v", a)
		}
		key := a.Args[1].Name + "/" + a.Args[2].Name
		byPred[key] = a.Args[0]
	}
	if byPred["p/a"] != byPred["q/b"] {
		t.Error("u1's triples must share one blank node")
	}
	if byPred["p/a"] == byPred["p/c"] {
		t.Error("u1 and u2 must get distinct blank nodes")
	}
}

func TestChaseInfiniteChainTruncates(t *testing.T) {
	db := NewInstance(atom("s", "a", "b"))
	res := mustRun(t, db, `
		s(?X, ?Y) -> exists ?Z s(?Y, ?Z).
	`, Options{MaxDepth: 5})
	if !res.Stats.DepthTruncated {
		t.Error("infinite chain must hit the depth bound")
	}
	// Ground part is just the database.
	g := res.Instance.GroundPart()
	if g.Len() != 1 {
		t.Errorf("ground part = %v", g.All())
	}
	// Depth d adds exactly one null per level.
	if res.Stats.NullsInvented != 5 {
		t.Errorf("nulls = %d, want 5", res.Stats.NullsInvented)
	}
}

func TestChaseConstraints(t *testing.T) {
	db := NewInstance(atom("type", "a", "C1"), atom("type", "a", "C2"), atom("disj", "C1", "C2"))
	res := mustRun(t, db, `
		type(?X, ?Y) -> keep(?X).
		type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.
	`, Options{})
	if !res.Inconsistent {
		t.Error("disjointness violation must yield ⊤")
	}
	db2 := NewInstance(atom("type", "a", "C1"), atom("disj", "C1", "C2"))
	res = mustRun(t, db2, `
		type(?X, ?Y) -> keep(?X).
		type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.
	`, Options{})
	if res.Inconsistent {
		t.Error("consistent database flagged as ⊤")
	}
}

func TestAnswerFiltersNulls(t *testing.T) {
	db := NewInstance(atom("a", "c"))
	q := datalog.MustParseQuery(`
		a(?X) -> exists ?Z e(?X, ?Z).
		e(?X, ?Y) -> out(?X, ?Y).
	`, "out")
	ans, err := Answer(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// out(c, z) has a null → not a constant tuple → excluded per Q(D) ⊆ U^n.
	if len(ans.Tuples) != 0 {
		t.Errorf("answers = %v, want none", ans.Tuples)
	}
}

func TestAnswerInconsistent(t *testing.T) {
	db := NewInstance(atom("bad", "x"))
	q := datalog.MustParseQuery(`
		bad(?X) -> out(?X).
		bad(?X) -> false.
	`, "out")
	ans, err := Answer(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Inconsistent {
		t.Error("Q(D) should be ⊤")
	}
}

func TestAnswerHasHelpers(t *testing.T) {
	a := &Answers{Tuples: [][]datalog.Term{{datalog.C("x"), datalog.C("y")}}}
	if !a.HasConstants("x", "y") || a.HasConstants("x") || a.HasConstants("y", "x") {
		t.Error("Has helpers wrong")
	}
}

// The k-clique query of Example 4.3, end to end.
func cliqueDB(k int, nodes []string, edges [][2]string) *Instance {
	db := NewInstance()
	for _, n := range nodes {
		db.Add(atom("node0", n))
	}
	for _, e := range edges {
		db.Add(atom("edge0", e[0], e[1]))
		db.Add(atom("edge0", e[1], e[0]))
	}
	digits := []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"}
	for i := 0; i < k; i++ {
		db.Add(atom("succ0", digits[i], digits[i+1]))
	}
	return db
}

const cliqueSrc = `
	succ0(?X, ?Y) -> less0(?X, ?Y).
	succ0(?X, ?Y), less0(?Y, ?Z) -> less0(?X, ?Z).
	less0(?X, ?Y) -> not_max(?X).
	less0(?X, ?Y) -> not_min(?Y).
	less0(?X, ?Y), not not_min(?X) -> zero0(?X).
	less0(?Y, ?X), not not_max(?X) -> max0(?X).
	node0(?X) -> node(?X).
	edge0(?X, ?Y) -> edge(?X, ?Y).
	succ0(?X, ?Y) -> succ(?X, ?Y).
	less0(?X, ?Y) -> less(?X, ?Y).
	zero0(?X) -> zero(?X).
	max0(?X) -> max(?X).
	zero(?X) -> exists ?Y ism(?Y, ?X).
	ism(?X, ?Y), succ(?Y, ?Z), node(?W) ->
		exists ?U next(?X, ?W, ?U), ism(?U, ?Z), map(?U, ?Z, ?W).
	next(?X, ?Y, ?Z), map(?X, ?U, ?V) -> map(?Z, ?U, ?V).
	less(?X, ?Y), map(?Z, ?X, ?W), map(?Z, ?Y, ?U), not edge(?W, ?U) -> noclique(?Z).
	less(?X, ?Y), map(?Z, ?X, ?W), map(?Z, ?Y, ?W) -> noclique(?Z).
	ism(?X, ?Y), max(?Y), not noclique(?X) -> yes().
`

func TestCliqueQueryExample43(t *testing.T) {
	q := datalog.MustParseQuery(cliqueSrc, "yes")
	cases := []struct {
		name  string
		k     int
		nodes []string
		edges [][2]string
		want  bool
	}{
		{"triangle k=3", 3, []string{"a", "b", "c"},
			[][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}}, true},
		{"path k=3", 3, []string{"a", "b", "c"},
			[][2]string{{"a", "b"}, {"b", "c"}}, false},
		{"k4 in k4 plus pendant", 4, []string{"a", "b", "c", "d", "e"},
			[][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}, {"d", "e"}}, true},
		{"k4 missing edge", 4, []string{"a", "b", "c", "d"},
			[][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}}, false},
		{"self loop is not a 2-clique twice", 3, []string{"a", "b"},
			[][2]string{{"a", "a"}, {"a", "b"}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := cliqueDB(tc.k, tc.nodes, tc.edges)
			ans, err := Answer(db, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := ans.Has()
			if got != tc.want {
				t.Errorf("k-clique = %v, want %v", got, tc.want)
			}
		})
	}
}

// Property: the chase result of a Datalog program does not depend on rule
// order.
func TestChaseRuleOrderIndependence(t *testing.T) {
	src := `
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
		tc(?X, ?X) -> cyc(?X).
		e(?X, ?Y), not cyc(?X) -> acyc(?X).
	`
	db := NewInstance(
		atom("e", "a", "b"), atom("e", "b", "c"), atom("e", "c", "a"),
		atom("e", "d", "e"),
	)
	base, err := Run(db, datalog.MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 10; round++ {
		prog := datalog.MustParse(src)
		rng.Shuffle(len(prog.Rules), func(i, j int) {
			prog.Rules[i], prog.Rules[j] = prog.Rules[j], prog.Rules[i]
		})
		res, err := Run(db, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Instance.Equal(base.Instance) {
			t.Fatalf("round %d: rule order changed the result", round)
		}
	}
}

func TestChaseMaxFacts(t *testing.T) {
	db := NewInstance(atom("n", "a"), atom("n", "b"), atom("n", "c"))
	_, err := Run(db, datalog.MustParse(`
		n(?X), n(?Y) -> pair(?X, ?Y).
	`), Options{MaxFacts: 5})
	if err == nil {
		t.Error("MaxFacts must abort the chase")
	}
}
