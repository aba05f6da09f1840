package workload

import (
	"context"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/triq"
)

func TestTransportGenerator(t *testing.T) {
	db := Transport(3, 2, 4)
	// 3 lines × 3 legs = 9 city edges; 3 lines × 2 partOf levels = 6.
	if db.Len() != 15 {
		t.Errorf("facts = %d, want 15:\n%s", db.Len(), db)
	}
	n := TransportCityCount(3, 4)
	if n != 10 {
		t.Errorf("cities = %d, want 10", n)
	}
	res, err := triq.EvalCtx(context.Background(), db, TransportQuery(), triq.TriQLite10, triq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All cities lie on one directed route: n(n-1)/2 ordered reachable pairs.
	want := n * (n - 1) / 2
	if len(res.Answers.Tuples) != want {
		t.Errorf("connections = %d, want %d", len(res.Answers.Tuples), want)
	}
	if !res.Answers.HasConstants("city_0", "city_9") {
		t.Error("end-to-end connection missing")
	}
}

func TestTransportQueryIsTriQLite(t *testing.T) {
	if err := triq.Validate(TransportQuery(), triq.TriQLite10); err != nil {
		t.Errorf("transport query should be TriQ-Lite 1.0: %v", err)
	}
}

func TestCliqueAgainstOracle(t *testing.T) {
	q := CliqueQuery()
	if err := triq.Validate(q, triq.TriQ10); err != nil {
		t.Fatalf("clique query should be TriQ 1.0: %v", err)
	}
	for seed := int64(0); seed < 6; seed++ {
		nodes, edges := RandomGraph(6, 0.4, seed)
		if seed%2 == 0 {
			edges = PlantClique(nodes, edges, 3)
		}
		for _, k := range []int{3, 4} {
			want := HasClique(nodes, edges, k)
			db := CliqueDB(k, nodes, edges)
			res, err := triq.EvalCtx(context.Background(), db, q, triq.TriQ10, triq.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := len(res.Answers.Tuples) > 0
			if got != want {
				t.Errorf("seed %d k=%d: program=%v oracle=%v", seed, k, got, want)
			}
		}
	}
}

func TestHasCliqueOracle(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	triangle := [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}}
	if !HasClique(nodes, triangle, 3) {
		t.Error("triangle not found")
	}
	if HasClique(nodes, triangle, 4) {
		t.Error("phantom 4-clique")
	}
	if !HasClique(nodes, nil, 1) {
		t.Error("every node is a 1-clique")
	}
	loop := [][2]string{{"a", "a"}, {"a", "b"}}
	if HasClique(nodes, loop, 3) {
		t.Error("self-loop must not fake a clique")
	}
}

func TestUGCPFamily(t *testing.T) {
	o := UGCP(4)
	if len(o.Axioms) != 6 {
		t.Errorf("axioms = %d, want 6:\n%s", len(o.Axioms), o)
	}
	r := owl.NewReasoner(o)
	// c gets a p-successor whose classes climb the whole chain.
	if !r.Member("c", owl.Some(owl.Prop("p"))) {
		t.Error("c ∈ ∃p missing")
	}
	if !r.SubClassOf(owl.Atom("a1"), owl.Atom("a4")) {
		t.Error("a1 ⊑ a4 missing")
	}
	if got := UGCPClasses(3); len(got) != 3 || got[2] != "a3" {
		t.Errorf("UGCPClasses = %v", got)
	}
}

func TestUGCPGroundConnectionGrows(t *testing.T) {
	// Lemma 6.5: the invented null is connected to n constants, so mgc grows
	// with n for the warded τ_owl2ql_core — the UGCP.
	prev := 0
	for _, n := range []int{2, 4, 8} {
		db, err := chase.FromFacts(owl.GraphToDB(UGCP(n).ToGraph()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := chase.RunCtx(context.Background(), db, owl.Program().Positive(), chase.Options{MaxDepth: 6})
		if err != nil {
			t.Fatal(err)
		}
		mgc := MaxGroundConnection(res.Instance)
		if mgc < n {
			t.Errorf("n=%d: mgc = %d, want ≥ n", n, mgc)
		}
		if mgc <= prev {
			t.Errorf("n=%d: mgc = %d did not grow beyond %d", n, mgc, prev)
		}
		prev = mgc
	}
}

func TestNearlyFrontierGuardedBoundedGroundConnection(t *testing.T) {
	// Lemma 6.6: nearly-frontier-guarded programs have bounded mgc. The
	// frontier-guarded invention below connects each null only with the
	// constants of its creating atom, however long the chain grows.
	prog := datalog.MustParse(`
		e(?X, ?Y) -> exists ?Z f(?X, ?Y, ?Z).
		e(?X, ?Y), e(?Y, ?W) -> e(?X, ?W).
	`)
	if err := datalog.CheckNearlyFrontierGuarded(prog); err != nil {
		t.Fatalf("test program should be nearly frontier-guarded: %v", err)
	}
	var last int
	for _, n := range []int{4, 8, 16} {
		res, err := chase.RunCtx(context.Background(), Chain(n), prog, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		last = MaxGroundConnection(res.Instance)
		if last > 2 {
			t.Errorf("n=%d: mgc = %d, want ≤ 2 (the creating atom's constants)", n, last)
		}
	}
}

func TestParityATMSimulator(t *testing.T) {
	m := ParityATM()
	cases := []struct {
		bits []int
		want bool
	}{
		{[]int{}, true},
		{[]int{1}, false},
		{[]int{1, 1}, true},
		{[]int{1, 0, 1}, true},
		{[]int{1, 1, 1}, false},
		{[]int{0, 0, 0}, true},
		{[]int{0, 1, 0, 0}, false},
	}
	for _, tc := range cases {
		if got := m.Accepts(ParityInput(tc.bits), 50); got != tc.want {
			t.Errorf("Accepts(%v) = %v, want %v", tc.bits, got, tc.want)
		}
	}
}

func TestATMProgramDialect(t *testing.T) {
	p := ATMProgram()
	// Theorem 6.15: the program is warded with minimal interaction…
	if err := datalog.CheckWardedMinimalInteraction(p); err != nil {
		t.Errorf("ATM program should be warded with minimal interaction: %v", err)
	}
	// …but not plain warded (that is the point of the relaxation).
	if err := datalog.CheckWarded(p); err == nil {
		t.Error("ATM program should NOT be plain warded")
	}
	if err := datalog.CheckDialect(p, datalog.WeaklyFrontierGuarded); err != nil {
		t.Errorf("ATM program should still be TriQ 1.0: %v", err)
	}
}

func TestATMReductionMatchesSimulator(t *testing.T) {
	m := ParityATM()
	q := ATMQuery()
	cases := [][]int{{}, {1}, {1, 1}, {1, 0}, {0, 1, 1}}
	for _, bits := range cases {
		input := ParityInput(bits)
		want := m.Accepts(input, 50)
		db := m.ATMDatabase(input)
		// The ATM program is outside the warded fragment, so ground
		// stabilization does not apply; run the chase to an explicit depth
		// comfortably beyond the machine's run length.
		prog := q.Program
		res, err := chase.RunCtx(context.Background(), db, prog, chase.Options{MaxDepth: len(input) + 6})
		if err != nil {
			t.Fatal(err)
		}
		got := len(res.Instance.AtomsOf("accepted")) > 0
		if got != want {
			t.Errorf("bits=%v: reduction=%v simulator=%v", bits, got, want)
		}
	}
}

func TestUniversityOntology(t *testing.T) {
	o := University(2, 2, 2, false)
	r := owl.NewReasoner(o)
	if !r.Consistent() {
		t.Fatal("university ontology should be consistent")
	}
	// The head professor works for the department via headOf ⊑ worksFor.
	if !r.Role(owl.Prop("worksFor"), "prof_0_0", "dept0") {
		t.Error("headOf should imply worksFor")
	}
	// Advised students are students, hence persons.
	if !r.Member("stud_0_0_0", owl.Atom("student")) {
		t.Error("advisee should be a student")
	}
	if !r.Member("stud_0_0_0", owl.Atom("person")) {
		t.Error("student should be a person")
	}
	// Professors teach something (anonymous course witness).
	if !r.Member("prof_1_1", owl.Some(owl.Prop("teaches"))) {
		t.Error("professor should teach something")
	}
	if len(o.Individuals()) != 2+2*2+2*2*2 {
		t.Errorf("individuals = %d", len(o.Individuals()))
	}
	// Disjoint variant stays consistent on a clean ABox.
	if !owl.NewReasoner(University(1, 1, 1, true)).Consistent() {
		t.Error("disjoint variant should be consistent")
	}
}

func TestChainGenerator(t *testing.T) {
	db := Chain(3)
	if db.Len() != 3 {
		t.Errorf("Chain(3) = %d facts", db.Len())
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	n1, e1 := RandomGraph(10, 0.3, 7)
	n2, e2 := RandomGraph(10, 0.3, 7)
	if len(n1) != len(n2) || len(e1) != len(e2) {
		t.Error("RandomGraph not deterministic")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("edge mismatch")
		}
	}
}
