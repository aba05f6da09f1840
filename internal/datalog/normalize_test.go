package datalog

import "testing"

func TestSingleHead(t *testing.T) {
	p := MustParse(`
		triple(?X, is_coauthor_of, ?Y) ->
			exists ?Z triple2(?X, is_author_of, ?Z), triple2(?Y, is_author_of, ?Z).
	`)
	q := SingleHead(p)
	if len(q.Rules) != 3 {
		t.Fatalf("SingleHead rules = %d, want 3:\n%s", len(q.Rules), q)
	}
	for _, r := range q.Rules {
		if len(r.Head) != 1 {
			t.Errorf("rule %v still multi-head", r)
		}
	}
	// The aux rule carries frontier + existential variables.
	aux := q.Rules[0]
	if len(aux.Head[0].Args) != 3 { // ?X, ?Y, ?Z
		t.Errorf("aux head = %v, want 3 args", aux.Head[0])
	}
	// Single-head rules pass through untouched.
	simple := MustParse(`p(?X) -> q(?X).`)
	if out := SingleHead(simple); len(out.Rules) != 1 || out.Rules[0].Head[0].Pred != "q" {
		t.Errorf("single-head rule modified: %v", out)
	}
}

func TestSingleHeadPreservesConstraints(t *testing.T) {
	p := MustParse(`
		p(?X) -> q(?X), r(?X).
		q(?X), r(?X) -> false.
	`)
	q := SingleHead(p)
	if len(q.Constraints) != 1 {
		t.Errorf("constraints lost: %v", q.Constraints)
	}
}

func TestSingleExistential(t *testing.T) {
	p := MustParse(`b(?X, ?Y) -> exists ?Z1 exists ?Z2 h(?X, ?Z1, ?Z2).`)
	q := SingleExistential(p)
	if len(q.Rules) != 3 {
		t.Fatalf("SingleExistential rules = %d, want 3:\n%s", len(q.Rules), q)
	}
	for _, r := range q.Rules {
		ex := r.ExistentialVars()
		if len(ex) > 1 {
			t.Errorf("rule %v still has %d existential variables", r, len(ex))
		}
		if len(ex) == 1 && countVar(r.Head[0], ex[0]) > 1 {
			t.Errorf("rule %v repeats its existential variable", r)
		}
	}
	// A repeated existential occurrence must also be normalized.
	rep := MustParse(`b(?X) -> exists ?Z h(?Z, ?Z).`)
	qq := SingleExistential(rep)
	if len(qq.Rules) != 2 {
		t.Fatalf("repeated-occurrence rules = %d, want 2:\n%s", len(qq.Rules), qq)
	}
	// Rules with ≤1 existential occurrence pass through.
	ok := MustParse(`b(?X) -> exists ?Z h(?X, ?Z).`)
	if out := SingleExistential(ok); len(out.Rules) != 1 {
		t.Errorf("simple existential rule modified:\n%s", out)
	}
}

func TestIsHeadGroundedAndSemiBodyGrounded(t *testing.T) {
	p := MustParse(`
		a(?X) -> exists ?Z e(?X, ?Z).
		e(?X, ?Y), e(?Y, ?Z) -> e(?X, ?Z).
		a(?X), a(?Y) -> f(?X, ?Y).
	`)
	an := Analyze(p)
	// Rule 3 over harmless variables is head-grounded.
	if !IsHeadGrounded(an, p.Rules[2]) {
		t.Error("all-harmless rule should be head-grounded")
	}
	// Rule 2's head carries the harmful ?Z → not head-grounded…
	if IsHeadGrounded(an, p.Rules[1]) {
		t.Error("rule with harmful head variable should not be head-grounded")
	}
	// …but only e(?Y,?Z) holds a harmful variable (?Y is anchored at the
	// non-affected e[1]), so the rule is semi-body-grounded.
	if !IsSemiBodyGrounded(an, p.Rules[1]) {
		t.Error("existential TC rule should be semi-body-grounded")
	}
	if !IsSemiBodyGrounded(an, p.Rules[0]) {
		t.Error("single-atom body is trivially semi-body-grounded")
	}
	// A rule with two genuinely harmful body atoms is not semi-body-grounded.
	q := MustParse(`
		a(?X) -> exists ?Z s(?X, ?Z).
		s(?X, ?Y) -> s(?Y, ?X).
		s(?X, ?Y), s(?X, ?W), a(?X) -> h(?X, ?Y).
	`)
	an2 := Analyze(q)
	if IsSemiBodyGrounded(an2, q.Rules[2]) {
		t.Error("two harmful body atoms should not be semi-body-grounded")
	}
	if IsHeadGrounded(an2, q.Rules[2]) {
		t.Error("harmful ?Y in the head should not be head-grounded")
	}
}

func TestHeadGroundedSplit(t *testing.T) {
	// The last rule is neither head-grounded (harmful ?Y in the head) nor
	// semi-body-grounded (two body atoms with harmful variables), so it must
	// be split into a head-grounded collector and a semi-body-grounded rule.
	p := MustParse(`
		a(?X) -> exists ?Z s(?X, ?Z).
		s(?X, ?Y) -> s(?Y, ?X).
		s(?X, ?Y), s(?X, ?W), a(?X) -> h(?X, ?Y).
	`)
	q, err := HeadGroundedSplit(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rules) != 4 {
		t.Fatalf("split rules = %d, want 4:\n%s", len(q.Rules), q)
	}
	an := Analyze(q)
	for _, r := range q.Rules {
		if !IsHeadGrounded(an, r) && !IsSemiBodyGrounded(an, r) {
			t.Errorf("rule %v is neither head-grounded nor semi-body-grounded", r)
		}
	}
	// The split program must still be warded.
	if err := CheckWarded(q); err != nil {
		t.Errorf("split program not warded: %v", err)
	}
}

func TestHeadGroundedSplitRejectsUnwarded(t *testing.T) {
	p := MustParse(`
		a(?X) -> exists ?Z s(?X, ?Z).
		s(?X, ?Y) -> s(?Y, ?X).
		s(?X, ?Y), s(?Y, ?W) -> h(?X).
	`)
	if _, err := HeadGroundedSplit(p); err == nil {
		t.Error("unwarded program should be rejected")
	}
}

func TestNormalizeForProofTree(t *testing.T) {
	p := MustParse(example610Src)
	q, err := NormalizeForProofTree(p)
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(q)
	for _, r := range q.Rules {
		if len(r.Head) != 1 {
			t.Errorf("rule %v not single-head", r)
		}
		if len(r.ExistentialVars()) > 1 {
			t.Errorf("rule %v has several existentials", r)
		}
		if !IsHeadGrounded(an, r) && !IsSemiBodyGrounded(an, r) {
			t.Errorf("rule %v not normalized", r)
		}
	}
}

func TestReduceConstraints(t *testing.T) {
	q := MustParseQuery(`
		p(?X) -> out(?X).
		p(?X), bad(?X) -> false.
	`, "out")
	r := ReduceConstraints(q)
	if len(r.Program.Constraints) != 0 {
		t.Error("constraints should be gone")
	}
	if len(r.Program.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(r.Program.Rules))
	}
	star := r.Program.Rules[1].Head[0]
	if star.Pred != "out" || star.Args[0] != C(StarConstant) {
		t.Errorf("⋆-rule head = %v", star)
	}
	// Constraint-free queries pass through unchanged.
	noc := MustParseQuery(`p(?X) -> out(?X).`, "out")
	if got := ReduceConstraints(noc); got.Program != noc.Program {
		t.Error("constraint-free query should be returned as-is")
	}
}

func TestStarTuple(t *testing.T) {
	st := StarTuple(3)
	if len(st) != 3 || st[0] != C(StarConstant) {
		t.Errorf("StarTuple = %v", st)
	}
	if len(StarTuple(0)) != 0 {
		t.Error("StarTuple(0) should be empty")
	}
}

func TestFreshPredicatesAvoidClashes(t *testing.T) {
	p := MustParse(`p(?X) -> exists ?Y1 exists ?Y2 "p#0"(?X, ?Y1, ?Y2).`)
	q := SingleExistential(p)
	sch, err := q.Schema()
	if err != nil {
		t.Fatal(err)
	}
	// The normalizer must have skipped the occupied name p#0.
	count := 0
	for pred := range sch {
		if pred == "p#0" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("schema = %v", sch)
	}
	if _, ok := sch["p#1"]; !ok {
		t.Errorf("expected fresh predicate p#1 in %v", sch)
	}
}
