package chase

import (
	"testing"

	"repro/internal/datalog"
)

func TestGroundSemanticsExactOnTerminatingChase(t *testing.T) {
	db := NewInstance(atom("e", "a", "b"), atom("e", "b", "c"))
	gr, err := GroundSemantics(db, datalog.MustParse(`
		e(?X, ?Y) -> tc(?X, ?Y).
		e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z).
	`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Exact {
		t.Error("terminating chase must be exact")
	}
	if !gr.Ground.Has(atom("tc", "a", "c")) {
		t.Error("missing tc(a,c)")
	}
}

func TestStableGroundOnInfiniteWardedChase(t *testing.T) {
	// The canonical warded program with an infinite chase: ground atoms are
	// nevertheless finite. e(a,b); e(X,Y) → ∃Z e(Y,Z); e(X,Y),g(Y) → out(X).
	db := NewInstance(atom("e", "a", "b"), atom("g", "b"))
	prog := datalog.MustParse(`
		e(?X, ?Y) -> exists ?Z e(?Y, ?Z).
		e(?X, ?Y), g(?Y) -> out(?X).
	`)
	if err := datalog.CheckWarded(prog); err != nil {
		t.Fatalf("test program should be warded: %v", err)
	}
	gr, err := StableGround(db, prog, Options{MaxDepth: 40}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Inconsistent {
		t.Fatal("unexpected ⊤")
	}
	if !gr.Ground.Has(atom("out", "a")) {
		t.Error("out(a) missing")
	}
	if gr.Ground.Has(atom("out", "b")) {
		t.Error("out(b) must not be derivable: g holds only for b, e(b,·) leads to nulls")
	}
	// e's ground part is only the database edge.
	if got := len(gr.Ground.AtomsOf("e")); got != 1 {
		t.Errorf("ground e atoms = %d, want 1", got)
	}
}

func TestStableGroundDetectsNewGroundAtomsAtDepth(t *testing.T) {
	// Ground atoms that require chasing through several null levels:
	// a(c) → ∃Z1 p1; p1 → ∃Z2 p2; p2(X,…) joined back on the constant.
	db := NewInstance(atom("a", "c"))
	prog := datalog.MustParse(`
		a(?X) -> exists ?Z p(?X, ?Z).
		p(?X, ?Z) -> exists ?W q(?X, ?Z, ?W).
		q(?X, ?Z, ?W) -> found(?X).
	`)
	gr, err := StableGround(db, prog, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Exact {
		t.Error("acyclic program should terminate exactly")
	}
	if !gr.Ground.Has(atom("found", "c")) {
		t.Error("found(c) missing")
	}
}

func TestStableGroundInconsistency(t *testing.T) {
	db := NewInstance(atom("a", "c"))
	prog := datalog.MustParse(`
		a(?X) -> exists ?Z p(?X, ?Z).
		p(?X, ?Z) -> false.
	`)
	gr, err := StableGround(db, prog, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Inconsistent {
		t.Error("constraint over null-carrying atom should fire")
	}
}

func TestStableGroundGivesUpAtCeiling(t *testing.T) {
	// A program whose ground part keeps growing with depth (not warded:
	// the invented null feeds a counter joined with constants). StableGround
	// must stop at the ceiling rather than loop forever.
	db := NewInstance(atom("s", "a", "b"), atom("c", "a"))
	prog := datalog.MustParse(`
		s(?X, ?Y) -> exists ?Z s(?Y, ?Z).
		s(?X, ?Y), c(?W) -> reach(?W, ?X).
	`)
	gr, err := StableGround(db, prog, Options{MaxDepth: 6}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Exact {
		t.Error("infinite chase cannot be exact")
	}
	if gr.Depth > 6 {
		t.Errorf("depth %d exceeded ceiling", gr.Depth)
	}
}

func TestStableGroundHonorsMaxDepthOne(t *testing.T) {
	// Deepening used to start at depth 2 whatever the ceiling, so a ceiling
	// of 1 invented the null of a null.
	db := NewInstance(atom("p", "a"))
	prog := datalog.MustParse(`
		p(?X) -> exists ?Y r(?X, ?Y).
		r(?X, ?Y) -> p(?Y).
	`)
	opts := Options{MaxDepth: 1}
	res, err := Run(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := StableGround(db, prog, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Depth != 1 || gr.Stats.NullsInvented != res.Stats.NullsInvented || res.Stats.NullsInvented != 1 {
		t.Errorf("StableGround at MaxDepth 1: depth %d, %d nulls; Run invents %d",
			gr.Depth, gr.Stats.NullsInvented, res.Stats.NullsInvented)
	}
}
