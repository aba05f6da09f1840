package main

import (
	"strings"
	"testing"
)

func lines(s string) int { return strings.Count(s, "\n") }

func TestGenerateIsDeterministic(t *testing.T) {
	a, b := generate(7), generate(7)
	if a.T != b.T || a.U != b.U || a.D != b.D || a.lookupQuery() != b.lookupQuery() || a.batch(3) != b.batch(3) {
		t.Fatal("the same seed gave different inputs")
	}
	if a.closure != b.closure || a.persons != b.persons || a.contacts != b.contacts {
		t.Fatal("the same seed gave different oracles")
	}
}

func TestSeedChangesNamesNotShapes(t *testing.T) {
	a, b := generate(1), generate(2)
	if a.T == b.T || a.U == b.U || a.D == b.D || a.lookupQuery() == b.lookupQuery() || a.batch(0) == b.batch(0) {
		t.Fatal("two seeds gave the same inputs")
	}
	for _, in := range []*inputs{a, b} {
		if got := lines(in.T); got != 128 {
			t.Errorf("seed %d: T has %d triples, want 128", in.seed, got)
		}
		if got := lines(in.U); got != 66+40 {
			t.Errorf("seed %d: U has %d triples, want 106", in.seed, got)
		}
		if got := lines(in.D); got != 128+2*nPeople+3 {
			t.Errorf("seed %d: D has %d triples, want %d", in.seed, got, 128+2*nPeople+3)
		}
		if got := lines(in.batch(5)); got != batchTriples {
			t.Errorf("seed %d: a batch has %d triples, want %d", in.seed, got, batchTriples)
		}
		if in.closure.n != 3240 || in.persons.n != 32 || in.contacts.n != 2 {
			t.Errorf("seed %d: answers %d/%d/%d, want 3240/32/2", in.seed, in.closure.n, in.persons.n, in.contacts.n)
		}
		if got := in.closureWithSpur(4).n; got != 3240+nCities {
			t.Errorf("seed %d: closure with a spur has %d rows, want %d", in.seed, got, 3240+nCities)
		}
	}
	if a.closure.sum == b.closure.sum {
		t.Error("two seeds gave the same closure rows")
	}
}

func TestClosureAtFollowsTheWriter(t *testing.T) {
	in := generate(3)
	if in.closureAt(1) != in.closure || in.closureAt(3) != in.closure {
		t.Error("odd epochs follow a delete and must hold the plain closure")
	}
	if in.closureAt(2) != in.closureWithSpur(0) || in.closureAt(8) != in.closureWithSpur(3) {
		t.Error("epoch 2k+2 follows the insert of batch k")
	}
}
