package chase

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datalog"
)

func atom(pred string, names ...string) datalog.Atom {
	args := make([]datalog.Term, len(names))
	for i, n := range names {
		args[i] = datalog.C(n)
	}
	return datalog.NewAtom(pred, args...)
}

func TestInstanceAddHasLen(t *testing.T) {
	i := NewInstance()
	a := atom("p", "a", "b")
	if !i.Add(a) || i.Add(a) {
		t.Error("Add should report newness")
	}
	if !i.Has(a) || i.Has(atom("p", "b", "a")) {
		t.Error("Has wrong")
	}
	if i.Len() != 1 {
		t.Errorf("Len = %d", i.Len())
	}
}

func TestInstanceRejectsVariables(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add of non-ground atom should panic")
		}
	}()
	NewInstance().Add(datalog.NewAtom("p", datalog.V("X")))
}

func TestInstanceLookup(t *testing.T) {
	i := NewInstance(
		atom("p", "a", "b"),
		atom("p", "a", "c"),
		atom("p", "b", "c"),
		atom("q", "a"),
	)
	if got := len(i.Lookup("p", 0, datalog.C("a"))); got != 2 {
		t.Errorf("Lookup p[1]=a returned %d", got)
	}
	if got := len(i.Lookup("p", 1, datalog.C("c"))); got != 2 {
		t.Errorf("Lookup p[2]=c returned %d", got)
	}
	if got := len(i.Lookup("p", 0, datalog.C("z"))); got != 0 {
		t.Errorf("Lookup missing returned %d", got)
	}
	if got := len(i.AtomsOf("p")); got != 3 {
		t.Errorf("AtomsOf(p) = %d", got)
	}
}

func TestInstanceGroundPartAndNulls(t *testing.T) {
	i := NewInstance(
		atom("p", "a"),
		datalog.NewAtom("p", datalog.N("z0")),
		datalog.NewAtom("q", datalog.C("a"), datalog.N("z1")),
	)
	g := i.GroundPart()
	if g.Len() != 1 || !g.Has(atom("p", "a")) {
		t.Errorf("GroundPart = %v", g.All())
	}
	if got := i.Nulls(); len(got) != 2 {
		t.Errorf("Nulls = %v", got)
	}
	if got := i.Constants(); len(got) != 1 || got[0] != datalog.C("a") {
		t.Errorf("Constants = %v", got)
	}
}

func TestInstanceCloneEqual(t *testing.T) {
	i := NewInstance(atom("p", "a"), atom("q", "b"))
	j := i.Clone()
	if !i.Equal(j) {
		t.Error("clone not equal")
	}
	j.Add(atom("r", "c"))
	if i.Equal(j) {
		t.Error("modified clone still equal")
	}
	k := NewInstance(atom("p", "a"), atom("q", "c"))
	if i.Equal(k) {
		t.Error("different same-size instances equal")
	}
}

func TestInstanceSortedDeterministic(t *testing.T) {
	i := NewInstance(atom("q", "b"), atom("p", "z"), atom("p", "a"))
	s := i.Sorted()
	for k := 1; k < len(s); k++ {
		if s[k-1].Compare(s[k]) >= 0 {
			t.Fatalf("Sorted not strictly increasing: %v", s)
		}
	}
	if i.String() == "" {
		t.Error("String empty")
	}
}

func TestFromFacts(t *testing.T) {
	if _, err := FromFacts([]datalog.Atom{datalog.NewAtom("p", datalog.N("z"))}); err == nil {
		t.Error("null in database should be rejected")
	}
	i, err := FromFacts([]datalog.Atom{atom("p", "a")})
	if err != nil || i.Len() != 1 {
		t.Errorf("FromFacts = %v, %v", i, err)
	}
}

// dictOf is the Dict of the named constants, numbered by position.
func dictOf(names ...string) *Dict {
	consts := make([]datalog.Term, len(names))
	ids := make(map[datalog.Term]uint32, len(names))
	for id, n := range names {
		consts[id] = datalog.C(n)
		ids[consts[id]] = uint32(id)
	}
	return NewDict(consts, ids)
}

// TestFromRows pins that the row constructor over distinct rows is
// NewInstance of the decoded atoms, and that it refuses rows it cannot cut.
// Repeated rows are the encoder's to drop (owl's TestEncodingMatchesGraphToDB).
func TestFromRows(t *testing.T) {
	dict := dictOf("a", "b", "c")
	rows := []uint32{0, 1, 2, 0, 0, 2, 1, 1}
	got := FromRows("e", dict, 2, rows)
	want := NewInstance(atom("e", "a", "b"), atom("e", "c", "a"), atom("e", "a", "c"), atom("e", "b", "b"))
	if got.String() != want.String() || got.Len() != 4 || len(got.Lookup("e", 0, datalog.C("a"))) != 2 {
		t.Fatalf("FromRows = %v, want %v", got, want)
	}
	if !got.Has(atom("e", "b", "b")) || got.Has(atom("e", "b", "a")) {
		t.Fatal("FromRows answers Has wrongly")
	}
	defer func() {
		if recover() == nil {
			t.Error("FromRows with a partial last row should panic")
		}
	}()
	FromRows("e", dict, 2, []uint32{0, 1, 2})
}

// TestNewDict pins that a dictionary refuses what no database holds, and a map
// that does not invert its constants.
func TestNewDict(t *testing.T) {
	a, b, z := datalog.C("a"), datalog.C("b"), datalog.N("z")
	if d := dictOf("a", "b"); !slices.Equal(d.Terms(), []datalog.Term{a, b}) || d.ids[b] != 1 {
		t.Fatalf("dictOf(a, b) = %v, %v", d.Terms(), d.ids)
	}
	for name, bad := range map[string]func(){
		"a null":                  func() { NewDict([]datalog.Term{z}, map[datalog.Term]uint32{z: 0}) },
		"a constant twice":        func() { NewDict([]datalog.Term{a, a}, map[datalog.Term]uint32{a: 0}) },
		"a map of other ids":      func() { NewDict([]datalog.Term{a, b}, map[datalog.Term]uint32{a: 1, b: 0}) },
		"a map of more constants": func() { NewDict([]datalog.Term{a}, map[datalog.Term]uint32{a: 0, b: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDict with %s should panic", name)
				}
			}()
			bad()
		}()
	}
}

// TestDictSharedByInstances pins that instances loaded from one Dict share
// nothing they write: each numbers its own terms from the dictionary's size
// on, a layer over one resolves the dictionary through its base, and a chase
// over one is the chase over the decoded atoms.
func TestDictSharedByInstances(t *testing.T) {
	dict := dictOf("a", "b", "c")
	rows := []uint32{0, 1, 1, 2, 2, 0}
	decoded := []datalog.Atom{atom("e", "a", "b"), atom("e", "b", "c"), atom("e", "c", "a")}
	own := len(dict.Terms())

	x, y := FromRows("e", dict, 2, rows), FromRows("e", dict, 2, rows)
	m := x.mark()
	fx, fy := atom("e", "a", "x"), atom("e", "y", "b")
	if !x.Add(fx) || !y.Add(fy) {
		t.Fatal("a new fact was not added")
	}
	if id, _ := x.termOf(datalog.C("x"), false); id != uint32(own) {
		t.Errorf("x's first own term got id %d, want %d", id, own)
	}
	if id, _ := y.termOf(datalog.C("y"), false); id != uint32(own) {
		t.Errorf("y's first own term got id %d, want %d", id, own)
	}
	if x.Has(fy) || y.Has(fx) || !x.Has(fx) || !y.Has(fy) {
		t.Error("one load sees the other's fact, or misses its own")
	}
	if got, want := fmt.Sprint(x.All()), fmt.Sprint(append(decoded[:3:3], fx)); got != want {
		t.Errorf("x holds %s, want %s", got, want)
	}
	x.truncate(m)
	if x.Has(fx) || x.Len() != 3 {
		t.Fatalf("truncate kept %v", fx)
	}
	x.Add(atom("e", "z", "a"))
	if id, _ := x.termOf(datalog.C("z"), false); id != uint32(own) {
		t.Errorf("after truncate the next own term got id %d, want %d back", id, own)
	}
	if len(dict.Terms()) != own || len(dict.ids) != own {
		t.Fatal("interning wrote into the shared dictionary")
	}

	// A layer over a load with a term of its own: the dictionary's ids, then
	// the base's own, then the layer's.
	base := FromRows("e", dict, 2, rows)
	base.Add(atom("e", "a", "w"))
	l := base.Overlay()
	if !l.Add(atom("e", "a", "v")) || l.Add(atom("e", "c", "a")) || l.Add(atom("e", "a", "w")) {
		t.Fatal("the layer misjudged which facts its base holds")
	}
	for name, want := range map[string]uint32{"b": 1, "w": uint32(own), "v": uint32(own + 1)} {
		if id, _ := l.termOf(datalog.C(name), false); id != want {
			t.Errorf("the layer resolves %s to %d, want %d", name, id, want)
		}
	}
	ref := NewInstance(append(decoded[:3:3], atom("e", "a", "w"), atom("e", "a", "v"))...)
	for _, name := range []string{"a", "b", "c", "w", "v"} {
		for pos := range 2 {
			got, want := l.Lookup("e", pos, datalog.C(name)), ref.Lookup("e", pos, datalog.C(name))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("Lookup(e, %d, %s) = %v, want %v", pos, name, got, want)
			}
		}
	}

	prog := datalog.MustParse(nullProgram)
	for name, db := range map[string]*Instance{"a load": FromRows("e", dict, 2, rows), "a load with an own term": base} {
		got, err := RunCtx(context.Background(), db, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunCtx(context.Background(), NewInstance(db.All()...), prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.NullsInvented == 0 {
			t.Fatalf("%s: the chase invented no null", name)
		}
		if got.Instance.String() != want.Instance.String() || !reflect.DeepEqual(normStats(got.Stats), normStats(want.Stats)) {
			t.Errorf("%s: the chase over it is\n%v%+v\nwant\n%v%+v", name, got.Instance, got.Stats, want.Instance, want.Stats)
		}
	}
}
