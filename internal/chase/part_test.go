package chase

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/obs"
)

// partLibrary is a library whose database part is its first three rules: the
// closure of e into r and the loops of r. The existential rule, and the rule
// reading what it derives, are outside the part.
var partLibrary = datalog.NewLibrary(datalog.MustParse(`
e(?X, ?Y) -> r(?X, ?Y).
r(?X, ?Y), r(?Y, ?Z) -> r(?X, ?Z).
r(?X, ?X) -> loop(?X).
loop(?X) -> exists ?Z s(?X, ?Z).
s(?X, ?Z) -> t(?X).
`))

// ringLoad returns a load of a ring of n e-edges and a chord, the way a
// graph's encoding is loaded: every call over one Dict and one set of rows.
func ringLoad(n int) func() *Instance {
	names := make([]string, n)
	var rows []uint32
	for k := range n {
		names[k] = fmt.Sprint("v", k)
		rows = append(rows, uint32(k), uint32((k+1)%n))
	}
	rows = append(rows, 0, uint32(n/2))
	dict := dictOf(names...)
	return func() *Instance { return FromRows("e", dict, 2, rows) }
}

func TestDatabasePartOfLibrary(t *testing.T) {
	var got []string
	for _, r := range partLibrary.DatabasePart() {
		got = append(got, r.String())
	}
	want := []string{"e(?X, ?Y) -> r(?X, ?Y).", "r(?X, ?Y), r(?Y, ?Z) -> r(?X, ?Z).", "r(?X, ?X) -> loop(?X)."}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("database part %q, want %q", got, want)
	}
	for pred, read := range map[string]bool{"e": true, "r": true, "loop": false, "s": false} {
		if partLibrary.ReadByDatabasePart(pred) != read {
			t.Errorf("ReadByDatabasePart(%s) = %v, want %v", pred, !read, read)
		}
	}
}

// TestLibraryBaseConcurrentFirstBuild races 32 evaluations of one composed
// program over loads of one encoding into the first build of the library
// base: one of them builds it, every other finds it, and all of them answer
// what the ordinary path answers over a copy of the load, with the same Stats
// whether they built the base or found it, the part's rules taking no turn.
func TestLibraryBaseConcurrentFirstBuild(t *testing.T) {
	load := ringLoad(40)
	prog := datalog.Compose(datalog.MustParse(`t(?X), r(?X, ?Y) -> query(?X, ?Y).`), partLibrary, true, "")
	if prog.Composed() == nil {
		t.Fatal("the program takes the from-scratch path")
	}
	outcome := func(gr *GroundResult, err error) string {
		if err != nil {
			return err.Error()
		}
		st := gr.Stats
		for i := range st.PerRule {
			st.PerRule[i].Time = 0
		}
		return fmt.Sprintf("%v %d %v\n%s", gr.Exact, gr.Depth, st, gr.Ground())
	}
	o := obs.New()
	const goroutines = 32
	got := make([]string, goroutines)
	bases := make([]*LibraryBase, goroutines)
	var wg sync.WaitGroup
	for i := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gr, err := StableGroundCtx(context.Background(), load(), prog, Options{Obs: o})
			got[i] = outcome(gr, err)
			if gr != nil {
				bases[i] = gr.LibraryBase
			}
		}()
	}
	wg.Wait()
	built := 0
	for i, lb := range bases {
		if lb == nil {
			t.Fatalf("goroutine %d did not start from the library base", i)
		}
		if lb.Built {
			built++
		}
		if got[i] != got[0] {
			t.Errorf("goroutine %d answered\n%s\ngoroutine 0\n%s", i, got[i], got[0])
		}
	}
	if n := o.Registry().Counter("chase.library_base_builds"); built != 1 || n != 1 {
		t.Errorf("%d evaluations report a build, %d counted; want 1 and 1", built, n)
	}
	gr, err := StableGroundCtx(context.Background(), load(), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ordinary, err := StableGroundCtx(context.Background(), load().Clone(), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Ground().Equal(ordinary.Ground()) || gr.Exact != ordinary.Exact || gr.Depth != ordinary.Depth ||
		gr.Stats.NullsInvented != ordinary.Stats.NullsInvented || ordinary.LibraryBase != nil {
		t.Errorf("over the base: %s\nthe ordinary path: %s", outcome(gr, nil), outcome(ordinary, nil))
	}
	for i, rs := range gr.Stats.PerRule {
		if i < len(partLibrary.DatabasePart()) && (rs.TriggersAttempted != 0 || rs.FactsDerived != 0) {
			t.Errorf("rule #%d %s of the database part took a turn: %+v", rs.Index, rs.Rule, rs)
		}
	}
}

// TestLibraryBaseDeclines: an instance that is not an untouched load of an
// encoding, or that holds facts of a predicate the database part reads, is
// chased whole.
func TestLibraryBaseDeclines(t *testing.T) {
	load := ringLoad(8)
	prog := datalog.Compose(datalog.MustParse(`t(?X), r(?X, ?Y) -> query(?X, ?Y).`), partLibrary, true, "")
	written := load()
	written.Add(atom("e", "v1", "v5"))
	partRead, partUnread := load(), load()
	partRead.Add(atom("r", "v1", "v5"))
	partUnread.Add(atom("t", "v3"))
	for _, c := range []struct {
		name string
		db   *Instance
		base bool
	}{
		{"load", load(), true},
		{"clone", load().Clone(), false},
		{"layer", load().Overlay(), false},
		{"written", written, false},
		{"by hand", NewInstance(atom("e", "v0", "v1")), false},
		{"a fact the part reads", partRead, false},
		{"a fact the part does not read", partUnread, true},
	} {
		gr, err := StableGroundCtx(context.Background(), c.db, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if (gr.LibraryBase != nil) != c.base {
			t.Errorf("%s: library base %+v, want one: %v", c.name, gr.LibraryBase, c.base)
		}
		ordinary, err := StableGroundCtx(context.Background(), c.db.Clone(), prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !gr.Ground().Equal(ordinary.Ground()) {
			t.Errorf("%s: ground part\n%s\nthe ordinary path\n%s", c.name, gr.Ground(), ordinary.Ground())
		}
	}
	if gr, err := StableGroundCtx(context.Background(), load(), prog, Options{MaxFacts: load().Len() + 2}); err == nil || gr.LibraryBase != nil {
		t.Errorf("a fact budget the base does not fit: error %v, library base %+v; want a trip on the ordinary path", err, gr.LibraryBase)
	}
}
