package chase

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datalog"
)

// fingerprint is everything about an instance a run over it must leave
// untouched: its atoms in order, its size, and its dictionary sizes.
func fingerprint(i *Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "len=%d terms=%d preds=%d\n", i.Len(), len(i.termID), len(i.predID))
	for _, a := range i.All() {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// nullProgram invents nulls and new constants, so a run over it has new
// terms, new predicates and null-carrying atoms to keep out of its input.
const nullProgram = `
	e(?X, ?Y) -> exists ?Z s(?Y, ?Z).
	s(?X, ?Z), e(?X, ?Y) -> s(?Y, ?Z).
	s(?X, ?Z) -> seen(?X, marker).
`

func TestRunLeavesInputUntouched(t *testing.T) {
	db := NewInstance(atom("e", "a", "b"), atom("e", "b", "c"), atom("e", "c", "a"))
	prog := datalog.MustParse(nullProgram)
	before := fingerprint(db)
	res, err := Run(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NullsInvented == 0 || !res.Instance.Has(atom("seen", "a", "marker")) {
		t.Fatalf("the run derived too little to prove anything: %+v", res.Stats)
	}
	if got := fingerprint(db); got != before {
		t.Errorf("Run modified its input:\nbefore:\n%safter:\n%s", before, got)
	}
	gr, err := StableGround(db, prog, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Ground().Has(atom("seen", "b", "marker")) || len(gr.Ground().Nulls()) != 0 {
		t.Errorf("ground part wrong: %v", gr.Ground().All())
	}
	if got := fingerprint(db); got != before {
		t.Errorf("StableGround modified its input:\nbefore:\n%safter:\n%s", before, got)
	}
}

// TestSharedBaseConcurrentRuns chases 16 different programs over one base at
// once, each in one run and in a deepening evaluation that undoes a closing
// pass, resumes its engine and closes; under -race it proves a run only ever
// reads its input, also when it takes back what it wrote over it.
func TestSharedBaseConcurrentRuns(t *testing.T) {
	db := NewInstance()
	for i := 0; i < 60; i++ {
		db.Add(atom("e", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", (i*7+1)%60)))
	}
	before := fingerprint(db)
	progs := make([]*datalog.Program, 16)
	want := make([]string, len(progs))
	for k := range progs {
		progs[k] = datalog.MustParse(fmt.Sprintf(`
			e(?X, ?Y) -> p%d(?X, ?Y).
			p%d(?X, ?Y), e(?Y, ?Z) -> p%d(?X, ?Z).
			p%d(?X, ?X) -> exists ?W loop%d(?X, ?W, k%d).
			loop%d(?X, ?W, ?K) -> exists ?V loop%d(?W, ?V, ?K).
			loop%d(?X, ?W, ?K), loop%d(?W, ?V, ?K), loop%d(?V, ?U, ?K) -> deep%d(?K).
		`, k, k, k, k, k, k, k, k, k, k, k, k))
		res, err := Run(db.Clone(), progs[k], Options{})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := StableGround(db.Clone(), progs[k], Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		// deep(k) needs a null of depth 3: the passes after the probe and after
		// depth 2 derive it from a summary null and are undone, the one after
		// depth 4 finds it there.
		if steps := gr.Stats.Deepening; len(steps) != 4 || !steps[1].Resumed || !steps[2].Resumed || steps[2].NewGround != 1 || !closedByPass(gr) {
			t.Fatalf("program %d must fail to close, deepen on one engine, and close: %+v", k, steps)
		}
		want[k] = res.Instance.String() + gr.Ground().String()
	}
	var wg sync.WaitGroup
	for k := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(db, progs[k], Options{})
			if err != nil {
				t.Errorf("program %d: %v", k, err)
				return
			}
			gr, err := StableGround(db, progs[k], Options{}, 2)
			if err != nil {
				t.Errorf("program %d: %v", k, err)
				return
			}
			if got := res.Instance.String() + gr.Ground().String(); got != want[k] {
				t.Errorf("program %d: shared-base run differs from the run over a private copy", k)
			}
		}()
	}
	wg.Wait()
	if got := fingerprint(db); got != before {
		t.Error("concurrent runs modified the shared base")
	}
}

func TestLayeredInstanceReads(t *testing.T) {
	base := NewInstance(atom("p", "a", "b"), atom("q", "a"))
	l := base.Overlay()
	if !l.Add(atom("p", "a", "c")) || !l.Add(datalog.NewAtom("r", datalog.N("z"))) {
		t.Fatal("new atoms must be added to the layer")
	}
	if l.Add(atom("p", "a", "b")) || l.Add(atom("p", "a", "c")) {
		t.Error("atoms of either layer must not be added twice")
	}
	if l.Len() != 4 || base.Len() != 2 {
		t.Errorf("Len: layer %d base %d, want 4 and 2", l.Len(), base.Len())
	}
	if got := l.Lookup("p", 0, datalog.C("a")); len(got) != 2 || !got[0].Equal(atom("p", "a", "b")) {
		t.Errorf("Lookup must list the base's atoms first: %v", got)
	}
	if got := l.AtomsOf("p"); len(got) != 2 || len(l.AtomsOf("r")) != 1 || len(l.AtomsOf("q")) != 1 {
		t.Errorf("AtomsOf(p) = %v", got)
	}
	if base.Has(atom("p", "a", "c")) || len(base.AtomsOf("r")) != 0 {
		t.Error("a write to the layer reached the base")
	}
	if g := l.GroundPart(); g.Len() != 3 || g.Has(datalog.NewAtom("r", datalog.N("z"))) || !g.Has(atom("q", "a")) {
		t.Errorf("GroundPart = %v", g.All())
	}
}

func TestLayeredCloneIsFlatAndIndependent(t *testing.T) {
	base := NewInstance(atom("p", "a"), atom("q", "b"))
	l := base.Overlay()
	l.Add(atom("p", "c"))
	c := l.Clone()
	if c.base != nil {
		t.Error("Clone of a layered instance must be flat")
	}
	if !c.Equal(l) || !l.Equal(c) {
		t.Error("Clone must be Equal to its source")
	}
	if got, want := c.String(), l.String(); got != want {
		t.Errorf("Clone = %q, want %q", got, want)
	}
	c.Add(atom("r", "d"))
	if c.RemoveBatch([]datalog.Atom{atom("p", "a")}) != 1 {
		t.Error("RemoveBatch on the flat clone must work")
	}
	if l.Has(atom("r", "d")) || !l.Has(atom("p", "a")) || !base.Has(atom("p", "a")) {
		t.Error("a write to the clone reached its source")
	}
}

func TestLayeredRemoveBatchPanics(t *testing.T) {
	l := NewInstance(atom("p", "a")).Overlay()
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "RemoveBatch on a layered instance") {
			t.Errorf("panic = %q, want one naming RemoveBatch and the layer", msg)
		}
	}()
	l.RemoveBatch([]datalog.Atom{atom("p", "a")})
}

func TestModifiedBasePanics(t *testing.T) {
	base := NewInstance(atom("p", "a"))
	l := base.Overlay()
	base.Add(atom("p", "b"))
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "base instance modified") {
			t.Errorf("panic = %q, want one naming the modified base", msg)
		}
	}()
	l.Has(atom("p", "a"))
}
