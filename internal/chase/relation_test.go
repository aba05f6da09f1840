package chase

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/datalog"
)

// TestLookupWideAtomsDoNotAlias pins that an index position of one predicate
// never answers for another's, however wide the atoms: the last argument of a
// 257-ary w and the first of a later v are kept apart, in a flat instance and
// in a layer.
func TestLookupWideAtomsDoNotAlias(t *testing.T) {
	args := make([]datalog.Term, 257)
	for k := range args {
		args[k] = datalog.C("x")
	}
	args[256] = datalog.C("a")
	w := datalog.NewAtom("w", args...)
	for _, i := range []*Instance{NewInstance(), NewInstance(atom("u", "x")).Overlay()} {
		i.Add(w)
		i.Add(atom("v", "b"))
		if got := i.Lookup("v", 0, datalog.C("a")); len(got) != 0 {
			t.Errorf("Lookup(v, 0, a) = %v, want nothing", got)
		}
		if got := i.Lookup("w", 256, datalog.C("a")); len(got) != 1 || !got[0].Equal(w) {
			t.Errorf("Lookup(w, 256, a) = %v, want the w atom", got)
		}
		if got := i.Lookup("v", 0, datalog.C("b")); len(got) != 1 {
			t.Errorf("Lookup(v, 0, b) = %v, want v(b)", got)
		}
	}
}

// refInstance is the naive model the row store is checked against: per
// predicate its atoms in insertion order, and nothing else.
type refInstance map[string][]datalog.Atom

func (r refInstance) has(a datalog.Atom) bool {
	return slices.ContainsFunc(r[a.Pred], a.Equal)
}

func (r refInstance) add(a datalog.Atom) bool {
	if r.has(a) {
		return false
	}
	r[a.Pred] = append(r[a.Pred], a)
	return true
}

func (r refInstance) remove(batch []datalog.Atom) int {
	n := 0
	for _, a := range batch {
		if r.has(a) {
			r[a.Pred] = slices.DeleteFunc(r[a.Pred], a.Equal)
			n++
		}
	}
	return n
}

func (r refInstance) clone() refInstance {
	c := refInstance{}
	for p, atoms := range r {
		c[p] = slices.Clone(atoms)
	}
	return c
}

func (r refInstance) all() []datalog.Atom {
	var out []datalog.Atom
	for _, atoms := range r {
		out = append(out, atoms...)
	}
	return out
}

// termsOf returns the sorted distinct terms of one kind in r.
func (r refInstance) termsOf(kind datalog.TermKind) []datalog.Term {
	var out []datalog.Term
	for _, a := range r.all() {
		for _, t := range a.Args {
			if t.Kind == kind && !slices.Contains(out, t) {
				out = append(out, t)
			}
		}
	}
	slices.SortFunc(out, datalog.Term.Compare)
	return out
}

var refTerms = []datalog.Term{
	datalog.C("a"), datalog.C("b"), datalog.C("c"), datalog.C("d"), datalog.C("e"),
	datalog.N("z0"), datalog.N("z1"),
}

// refAtom draws an atom over three predicates: p binary, q mostly unary but
// sometimes binary, r mostly ternary but sometimes nullary, so that one name
// carries rows of two lengths.
func refAtom(rng *rand.Rand) datalog.Atom {
	pred, arity := "p", 2
	switch rng.Intn(3) {
	case 1:
		pred, arity = "q", 1
		if rng.Intn(5) == 0 {
			arity = 2
		}
	case 2:
		pred, arity = "r", 3
		if rng.Intn(10) == 0 {
			arity = 0
		}
	}
	args := make([]datalog.Term, arity)
	for k := range args {
		if args[k] = refTerms[rng.Intn(5)]; rng.Intn(8) == 0 {
			args[k] = refTerms[5+rng.Intn(2)]
		}
	}
	return datalog.NewAtom(pred, args...)
}

// checkAgainstRef compares everything a reader can ask an instance with the
// model: size, membership, equality, the terms, and the order of every
// AtomsOf and Lookup.
func checkAgainstRef(t *testing.T, step string, i *Instance, ref refInstance, rng *rand.Rand) {
	t.Helper()
	if i.Len() != len(ref.all()) {
		t.Fatalf("%s: Len = %d, want %d", step, i.Len(), len(ref.all()))
	}
	for _, p := range []string{"p", "q", "r"} {
		if got, want := fmt.Sprint(i.AtomsOf(p)), fmt.Sprint(ref[p]); got != want {
			t.Fatalf("%s: AtomsOf(%s) = %s, want %s", step, p, got, want)
		}
		for pos := range 3 {
			for _, term := range refTerms {
				var want []datalog.Atom
				for _, a := range ref[p] {
					if pos < len(a.Args) && a.Args[pos] == term {
						want = append(want, a)
					}
				}
				if got := i.Lookup(p, pos, term); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: Lookup(%s, %d, %v) = %v, want %v", step, p, pos, term, got, want)
				}
			}
		}
	}
	for range 20 {
		if a := refAtom(rng); i.Has(a) != ref.has(a) {
			t.Fatalf("%s: Has(%v) = %v, want %v", step, a, i.Has(a), ref.has(a))
		}
	}
	model := NewInstance(ref.all()...)
	if !i.Equal(model) || !model.Equal(i) {
		t.Fatalf("%s: instance and model differ:\n%s\nwant:\n%s", step, i, model)
	}
	if got, want := fmt.Sprint(i.Constants(), i.Nulls()), fmt.Sprint(ref.termsOf(datalog.Const), ref.termsOf(datalog.Null)); got != want {
		t.Fatalf("%s: terms %s, want %s", step, got, want)
	}
}

// frozenLoad loads distinct binary p facts over constants through FromRows,
// into a frozen base, and adds them to ref; the dictionary numbers the
// constants in order of first occurrence, as owl's encoding does.
func frozenLoad(rng *rand.Rand, ref refInstance) *Instance {
	var names []string
	ids := map[string]uint32{}
	var rows []uint32
	for range 1 + rng.Intn(20) {
		a := atom("p", refTerms[rng.Intn(5)].Name, refTerms[rng.Intn(5)].Name)
		if !ref.add(a) {
			continue
		}
		for _, c := range a.Args {
			id, ok := ids[c.Name]
			if !ok {
				id = uint32(len(names))
				ids[c.Name] = id
				names = append(names, c.Name)
			}
			rows = append(rows, id)
		}
	}
	return FromRows("p", dictOf(names...), 2, rows)
}

// TestInstanceMatchesReference runs random sequences of bulk loads, Add,
// mark/truncate, RemoveBatch, Overlay and Clone against refInstance, checking
// after every operation. Every third seed starts from a frozen base loaded by
// FromRows, so the operations also reach it before and after its thaw.
func TestInstanceMatchesReference(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := range int64(seeds) {
		rng := rand.New(rand.NewSource(seed))
		ref := refInstance{}
		var i *Instance
		if seed%3 == 2 {
			i = frozenLoad(rng, ref)
		} else {
			var loaded []datalog.Atom
			for range rng.Intn(30) {
				a := refAtom(rng)
				loaded = append(loaded, a)
				ref.add(a)
			}
			i = NewInstance(loaded...)
		}
		checkAgainstRef(t, fmt.Sprintf("seed %d: load", seed), i, ref, rng)
		var m *layerMark
		var atMark refInstance
		for op := range 150 {
			step := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := rng.Intn(100); {
			case k < 60:
				a := refAtom(rng)
				if got, want := i.Add(a), ref.add(a); got != want {
					t.Fatalf("%s: Add(%v) = %v, want %v", step, a, got, want)
				}
				step += fmt.Sprintf(": Add(%v)", a)
			case k < 70:
				mk := i.mark()
				m, atMark = &mk, ref.clone()
				step += ": mark"
			case k < 80 && m != nil:
				i.truncate(*m)
				ref = atMark.clone()
				step += ": truncate"
			case k < 90 && i.base == nil:
				var batch []datalog.Atom
				for range 1 + rng.Intn(5) {
					if all := ref.all(); len(all) > 0 && rng.Intn(3) > 0 {
						batch = append(batch, all[rng.Intn(len(all))])
					} else {
						batch = append(batch, refAtom(rng))
					}
				}
				if got, want := i.RemoveBatch(batch), ref.remove(batch); got != want {
					t.Fatalf("%s: RemoveBatch(%v) = %d, want %d", step, batch, got, want)
				}
				m = nil // a mark covers growth only
				step += fmt.Sprintf(": RemoveBatch(%v)", batch)
			case k < 95 && i.base == nil:
				i, m = i.Overlay(), nil
				step += ": Overlay"
			case k < 98:
				i, m = i.Clone(), nil
				step += ": Clone"
			default:
				continue
			}
			checkAgainstRef(t, step, i, ref, rng)
		}
	}
}

// TestSharedBaseConcurrentDecode reads one base's atoms through many layers at
// once, and the base directly; under -race it proves the decoded atoms a base
// keeps for its readers are safe to share.
func TestSharedBaseConcurrentDecode(t *testing.T) {
	base := NewInstance()
	for k := range 200 {
		base.Add(atom("e", fmt.Sprintf("v%d", k), fmt.Sprintf("v%d", (k*7+1)%200)))
		base.Add(atom("f", fmt.Sprintf("v%d", k)))
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := base.Overlay()
			own := atom("e", "own", fmt.Sprint(g))
			l.Add(own)
			for k := range 50 {
				if got := l.AtomsOf("e"); len(got) != 201 || !got[0].Equal(atom("e", "v0", "v1")) || !got[200].Equal(own) {
					t.Errorf("layer %d: AtomsOf(e) has %d atoms, want the base's 200 and then %v", g, len(got), own)
					return
				}
				v := datalog.C(fmt.Sprintf("v%d", k))
				if got := l.Lookup("e", 0, v); len(got) != 1 || got[0].Args[0] != v {
					t.Errorf("layer %d: Lookup(e, 0, %v) = %v", g, v, got)
					return
				}
				if got := base.AtomsOf("f"); len(got) != 200 {
					t.Errorf("base AtomsOf(f) has %d atoms, want 200", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFrozenBaseConcurrentFirstProbe has 32 goroutines, each with a layer over
// one frozen base, race to make its first probes: the first rowsWith at each
// position, which builds that position's index, and the first find, which
// builds the table. Under -race it proves the lazy pieces safe to share; each
// layer then checks every bucket and membership against NewInstance.
func TestFrozenBaseConcurrentFirstProbe(t *testing.T) {
	const n = 60
	names := make([]string, n)
	for k := range names {
		names[k] = fmt.Sprint("v", k)
	}
	var rows []uint32
	var atoms []datalog.Atom
	for k := range n {
		for _, d := range []int{1, 7, 13} {
			rows = append(rows, uint32(k), uint32(d%3), uint32((k+d)%n))
			atoms = append(atoms, atom("e", names[k], names[d%3], names[(k+d)%n]))
		}
	}
	base, want := FromRows("e", dictOf(names...), 3, rows), NewInstance(atoms...)
	var wg sync.WaitGroup
	for g := range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := base.Overlay()
			pos := g % 3
			for k := range n {
				v := datalog.C(names[(k+g)%n])
				if got, w := l.Lookup("e", pos, v), want.Lookup("e", pos, v); fmt.Sprint(got) != fmt.Sprint(w) {
					t.Errorf("layer %d: Lookup(e, %d, %v) = %v, want %v", g, pos, v, got, w)
					return
				}
			}
			a := atoms[(g*5)%len(atoms)]
			if !l.Has(a) || l.Add(a) || l.Has(atom("e", "v0", "v0", "v0")) {
				t.Errorf("layer %d: the base misjudges which facts it holds", g)
				return
			}
			own := atom("e", "own", names[g%3], names[g])
			if !l.Add(own) || len(l.Lookup("e", 2, datalog.C(names[g]))) != len(want.Lookup("e", 2, datalog.C(names[g])))+1 {
				t.Errorf("layer %d: its own fact is not indexed beside the base's", g)
			}
		}()
	}
	wg.Wait()
	if base.Len() != len(atoms) || base.String() != want.String() {
		t.Fatal("the layers changed their base")
	}
}
