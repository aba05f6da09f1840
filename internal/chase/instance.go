// Package chase implements the chase procedure of Section 3.2 of the paper:
// instances of ground atoms over constants and labeled nulls, homomorphism
// matching, the (semi-naive) Skolem chase for Datalog^∃ programs, the
// stratified semantics S_0, …, S_ℓ for Datalog^{∃,¬s,⊥},
// constraint checking, and the ground semantics Π(D)↓.
package chase

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/datalog"
)

// Instance is a set of ground atoms (constants and labeled nulls) with
// per-position hash indexes for matching. Internally terms and predicates
// are dictionary-encoded to small integers, so set membership and index
// lookups hash packed integer keys instead of structured strings — the
// dominant cost in the chase inner loop. The zero value is unusable; call
// NewInstance.
//
// An instance is either flat (base == nil) or a layer over a flat base (see
// Overlay): reads consult the base and then the own layer, while writes, new
// dictionary ids and new index entries go to the own layer only. The base is
// never written through a layer, so any number of layers, on any number of
// goroutines, may share one base.
type Instance struct {
	base   *Instance
	set    map[string]struct{}
	byPred map[string][]datalog.Atom
	// idx maps packed (pred, position, term) keys to the atoms with that
	// term at that position.
	idx    map[uint64][]datalog.Atom
	termID map[datalog.Term]uint32
	predID map[string]uint32
	n      int // atoms of the own layer
	// baseTerms, basePreds and baseLen are the base's dictionary sizes and
	// atom count when the layer was created: own-layer ids start above them,
	// and a base that no longer matches them was modified under the layer.
	baseTerms, basePreds, baseLen int
	hasNull                       bool // some atom of the own layer carries a null
}

// NewInstance returns a flat instance containing the given atoms, in the state
// that adding them one at a time in the given order leaves it in.
func NewInstance(atoms ...datalog.Atom) *Instance {
	i := &Instance{
		set:    make(map[string]struct{}, len(atoms)),
		byPred: make(map[string][]datalog.Atom),
		termID: make(map[datalog.Term]uint32, len(atoms)),
		predID: make(map[string]uint32),
	}
	i.load(atoms)
	return i
}

// load fills the empty flat instance with a batch: it is Add for every atom in
// order — same set, same bucket orders, duplicates dropped — at one allocation
// per structure instead of a few per atom. The set keys are substrings of one
// slab. Index buckets are counted before they are filled and carved from one
// slab, each with cap == len: the owner may still Add to the instance, and an
// append to a bucket with spare capacity would write into its neighbour.
func (i *Instance) load(atoms []datalog.Atom) {
	args := 0
	for _, a := range atoms {
		if !a.IsGround() {
			panic(fmt.Sprintf("chase: non-ground atom %v added to instance", a))
		}
		args += len(a.Args)
		i.hasNull = i.hasNull || !a.IsConstantGround()
	}
	packed := make([]byte, 0, 4*(len(atoms)+args))
	perPred := make(map[string]int)
	for _, a := range atoms {
		packed, _, _ = i.packKey(packed, a, true)
		perPred[a.Pred]++
	}
	for p, n := range perPred {
		i.byPred[p] = make([]datalog.Atom, 0, n)
	}
	keys := string(packed)

	// slotOf numbers the index keys in order of first sight; counts is indexed
	// by that number, and slots holds it for every argument of every new atom
	// so that the fill pass does no hashing. The numbers are as wide as the
	// dictionary's ids.
	slotOf := make(map[uint64]int32, len(atoms))
	counts := make([]int32, 0, args)
	slots := make([]int32, 0, args)
	fresh := make([]bool, len(atoms))
	end := 0
	for n, a := range atoms {
		off := end
		end += 4 + 4*len(a.Args)
		if _, dup := i.set[keys[off:end]]; dup {
			continue
		}
		i.set[keys[off:end]] = struct{}{}
		fresh[n] = true
		i.byPred[a.Pred] = append(i.byPred[a.Pred], a)
		pid := binary.LittleEndian.Uint32(packed[off:])
		for pos := range a.Args {
			kk := idxKey(pid, pos, binary.LittleEndian.Uint32(packed[off+4+4*pos:]))
			s, seen := slotOf[kk]
			if !seen {
				s = int32(len(counts))
				slotOf[kk] = s
				counts = append(counts, 0)
			}
			counts[s]++
			slots = append(slots, s)
		}
		i.n++
	}

	next := make([]int32, len(counts)) // where each bucket's next atom goes
	total := int32(0)
	for s, c := range counts {
		next[s] = total
		total += c
	}
	slab := make([]datalog.Atom, total)
	k := 0
	for n, a := range atoms {
		if !fresh[n] {
			continue
		}
		for range a.Args {
			s := slots[k]
			slab[next[s]] = a
			next[s]++
			k++
		}
	}
	i.idx = make(map[uint64][]datalog.Atom, len(counts))
	for kk, s := range slotOf {
		end := next[s]
		i.idx[kk] = slab[end-counts[s] : end : end]
	}
}

// Overlay returns an independent, mutable instance holding the atoms of i.
// Over a flat instance that is an empty layer on top of i, built in O(1); i
// is then a frozen base and must not be modified while the layer is in use
// (the layer panics when it notices). A base must be flat, so the overlay of
// a layered instance is its flat Clone.
func (i *Instance) Overlay() *Instance {
	if i.base != nil {
		return i.Clone()
	}
	j := NewInstance()
	j.base = i
	j.baseTerms, j.basePreds, j.baseLen = len(i.termID), len(i.predID), i.n
	return j
}

// keyBufLen sizes the stack buffers that hold a packed key, enough for atoms
// of up to 8 arguments; longer atoms spill to the heap.
const keyBufLen = 4 + 4*8

// termOf returns the dictionary id of a term: the base's if the base knows
// the term (inBase), else the own layer's, which with intern set is assigned
// on first sight. Interning is monotone, so an id stays valid for the
// instance's lifetime.
func (i *Instance) termOf(t datalog.Term, intern bool) (id uint32, inBase, ok bool) {
	if b := i.base; b != nil {
		if id, ok = b.termID[t]; ok {
			return id, true, true
		}
	}
	if id, ok = i.termID[t]; ok || !intern {
		return id, false, ok
	}
	id = uint32(i.baseTerms + len(i.termID))
	i.termID[t] = id
	return id, false, true
}

// predOf is termOf for predicate names.
func (i *Instance) predOf(p string, intern bool) (id uint32, inBase, ok bool) {
	if b := i.base; b != nil {
		if id, ok = b.predID[p]; ok {
			return id, true, true
		}
	}
	if id, ok = i.predID[p]; ok || !intern {
		return id, false, ok
	}
	id = uint32(i.basePreds + len(i.predID))
	i.predID[p] = id
	return id, false, true
}

// packKey appends the atom's set key to buf: the predicate id followed by
// the argument term ids, 4 bytes each. Own-layer ids start above the base's,
// so one key addresses both layers. Without intern, ok is false when the
// atom mentions a term or predicate the instance has never seen and
// therefore cannot contain. inBase reports that every id belongs to the
// base's dictionary, without which the base cannot hold the atom.
func (i *Instance) packKey(buf []byte, a datalog.Atom, intern bool) (key []byte, inBase, ok bool) {
	if b := i.base; b != nil && (len(b.termID) != i.baseTerms || b.n != i.baseLen) {
		panic("chase: base instance modified while a layer over it is in use")
	}
	pid, inBase, ok := i.predOf(a.Pred, intern)
	if !ok {
		return nil, false, false
	}
	buf = binary.LittleEndian.AppendUint32(buf, pid)
	for _, t := range a.Args {
		tid, termInBase, ok := i.termOf(t, intern)
		if !ok {
			return nil, false, false
		}
		inBase = inBase && termInBase
		buf = binary.LittleEndian.AppendUint32(buf, tid)
	}
	return buf, inBase, true
}

// hasKey probes both layers for a packed key without allocating.
func (i *Instance) hasKey(key []byte, inBase bool) bool {
	if inBase {
		if _, ok := i.base.set[string(key)]; ok {
			return true
		}
	}
	_, ok := i.set[string(key)]
	return ok
}

// idxKey packs (pred, position, term) into one uint64: 24 bits predicate,
// 8 bits position, 32 bits term.
func idxKey(pid uint32, pos int, tid uint32) uint64 {
	return uint64(pid)<<40 | uint64(pos)<<32 | uint64(tid)
}

// Add inserts a ground atom, reporting whether it was new. Atoms with
// variables are rejected with a panic: they indicate a bug in the caller.
func (i *Instance) Add(a datalog.Atom) bool {
	if !a.IsGround() {
		panic(fmt.Sprintf("chase: non-ground atom %v added to instance", a))
	}
	var arr [keyBufLen]byte
	key, inBase, _ := i.packKey(arr[:0], a, true)
	if i.hasKey(key, inBase) {
		return false
	}
	i.set[string(key)] = struct{}{}
	i.byPred[a.Pred] = append(i.byPred[a.Pred], a)
	pid := binary.LittleEndian.Uint32(key)
	for pos := range a.Args {
		kk := idxKey(pid, pos, binary.LittleEndian.Uint32(key[4+4*pos:]))
		i.idx[kk] = append(i.idx[kk], a)
	}
	i.n++
	if !i.hasNull && !a.IsConstantGround() {
		i.hasNull = true
	}
	return true
}

// layerMark remembers how far the own layer of an instance had grown at one
// moment. Its buckets and dictionaries only grow (RemoveBatch aside), so the
// atoms of that moment are the buckets' prefixes, and truncate returns to it.
type layerMark struct {
	lens         map[string]int // per predicate, the own bucket's length
	n            int
	terms, preds int
	hasNull      bool
}

func (i *Instance) mark() layerMark {
	m := layerMark{lens: make(map[string]int, len(i.byPred)), n: i.n,
		terms: len(i.termID), preds: len(i.predID), hasNull: i.hasNull}
	for p, bucket := range i.byPred {
		m.lens[p] = len(bucket)
	}
	return m
}

// truncate takes the own layer back to the mark: the atoms added since leave
// the set and the buckets they end, and the terms and predicates only they
// mention leave the dictionary, so what is added next gets the ids it would
// have got had they never been there.
func (i *Instance) truncate(m layerMark) {
	var arr [keyBufLen]byte
	for p, bucket := range i.byPred {
		keep := m.lens[p]
		for _, a := range bucket[keep:] {
			key, _, _ := i.packKey(arr[:0], a, false)
			delete(i.set, string(key))
			pid := binary.LittleEndian.Uint32(key)
			for pos := range a.Args {
				kk := idxKey(pid, pos, binary.LittleEndian.Uint32(key[4+4*pos:]))
				if rest := i.idx[kk]; len(rest) > 1 {
					i.idx[kk] = rest[:len(rest)-1]
				} else {
					delete(i.idx, kk)
				}
			}
		}
		if keep == 0 {
			delete(i.byPred, p)
		} else {
			i.byPred[p] = bucket[:keep]
		}
	}
	for t, id := range i.termID {
		if int(id) >= i.baseTerms+m.terms {
			delete(i.termID, t)
		}
	}
	for p, id := range i.predID {
		if int(id) >= i.basePreds+m.preds {
			delete(i.predID, p)
		}
	}
	i.n, i.hasNull = m.n, m.hasNull
}

// factKey returns the packed set key for a ground atom without interning new
// dictionary entries; ok is false when the instance cannot contain the atom.
func (i *Instance) factKey(a datalog.Atom) (string, bool) {
	var arr [keyBufLen]byte
	key, _, ok := i.packKey(arr[:0], a, false)
	return string(key), ok
}

// RemoveBatch deletes the given ground atoms and returns how many were
// actually present. The dictionary keeps its term/pred ids (interning is
// monotone), but the set, per-predicate slices, and per-position indexes are
// filtered in one pass per touched bucket, so a batch removal costs
// O(|touched buckets|) rather than O(|batch| × |bucket|). Its one caller is
// Incremental.Delete, whose instance is flat: a layer shares its base with
// other runs and only grows, so RemoveBatch on a layered instance panics.
func (i *Instance) RemoveBatch(atoms []datalog.Atom) int {
	if i.base != nil {
		panic("chase: RemoveBatch on a layered instance (only the flat instance of an Incremental shrinks)")
	}
	dropped := make(map[string]struct{}, len(atoms))
	preds := make(map[string]struct{})
	for _, a := range atoms {
		k, ok := i.factKey(a)
		if !ok {
			continue
		}
		if _, present := i.set[k]; !present {
			continue
		}
		if _, dup := dropped[k]; dup {
			continue
		}
		dropped[k] = struct{}{}
		delete(i.set, k)
		preds[a.Pred] = struct{}{}
		i.n--
	}
	if len(dropped) == 0 {
		return 0
	}
	// gone reports whether an atom was part of this batch. Keys re-pack from
	// the (still intact) dictionary, so membership agrees with dropped.
	gone := func(a datalog.Atom) bool {
		k, ok := i.factKey(a)
		if !ok {
			return false
		}
		_, hit := dropped[k]
		return hit
	}
	for p := range preds {
		bucket := i.byPred[p]
		kept := bucket[:0]
		pid := i.predID[p]
		touched := make(map[uint64]struct{})
		for _, a := range bucket {
			if gone(a) {
				for pos, t := range a.Args {
					touched[idxKey(pid, pos, i.termID[t])] = struct{}{}
				}
				continue
			}
			kept = append(kept, a)
		}
		if len(kept) == 0 {
			delete(i.byPred, p)
		} else {
			i.byPred[p] = kept
		}
		for kk := range touched {
			lst := i.idx[kk]
			keptIdx := lst[:0]
			for _, a := range lst {
				if !gone(a) {
					keptIdx = append(keptIdx, a)
				}
			}
			if len(keptIdx) == 0 {
				delete(i.idx, kk)
			} else {
				i.idx[kk] = keptIdx
			}
		}
	}
	return len(dropped)
}

// Has reports whether the ground atom is present.
func (i *Instance) Has(a datalog.Atom) bool {
	var arr [keyBufLen]byte
	key, inBase, ok := i.packKey(arr[:0], a, false)
	return ok && i.hasKey(key, inBase)
}

// Len returns the number of atoms.
func (i *Instance) Len() int { return i.baseLen + i.n }

// join returns base followed by own, copying only when both are non-empty.
func join(base, own []datalog.Atom) []datalog.Atom {
	if len(own) == 0 {
		return base
	}
	if len(base) == 0 {
		return own
	}
	return append(append(make([]datalog.Atom, 0, len(base)+len(own)), base...), own...)
}

// atomsOf returns the atoms with the given predicate as the base's bucket
// followed by the own layer's: the insertion order of a flat instance that
// received the base's atoms first.
func (i *Instance) atomsOf(pred string) (base, own []datalog.Atom) {
	if i.base != nil {
		base = i.base.byPred[pred]
	}
	return base, i.byPred[pred]
}

// AtomsOf returns the atoms with the given predicate; the slice must not be
// modified.
func (i *Instance) AtomsOf(pred string) []datalog.Atom { return join(i.atomsOf(pred)) }

// lookup returns the atoms of pred having term t at (0-based) position pos,
// split like atomsOf.
func (i *Instance) lookup(pred string, pos int, t datalog.Term) (base, own []datalog.Atom) {
	pid, predInBase, ok := i.predOf(pred, false)
	if !ok {
		return nil, nil
	}
	tid, termInBase, ok := i.termOf(t, false)
	if !ok {
		return nil, nil
	}
	kk := idxKey(pid, pos, tid)
	if predInBase && termInBase {
		base = i.base.idx[kk]
	}
	return base, i.idx[kk]
}

// Lookup returns the atoms of pred having term t at (0-based) position pos;
// the slice must not be modified.
func (i *Instance) Lookup(pred string, pos int, t datalog.Term) []datalog.Atom {
	return join(i.lookup(pred, pos, t))
}

// All returns every atom, predicate-by-predicate in sorted predicate order.
func (i *Instance) All() []datalog.Atom { return i.list(i.base) }

// list returns the atoms of the own layer and, when non-nil, of base,
// predicate-by-predicate in sorted predicate order, a predicate's base atoms
// before its own.
func (i *Instance) list(base *Instance) []datalog.Atom {
	preds := make([]string, 0, len(i.byPred))
	for p := range i.byPred {
		preds = append(preds, p)
	}
	size := i.n
	if base != nil {
		for p := range base.byPred {
			if _, own := i.byPred[p]; !own {
				preds = append(preds, p)
			}
		}
		size += base.n
	}
	sort.Strings(preds)
	out := make([]datalog.Atom, 0, size)
	for _, p := range preds {
		if base != nil {
			out = append(out, base.byPred[p]...)
		}
		out = append(out, i.byPred[p]...)
	}
	return out
}

// Sorted returns every atom in the canonical order; for deterministic output.
func (i *Instance) Sorted() []datalog.Atom {
	out := i.All()
	datalog.SortAtoms(out)
	return out
}

// Clone returns a deep copy of the instance: flat, and independent of the
// receiver and of its base.
func (i *Instance) Clone() *Instance { return NewInstance(i.All()...) }

// nullFree reports that no atom of either layer carries a null.
func (i *Instance) nullFree() bool {
	return !i.hasNull && (i.base == nil || !i.base.hasNull)
}

// GroundPart returns the Π(D)↓-style restriction: the atoms whose arguments
// are all constants. An instance without nulls is its own ground part and is
// returned as is, so callers must treat the result as read-only. A layer
// with nulls over a null-free base yields a fresh layer over the same base
// holding the own layer's constant-only atoms; the base is never re-inserted.
func (i *Instance) GroundPart() *Instance {
	if i.nullFree() {
		return i
	}
	var j *Instance
	var atoms []datalog.Atom
	if b := i.base; b != nil && !b.hasNull {
		j, atoms = b.Overlay(), i.list(nil)
	} else {
		j, atoms = NewInstance(), i.All()
	}
	for _, a := range atoms {
		if a.IsConstantGround() {
			j.Add(a)
		}
	}
	return j
}

// Constants returns dom(D) ∩ U: the constants occurring in the instance.
func (i *Instance) Constants() []datalog.Term {
	seen := make(map[datalog.Term]struct{})
	for _, a := range i.All() {
		for _, t := range a.Args {
			if t.IsConst() {
				seen[t] = struct{}{}
			}
		}
	}
	out := make([]datalog.Term, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Compare(out[b]) < 0 })
	return out
}

// Nulls returns the labeled nulls occurring in the instance.
func (i *Instance) Nulls() []datalog.Term {
	if i.nullFree() {
		return nil
	}
	seen := make(map[datalog.Term]struct{})
	for _, a := range i.All() {
		for _, t := range a.Args {
			if t.IsNull() {
				seen[t] = struct{}{}
			}
		}
	}
	out := make([]datalog.Term, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Compare(out[b]) < 0 })
	return out
}

// Equal reports whether two instances hold exactly the same atoms.
func (i *Instance) Equal(j *Instance) bool {
	if i.Len() != j.Len() {
		return false
	}
	// Dictionaries may assign different ids, so compare atom-wise. Two
	// layers over one base differ only in their own atoms, which are
	// disjoint from the base's.
	base := i.base
	if base == j.base {
		base = nil
	}
	for _, a := range i.list(base) {
		if !j.Has(a) {
			return false
		}
	}
	return true
}

// String renders the instance one atom per line in canonical order.
func (i *Instance) String() string {
	var b strings.Builder
	for _, a := range i.Sorted() {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FromFacts builds an instance from constant-only atoms, validating that no
// nulls or variables sneak into the extensional database.
func FromFacts(atoms []datalog.Atom) (*Instance, error) {
	for _, a := range atoms {
		if !a.IsConstantGround() {
			return nil, fmt.Errorf("chase: database atom %v must contain only constants", a)
		}
	}
	return NewInstance(atoms...), nil
}
