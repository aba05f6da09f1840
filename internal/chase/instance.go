// Package chase implements the chase procedure of Section 3.2 of the paper:
// instances of ground atoms over constants and labeled nulls, homomorphism
// matching, the (semi-naive) Skolem chase for Datalog^∃ programs, the
// stratified semantics S_0, …, S_ℓ for Datalog^{∃,¬s,⊥} (constraints as
// rules that derive an inconsistency marker), and the ground semantics Π(D)↓.
package chase

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/datalog"
)

// Instance is a set of ground atoms (constants and labeled nulls) with
// per-position indexes for matching. Terms and predicates are
// dictionary-encoded to uint32 ids, and a predicate's facts are rows of ids in
// a relation (relation.go): no fact is stored as a datalog.Atom or a string,
// so adding one hashes a few integers and the collector has nothing per fact
// to scan. Atoms are decoded only where a caller asks for them (AtomsOf,
// Lookup, All, …), and a relation keeps what it decoded until it changes. The
// zero value is unusable; call NewInstance.
//
// An instance is either flat (base == nil) or a layer over a flat base (see
// Overlay): reads consult the base and then the own layer, while writes, new
// dictionary ids and new index entries go to the own layer only. The base is
// never written through a layer, so any number of layers, on any number of
// goroutines, may share one base.
//
// A term id resolves through a chain that ends in the own layer: the ids of a
// frozen Dict (an instance loaded by FromRows, and the layers over it) come
// first, then the base's own, then the layer's, each numbered from where the
// one before ends. A Dict is never written, so any number of instances may
// share one.
type Instance struct {
	base *Instance
	dict *Dict // the Dict under the flat instance, nil when it was not loaded by FromRows
	// The own layer's dictionary: terms and preds list its terms and predicate
	// names by id less baseTerms or basePreds, termID and predID invert them.
	terms  []datalog.Term
	termID map[datalog.Term]uint32 // nil until the first own term
	preds  []string
	predID map[string]uint32
	// rels holds the own layer's facts by predicate id, nil where it has none;
	// a base predicate's id indexes the facts a layer adds to it.
	rels []*relation
	n    int // atoms of the own layer
	// baseTerms, basePreds and baseLen are the base's dictionary sizes (its
	// dict counted) and atom count when the layer was created: own-layer ids
	// start above them, and a base that no longer matches them was modified
	// under the layer. In a flat instance baseTerms is the dict's size.
	baseTerms, basePreds, baseLen int
	hasNull                       bool // some atom of the own layer carries a null
}

// Sentinels of the uint32 id space, above every term id: an environment slot
// nothing has bound, and what a summary or coarse Skolem key writes for a
// frontier term it erases.
const (
	unbound   = ^uint32(0)
	nullMark  = unbound - 1
	constMark = unbound - 2
)

// keyBufLen sizes the stack buffers that hold an encoded atom, enough for
// atoms of up to 8 arguments; longer atoms spill to the heap.
const keyBufLen = 8

// NewInstance returns a flat instance containing the given atoms, in the state
// that adding them one at a time in the given order leaves it in.
func NewInstance(atoms ...datalog.Atom) *Instance {
	i := &Instance{
		termID: make(map[datalog.Term]uint32, len(atoms)),
		predID: make(map[string]uint32),
	}
	i.load(atoms)
	return i
}

// load fills the empty flat instance with a batch: it is Add for every atom in
// order — same rows, same row order, duplicates dropped — but each relation is
// sized once and indexed at the end, its index lists carved from one slab.
func (i *Instance) load(atoms []datalog.Atom) {
	if len(atoms) == 0 {
		return
	}
	perPred := make(map[string]int)
	for _, a := range atoms {
		if !a.IsGround() {
			panic(fmt.Sprintf("chase: non-ground atom %v added to instance", a))
		}
		perPred[a.Pred]++
	}
	var arr [keyBufLen]uint32
	for _, a := range atoms {
		pid, row, _ := i.encode(arr[:0], a, true)
		r := i.rel(pid)
		if r == nil {
			r = i.newRel(pid, len(row), perPred[a.Pred])
		}
		if _, added := r.insert(row); added {
			i.n++
			i.hasNull = i.hasNull || !a.IsConstantGround()
		}
	}
	for _, r := range i.rels {
		r.buildIndex()
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
	return &Instance{
		base:      i,
		dict:      i.dict,
		predID:    make(map[string]uint32),
		baseTerms: i.termCount(),
		basePreds: len(i.preds),
		baseLen:   i.n,
	}
}

// termCount returns how many term ids the instance has assigned.
func (i *Instance) termCount() int { return i.baseTerms + len(i.terms) }

// termOf returns the dictionary id of a term along the chain: the dict's if
// the dict knows the term, else the base's own, else the own layer's, which
// with intern set is assigned on first sight. Interning is monotone, so an id
// stays valid for the instance's lifetime (truncate aside, which takes back the
// ids it was given since).
func (i *Instance) termOf(t datalog.Term, intern bool) (uint32, bool) {
	if d := i.dict; d != nil {
		if id, ok := d.ids[t]; ok {
			return id, true
		}
	}
	if b := i.base; b != nil {
		if id, ok := b.termID[t]; ok {
			return id, true
		}
	}
	if id, ok := i.termID[t]; ok || !intern {
		return id, ok
	}
	id := uint32(i.termCount())
	if id >= constMark {
		panic("chase: term dictionary full")
	}
	if i.termID == nil {
		i.termID = make(map[datalog.Term]uint32)
	}
	i.termID[t] = id
	i.terms = append(i.terms, t)
	return id, true
}

// predOf is termOf for predicate names.
func (i *Instance) predOf(p string, intern bool) (uint32, bool) {
	if b := i.base; b != nil {
		if id, ok := b.predID[p]; ok {
			return id, true
		}
	}
	if id, ok := i.predID[p]; ok || !intern {
		return id, ok
	}
	id := uint32(i.basePreds + len(i.preds))
	i.predID[p] = id
	i.preds = append(i.preds, p)
	return id, true
}

// term decodes a term id along the chain termOf assigns it by.
func (i *Instance) term(id uint32) datalog.Term {
	switch b := i.base; {
	case int(id) >= i.baseTerms:
		return i.terms[int(id)-i.baseTerms]
	case b != nil && int(id) >= b.baseTerms:
		return b.terms[int(id)-b.baseTerms]
	default:
		return i.dict.terms[id]
	}
}

// predName decodes a predicate id.
func (i *Instance) predName(pid uint32) string {
	if int(pid) < i.basePreds {
		return i.base.preds[pid]
	}
	return i.preds[int(pid)-i.basePreds]
}

// constRow reports whether every id of the row names a constant.
func (i *Instance) constRow(row []uint32) bool {
	for _, id := range row {
		if !i.term(id).IsConst() {
			return false
		}
	}
	return true
}

// encode appends the ids of the atom's arguments to buf and returns them with
// the predicate's id. Without intern, ok is false when the atom mentions a
// term or predicate the instance has never seen and therefore cannot contain.
func (i *Instance) encode(buf []uint32, a datalog.Atom, intern bool) (pid uint32, row []uint32, ok bool) {
	if b := i.base; b != nil && (b.termCount() != i.baseTerms || b.n != i.baseLen) {
		panic("chase: base instance modified while a layer over it is in use")
	}
	if pid, ok = i.predOf(a.Pred, intern); !ok {
		return 0, nil, false
	}
	for _, t := range a.Args {
		id, ok := i.termOf(t, intern)
		if !ok {
			return 0, nil, false
		}
		buf = append(buf, id)
	}
	return pid, buf, true
}

// rel returns the own layer's relation of a predicate id, nil when the layer
// holds no row of it.
func (i *Instance) rel(pid uint32) *relation {
	if int(pid) < len(i.rels) {
		return i.rels[pid]
	}
	return nil
}

// baseRel returns the base's relation of a predicate id, nil when there is
// none.
func (i *Instance) baseRel(pid uint32) *relation {
	if int(pid) < i.basePreds {
		return i.base.rel(pid)
	}
	return nil
}

// newRel creates the own layer's relation of a predicate id, with room for
// rows of the given arity.
func (i *Instance) newRel(pid uint32, arity, rows int) *relation {
	for len(i.rels) <= int(pid) {
		i.rels = append(i.rels, nil)
	}
	r := newRelation(i.predName(pid), arity, rows)
	i.rels[pid] = r
	return r
}

// inBase reports whether every id of the row belongs to the base's
// dictionary, without which the base cannot hold it.
func (i *Instance) inBase(row []uint32) bool {
	for _, id := range row {
		if int(id) >= i.baseTerms {
			return false
		}
	}
	return true
}

// hasRow probes both layers for a row of the predicate.
func (i *Instance) hasRow(pid uint32, row []uint32) bool {
	if br := i.baseRel(pid); br != nil && i.inBase(row) && br.find(row) >= 0 {
		return true
	}
	return i.rel(pid).find(row) >= 0
}

// addRow inserts a row of the predicate, reporting whether it was new.
func (i *Instance) addRow(pid uint32, row []uint32) bool {
	if br := i.baseRel(pid); br != nil && i.inBase(row) && br.find(row) >= 0 {
		return false
	}
	r := i.rel(pid)
	if r == nil {
		r = i.newRel(pid, len(row), 0)
	}
	k, added := r.insert(row)
	if !added {
		return false
	}
	r.indexRow(k, row)
	i.n++
	if !i.hasNull && !i.constRow(row) {
		i.hasNull = true
	}
	return true
}

// Add inserts a ground atom, reporting whether it was new. Atoms with
// variables are rejected with a panic: they indicate a bug in the caller.
func (i *Instance) Add(a datalog.Atom) bool {
	if !a.IsGround() {
		panic(fmt.Sprintf("chase: non-ground atom %v added to instance", a))
	}
	var arr [keyBufLen]uint32
	pid, row, _ := i.encode(arr[:0], a, true)
	return i.addRow(pid, row)
}

// layerMark remembers how far the own layer of an instance had grown at one
// moment. Its relations and dictionary only grow (RemoveBatch aside), so the
// rows of that moment are the relations' prefixes, and truncate returns to it.
type layerMark struct {
	lens         []int // by predicate id, the own relation's row count
	n            int
	terms, preds int
	hasNull      bool
}

func (i *Instance) mark() layerMark {
	m := layerMark{lens: make([]int, len(i.rels)), n: i.n,
		terms: len(i.terms), preds: len(i.preds), hasNull: i.hasNull}
	for pid, r := range i.rels {
		if r != nil {
			m.lens[pid] = r.n
		}
	}
	return m
}

// truncate takes the own layer back to the mark: the rows added since leave
// their relations, and the terms and predicates only they mention leave the
// dictionary, so what is added next gets the ids it would have got had they
// never been there.
func (i *Instance) truncate(m layerMark) {
	for pid, r := range i.rels {
		if r != nil {
			keep := 0
			if pid < len(m.lens) {
				keep = m.lens[pid]
			}
			r.truncate(keep)
		}
	}
	if keep := i.basePreds + m.preds; len(i.rels) > keep {
		clear(i.rels[keep:])
		i.rels = i.rels[:keep]
	}
	for _, t := range i.terms[m.terms:] {
		delete(i.termID, t)
	}
	clear(i.terms[m.terms:])
	i.terms = i.terms[:m.terms]
	for _, p := range i.preds[m.preds:] {
		delete(i.predID, p)
	}
	i.preds = i.preds[:m.preds]
	i.n, i.hasNull = m.n, m.hasNull
}

// fact is one row of a predicate, held outside the instance.
type fact struct {
	pid uint32
	row []uint32
}

// RemoveBatch deletes the given ground atoms and returns how many were
// actually present. The dictionary keeps its term/pred ids (interning is
// monotone); each touched relation is compacted in one pass. Its one caller is
// Incremental.Delete, whose instance is flat: a layer shares its base with
// other runs and only grows, so RemoveBatch on a layered instance panics.
func (i *Instance) RemoveBatch(atoms []datalog.Atom) int {
	var facts []fact
	var buf []uint32
	for _, a := range atoms {
		start := len(buf)
		pid, out, ok := i.encode(buf, a, false)
		if ok {
			buf = out
			facts = append(facts, fact{pid, buf[start:len(buf):len(buf)]})
		}
	}
	return i.removeFacts(facts)
}

// removeFacts is RemoveBatch over rows.
func (i *Instance) removeFacts(facts []fact) int {
	if i.base != nil {
		panic("chase: RemoveBatch on a layered instance (only the flat instance of an Incremental shrinks)")
	}
	drops := make(map[uint32][]bool)
	removed := 0
	for _, f := range facts {
		r := i.rel(f.pid)
		k := r.find(f.row)
		if k < 0 {
			continue
		}
		drop := drops[f.pid]
		if drop == nil {
			drop = make([]bool, r.n)
			drops[f.pid] = drop
		}
		if !drop[k] {
			drop[k] = true
			removed++
		}
	}
	for pid, drop := range drops {
		i.rels[pid].compact(drop)
	}
	i.n -= removed
	return removed
}

// Has reports whether the ground atom is present.
func (i *Instance) Has(a datalog.Atom) bool {
	var arr [keyBufLen]uint32
	pid, row, ok := i.encode(arr[:0], a, false)
	return ok && i.hasRow(pid, row)
}

// Len returns the number of atoms.
func (i *Instance) Len() int { return i.baseLen + i.n }

// inconsistent reports whether the instance holds the inconsistency marker
// (datalog.ConstraintsAsRules): some constraint fired.
func (i *Instance) inconsistent() bool {
	return i.Has(datalog.Atom{Pred: datalog.InconsistencyMarker})
}

// ownLen returns how many rows of the predicate the own layer holds.
func (i *Instance) ownLen(pred string) int {
	if pid, ok := i.predOf(pred, false); ok {
		if r := i.rel(pid); r != nil {
			return r.n
		}
	}
	return 0
}

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

// AtomsOf returns the atoms with the given predicate, the base's before the
// own layer's: the insertion order of a flat instance that received the base's
// atoms first. The slice must not be modified.
func (i *Instance) AtomsOf(pred string) []datalog.Atom {
	pid, ok := i.predOf(pred, false)
	if !ok {
		return nil
	}
	return join(i.baseRel(pid).atoms(i.base), i.rel(pid).atoms(i))
}

// Lookup returns the atoms of pred having term t at (0-based) position pos,
// in the order AtomsOf lists them; the slice must not be modified.
func (i *Instance) Lookup(pred string, pos int, t datalog.Term) []datalog.Atom {
	pid, ok := i.predOf(pred, false)
	if !ok {
		return nil
	}
	tid, ok := i.termOf(t, false)
	if !ok {
		return nil
	}
	var out []datalog.Atom
	if br := i.baseRel(pid); br != nil && int(tid) < i.baseTerms {
		all := br.atoms(i.base)
		for _, k := range br.rowsWith(pos, tid) {
			out = append(out, all[k])
		}
	}
	if r := i.rel(pid); r != nil {
		all := r.atoms(i)
		for _, k := range r.rowsWith(pos, tid) {
			out = append(out, all[k])
		}
	}
	return out
}

// All returns every atom, predicate-by-predicate in sorted predicate order.
func (i *Instance) All() []datalog.Atom { return i.list(i.base) }

// list returns the atoms of the own layer and, when non-nil, of base,
// predicate-by-predicate in sorted predicate order, a predicate's base atoms
// before its own.
func (i *Instance) list(base *Instance) []datalog.Atom {
	nonEmpty := func(r *relation) bool { return r != nil && r.n > 0 }
	var pids []uint32
	size, preds := i.n, len(i.rels)
	if base != nil {
		size, preds = size+base.n, max(preds, len(base.rels))
	}
	for pid := range uint32(preds) {
		if nonEmpty(i.rel(pid)) || base != nil && nonEmpty(base.rel(pid)) {
			pids = append(pids, pid)
		}
	}
	slices.SortFunc(pids, func(a, b uint32) int { return strings.Compare(i.predName(a), i.predName(b)) })
	out := make([]datalog.Atom, 0, size)
	for _, pid := range pids {
		if base != nil {
			out = append(out, base.rel(pid).atoms(base)...)
		}
		out = append(out, i.rel(pid).atoms(i)...)
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

// GroundAtomsOf returns the atoms with the given predicate whose arguments
// are all constants, in the order AtomsOf lists them: AtomsOf's own slice
// when the instance holds no null. The slice must not be modified.
func (i *Instance) GroundAtomsOf(pred string) []datalog.Atom {
	all := i.AtomsOf(pred)
	if i.nullFree() {
		return all
	}
	var out []datalog.Atom
	for _, a := range all {
		if a.IsConstantGround() {
			out = append(out, a)
		}
	}
	return out
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

// termsOfKind returns the terms of one kind occurring in the instance, in
// canonical order.
func (i *Instance) termsOfKind(kind datalog.TermKind) []datalog.Term {
	seen := make(map[uint32]struct{})
	visit := func(rels []*relation) {
		for _, r := range rels {
			if r == nil {
				continue
			}
			for _, id := range r.data {
				if _, dup := seen[id]; !dup && i.term(id).Kind == kind {
					seen[id] = struct{}{}
				}
			}
		}
	}
	if i.base != nil {
		visit(i.base.rels)
	}
	visit(i.rels)
	out := make([]datalog.Term, 0, len(seen))
	for id := range seen {
		out = append(out, i.term(id))
	}
	slices.SortFunc(out, datalog.Term.Compare)
	return out
}

// Constants returns dom(D) ∩ U: the constants occurring in the instance.
func (i *Instance) Constants() []datalog.Term { return i.termsOfKind(datalog.Const) }

// Nulls returns the labeled nulls occurring in the instance.
func (i *Instance) Nulls() []datalog.Term {
	if i.nullFree() {
		return nil
	}
	return i.termsOfKind(datalog.Null)
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

// Dict is a frozen symbol table: distinct constants numbered by position, and
// the map that inverts them. FromRows loads instances over one, and nothing
// writes its table after NewDict, so any number of instances on any number of
// goroutines may share it. It also keeps the memo of the library database
// parts evaluated over its load, which is safe for concurrent use.
type Dict struct {
	terms []datalog.Term
	ids   map[datalog.Term]uint32
	// parts memoises, by *datalog.Library, the fixpoint of each library's
	// database part over the load of this Dict (part.go); it dies with the
	// Dict.
	parts sync.Map
}

// NewDict returns the dictionary of the given constants, numbered by
// position, taking over ids, the map from each constant to its position: a
// caller that numbered the constants through a map builds one map in all. The
// Dict owns both arguments from then on. NewDict panics on a term that is not a
// constant, on a constant listed twice, and on a map that does not invert
// consts.
func NewDict(consts []datalog.Term, ids map[datalog.Term]uint32) *Dict {
	if uint64(len(consts)) >= uint64(constMark) {
		panic("chase: term dictionary full")
	}
	if len(ids) != len(consts) {
		panic("chase: dictionary constants are not distinct, or not those of the map")
	}
	for id, c := range consts {
		if !c.IsConst() {
			panic(fmt.Sprintf("chase: database term %v must be a constant", c))
		}
		if got, ok := ids[c]; !ok || got != uint32(id) {
			panic(fmt.Sprintf("chase: dictionary map gives %v no id or another than %d", c, id))
		}
	}
	return &Dict{terms: consts, ids: ids}
}

// Terms returns the constants by id; the slice must not be modified.
func (d *Dict) Terms() []datalog.Term { return d.terms }

// FromRows builds the flat instance of one predicate's facts given as ids:
// the fact pred(t[row[0]], …, t[row[arity-1]]) for each arity-long row of
// rows, in order, where t is dict.Terms(). The rows must be distinct, and
// every id must be below len(t). When dict lists its constants in the order
// in which the rows first mention them, the instance is the one NewInstance
// makes of the decoded atoms, down to its ids and bucket orders, without an
// atom being built or a term hashed.
//
// The load is O(1): the relation is frozen (relation.go), reading rows in
// place and building its set and each position's index on first use. The
// instance resolves its first ids through dict and interns later terms above
// them, and its first write to the relation copies rows, so it writes into
// neither: both may be shared by every instance loaded from them.
func FromRows(pred string, dict *Dict, arity int, rows []uint32) *Instance {
	if len(rows) == 0 {
		return NewInstance()
	}
	if arity <= 0 || len(rows)%arity != 0 {
		panic(fmt.Sprintf("chase: %d ids are not rows of arity %d", len(rows), arity))
	}
	r := newFrozen(pred, arity, len(dict.terms), rows)
	return &Instance{
		dict:      dict,
		baseTerms: len(dict.terms),
		preds:     []string{pred},
		predID:    map[string]uint32{pred: 0},
		rels:      []*relation{r},
		n:         r.n,
	}
}

// packFact appends a key identifying a row of a predicate to buf.
func packFact(buf []byte, pid uint32, row []uint32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, pid)
	for _, id := range row {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf
}
