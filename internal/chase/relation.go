package chase

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/datalog"
)

// relation holds one layer's facts of one predicate as rows of term ids, in
// insertion order. Nothing in it is per-fact but integers: the rows are one
// []uint32, the set is an open-addressing table of row numbers, and the
// index lists are []int32 of row numbers.
type relation struct {
	pred string
	// arity is the length of every row, or -1 once rows of two lengths are
	// stored (a database may use a name at another arity than the program);
	// ends then says where each row ends in data.
	arity int
	data  []uint32
	ends  []int32
	n     int
	// table is the set: linear probing over row number + 1, 0 marking an
	// empty slot, its size a power of two kept at most three quarters full.
	// Rows only ever leave it last first (truncate) or all at once (compact).
	table []int32
	// idx[pos][term] numbers the list in lists of the rows, ascending, that
	// hold term at pos. A list a truncation empties keeps its number.
	idx   []map[uint32]int32
	lists [][]int32
	// memo holds the rows decoded as atoms, a prefix of them or all; see atoms.
	memo atomic.Pointer[[]datalog.Atom]
	mu   sync.Mutex
}

func newRelation(pred string, arity, rows int) *relation {
	r := &relation{pred: pred, arity: arity}
	if rows > 0 {
		r.data = make([]uint32, 0, rows*arity)
		size := 8
		for 3*size < 4*rows {
			size *= 2
		}
		r.table = make([]int32, size)
	}
	return r
}

// reset empties a relation used as a plain set of rows of the given arity
// (one that is never indexed or decoded), keeping its storage.
func (r *relation) reset(arity int) {
	r.arity, r.data, r.ends, r.n = arity, r.data[:0], nil, 0
	clear(r.table)
}

// row returns row k; it must not be modified.
func (r *relation) row(k int) []uint32 {
	if r.ends == nil {
		return r.data[k*r.arity : (k+1)*r.arity : (k+1)*r.arity]
	}
	lo := int32(0)
	if k > 0 {
		lo = r.ends[k-1]
	}
	return r.data[lo:r.ends[k]:r.ends[k]]
}

// start returns where row k starts in data; start(n) is len(data).
func (r *relation) start(k int) int {
	if r.ends == nil {
		return k * r.arity
	}
	if k == 0 {
		return 0
	}
	return int(r.ends[k-1])
}

// hashRow mixes a row's ids into a table position.
func hashRow(row []uint32) int {
	h := uint64(len(row)) * 0x9e3779b97f4a7c15
	for _, id := range row {
		h = (h ^ uint64(id)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return int(h >> 1)
}

// find returns the number of the row equal to row, or -1; a nil relation
// holds nothing.
func (r *relation) find(row []uint32) int {
	if r == nil || r.n == 0 {
		return -1
	}
	_, k := r.probe(row)
	return k
}

// probe returns the slot holding row, and its number, or the empty slot where
// it would go, and -1.
func (r *relation) probe(row []uint32) (slot, k int) {
	mask := len(r.table) - 1
	for s := hashRow(row) & mask; ; s = (s + 1) & mask {
		v := r.table[s]
		if v == 0 {
			return s, -1
		}
		if slices.Equal(r.row(int(v-1)), row) {
			return s, int(v - 1)
		}
	}
}

// insert appends row unless the relation holds it, returning its number and
// whether it was new. It does not index the row.
func (r *relation) insert(row []uint32) (k int, added bool) {
	if 4*(r.n+1) > 3*len(r.table) {
		r.rehash(max(8, 2*len(r.table)))
	}
	s, k := r.probe(row)
	if k >= 0 {
		return k, false
	}
	if r.ends == nil && len(row) != r.arity {
		r.ends = make([]int32, r.n, r.n+1)
		for j := range r.ends {
			r.ends[j] = int32((j + 1) * r.arity)
		}
		r.arity = -1
	}
	r.data = append(r.data, row...)
	if r.ends != nil {
		r.ends = append(r.ends, int32(len(r.data)))
	}
	r.table[s] = int32(r.n + 1)
	r.n++
	return r.n - 1, true
}

// rehash rebuilds the table at the given size from the rows.
func (r *relation) rehash(size int) {
	if len(r.table) == size {
		clear(r.table)
	} else {
		r.table = make([]int32, size)
	}
	mask := size - 1
	for k := range r.n {
		s := hashRow(r.row(k)) & mask
		for r.table[s] != 0 {
			s = (s + 1) & mask
		}
		r.table[s] = int32(k + 1)
	}
}

// indexRow adds row k to the index lists of its terms.
func (r *relation) indexRow(k int, row []uint32) {
	for len(r.idx) < len(row) {
		r.idx = append(r.idx, make(map[uint32]int32))
	}
	for pos, id := range row {
		b, ok := r.idx[pos][id]
		if !ok {
			b = int32(len(r.lists))
			r.idx[pos][id] = b
			r.lists = append(r.lists, nil)
		}
		r.lists[b] = append(r.lists[b], int32(k))
	}
}

// buildIndex indexes every row of a relation filled by insert alone. The lists
// are counted before they are filled and carved from one slab, each with cap
// == len: the owner may still add rows, and an append to a list with spare
// capacity would write into its neighbour.
func (r *relation) buildIndex() {
	if r == nil {
		return
	}
	var counts []int32
	slots := make([]int32, 0, len(r.data)) // the list of every (row, position), in order
	for k := range r.n {
		row := r.row(k)
		for len(r.idx) < len(row) {
			r.idx = append(r.idx, make(map[uint32]int32))
		}
		for pos, id := range row {
			b, ok := r.idx[pos][id]
			if !ok {
				b = int32(len(counts))
				r.idx[pos][id] = b
				counts = append(counts, 0)
			}
			counts[b]++
			slots = append(slots, b)
		}
	}
	slab := make([]int32, len(slots))
	r.lists = make([][]int32, len(counts))
	off := int32(0)
	for b, c := range counts {
		r.lists[b] = slab[off : off : off+c]
		off += c
	}
	j := 0
	for k := range r.n {
		for range r.row(k) {
			b := slots[j]
			r.lists[b] = append(r.lists[b], int32(k))
			j++
		}
	}
}

// rowsWith returns the numbers of the rows holding id at pos; the slice must
// not be modified.
func (r *relation) rowsWith(pos int, id uint32) []int32 {
	if r == nil || pos >= len(r.idx) {
		return nil
	}
	if b, ok := r.idx[pos][id]; ok {
		return r.lists[b]
	}
	return nil
}

// truncate removes the rows from keep on, the last first, so that each
// leaves the end of its index lists. The table always holds what placing the
// rows in order leaves (insert, rehash), and a row placed last probed past
// none placed after it, so emptying its slot is all its removal takes.
func (r *relation) truncate(keep int) {
	if keep >= r.n {
		return
	}
	for k := r.n - 1; k >= keep; k-- {
		row := r.row(k)
		s, _ := r.probe(row)
		r.table[s] = 0
		for pos, id := range row {
			b := r.idx[pos][id]
			r.lists[b] = r.lists[b][:len(r.lists[b])-1]
		}
	}
	r.data = r.data[:r.start(keep)]
	if r.ends != nil {
		r.ends = r.ends[:keep]
	}
	r.n = keep
	if p := r.memo.Load(); p != nil && len(*p) > keep {
		m := (*p)[:keep:keep]
		r.memo.Store(&m)
	}
}

// compact removes the rows drop marks and renumbers the rest, in order: the
// data, the decoded atoms and the index lists are filtered in place, and the
// table is rebuilt.
func (r *relation) compact(drop []bool) {
	var memo []datalog.Atom
	if p := r.memo.Load(); p != nil {
		memo = *p
	}
	renum := make([]int32, r.n)
	lo, out, w, mw := 0, 0, 0, 0
	for k := range r.n {
		hi := lo + r.arity
		if r.ends != nil {
			hi = int(r.ends[k])
		}
		if drop[k] {
			renum[k] = -1
		} else {
			renum[k] = int32(w)
			out += copy(r.data[out:], r.data[lo:hi])
			if r.ends != nil {
				r.ends[w] = int32(out)
			}
			if k < len(memo) {
				memo[w], mw = memo[k], w+1
			}
			w++
		}
		lo = hi
	}
	r.data, r.n = r.data[:out], w
	if r.ends != nil {
		r.ends = r.ends[:w]
	}
	if memo != nil {
		memo = memo[:mw]
		r.memo.Store(&memo)
	}
	r.rehash(len(r.table))
	for b, list := range r.lists {
		kept := list[:0]
		for _, k := range list {
			if nk := renum[k]; nk >= 0 {
				kept = append(kept, nk)
			}
		}
		r.lists[b] = kept
	}
}

// atoms returns the relation's rows decoded as atoms through the dictionary
// of in, the instance whose layer the relation is; the slice must not be
// modified. What it decodes stays in memo, and later calls decode only the
// rows added since, so a relation that has not changed decodes nothing.
//
// A base is read by any number of layers on any number of goroutines, and
// each may ask for its atoms. The base is frozen, so its r.n does not change;
// a memo that covers all of it is final and is read without the lock, and
// decoding happens under the lock, which the second of two racing readers
// takes only to find the work done. A layer's own relations belong to one
// goroutine, which alone changes them.
func (r *relation) atoms(in *Instance) []datalog.Atom {
	if r == nil {
		return nil
	}
	if p := r.memo.Load(); p != nil && len(*p) == r.n {
		return *p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var have []datalog.Atom
	if p := r.memo.Load(); p != nil {
		have = *p
	}
	if len(have) < r.n {
		have = r.decode(in, have, len(have), r.n)
		r.memo.Store(&have)
	}
	return have
}

// decode appends rows from up to to, decoded, to dst; the atoms' arguments
// share one slab.
func (r *relation) decode(in *Instance, dst []datalog.Atom, from, to int) []datalog.Atom {
	args := make([]datalog.Term, r.start(to)-r.start(from))
	dst = slices.Grow(dst, to-from)
	for k := from; k < to; k++ {
		row := r.row(k)
		var a []datalog.Term
		if len(row) > 0 {
			a, args = args[:len(row):len(row)], args[len(row):]
			for j, id := range row {
				a[j] = in.term(id)
			}
		}
		dst = append(dst, datalog.Atom{Pred: r.pred, Args: a})
	}
	return dst
}
