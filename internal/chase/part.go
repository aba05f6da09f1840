package chase

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/datalog"
)

// The library's database part, once per graph. Every program composed with a
// library (datalog.Compose) holds the library's database part
// (datalog.Library.DatabasePart), whose fixpoint over τ_db(G) no query rule can
// change. A composed evaluation over an untouched load of a graph's encoding
// finds that fixpoint in a memo on the encoding's Dict, building it on the
// first request, and chases the rest of the program in a layer over it: the
// part's rules take no turn (DESIGN.md, "The library's database part, once per
// graph").

// LibraryBase reports how an evaluation used its library's database part: the
// part's fixpoint over the database, kept once per graph encoding and library,
// which the evaluation started from instead of deriving it.
type LibraryBase struct {
	// Built says the evaluation computed the fixpoint and left it in the memo;
	// false, that it found it there.
	Built bool `json:"built"`
	// Facts counts the fixpoint's facts, the database's included.
	Facts int `json:"facts"`
}

// partBase is the memo of one library's database part over the load of one
// Dict: the fixpoint, built once. A build a limit cuts short leaves it empty,
// and the next evaluation tries again.
type partBase struct {
	mu   sync.Mutex
	inst atomic.Pointer[Instance] // the fixpoint, a flat instance; nil until built
	// pred and rows name the load the fixpoint was built from.
	pred string
	rows []uint32
}

// partBaseOf returns the fixpoint of the library database part of prog over
// db, and how the evaluation got it, when an evaluation of prog over db may
// start from it; nil otherwise, and the evaluation takes the ordinary path.
// It may when prog is composed, its library has a database part, and db is an
// untouched load (FromRows) — flat, its loaded relation never written — whose
// other facts are of predicates the part does not read; and the fixpoint and
// those facts together stay under opts.MaxFacts, so a budget trips where it
// would on the ordinary path. The first evaluation over a load builds the
// fixpoint, under its context and bounds; concurrent ones wait for it.
func partBaseOf(ctx context.Context, db *Instance, prog *datalog.Program, opts Options) (*Instance, *LibraryBase) {
	plan := prog.Composed()
	if plan == nil || len(plan.Library.DatabasePart()) == 0 || db.base != nil || db.dict == nil {
		return nil, nil
	}
	loaded := db.rel(0)
	if loaded == nil || loaded.frozen == nil {
		return nil, nil
	}
	lib, extra := plan.Library, 0
	for pid := 1; pid < len(db.rels); pid++ {
		if r := db.rels[pid]; r != nil && r.n > 0 {
			if lib.ReadByDatabasePart(db.preds[pid]) {
				return nil, nil
			}
			extra += r.n
		}
	}
	v, ok := db.dict.parts.Load(lib)
	if !ok {
		v, _ = db.dict.parts.LoadOrStore(lib, new(partBase))
	}
	pb := v.(*partBase)
	base, built := pb.inst.Load(), false
	if base == nil {
		if base, built = pb.build(ctx, db, lib, opts); base == nil {
			return nil, nil
		}
	}
	if pb.pred != db.preds[0] || len(pb.rows) != len(loaded.data) || &pb.rows[0] != &loaded.data[0] ||
		base.Len()+extra >= opts.MaxFacts {
		return nil, nil
	}
	return base, &LibraryBase{Built: built, Facts: base.Len()}
}

// build chases the library's database part over a load of db's relation and
// keeps the fixpoint, unless another evaluation did so first; it reports
// whether this one did. The build is no part of the evaluation's own chase:
// it has no span and no pprof label, passes no fault site, and its work is not
// in the chase.* counters or in Stats, so an evaluation that builds the
// fixpoint and one that finds it count, and trip a fault plan, alike;
// chase.library_base_builds counts the builds. On a budget trip or a
// cancellation it returns nil and leaves the memo empty.
func (pb *partBase) build(ctx context.Context, db *Instance, lib *datalog.Library, opts Options) (*Instance, bool) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if inst := pb.inst.Load(); inst != nil {
		return inst, false
	}
	loaded := db.rel(0)
	inst := FromRows(db.preds[0], db.dict, loaded.arity, loaded.data)
	bopts := Options{MaxDepth: opts.MaxDepth, MaxFacts: opts.MaxFacts, MaxRounds: opts.MaxRounds}
	e, err := prepare(ctx, inst, &datalog.Program{Rules: lib.DatabasePart()}, bopts, false)
	if err != nil {
		return nil, false
	}
	e.ruleLabels, e.partBuild = false, true
	if e.step() != nil {
		return nil, false
	}
	pb.pred, pb.rows = db.preds[0], loaded.data
	pb.inst.Store(inst)
	opts.Obs.Count("chase.library_base_builds", 1)
	return inst, true
}

// layerWith returns a layer over the fixpoint base holding db's facts but
// those of its loaded relation: the instance an evaluation over db starts from
// when it starts from base. db's dictionary is the base's, so a row's ids up
// to the Dict's size carry over; a term db interned itself is interned again.
func (base *Instance) layerWith(db *Instance) *Instance {
	l := base.Overlay()
	var arr [keyBufLen]uint32
	for pid := 1; pid < len(db.rels); pid++ {
		r := db.rels[pid]
		if r == nil || r.n == 0 {
			continue
		}
		lp, _ := l.predOf(db.preds[pid], true)
		for k := range r.n {
			row := arr[:0]
			for _, id := range r.row(k) {
				if int(id) >= db.baseTerms {
					id, _ = l.termOf(db.term(id), true)
				}
				row = append(row, id)
			}
			l.addRow(lp, row)
		}
	}
	return l
}
