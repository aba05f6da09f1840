// Package mat maintains chased materializations incrementally across store
// epochs. A Materializer holds, per program, one chase.Incremental instance
// — the Skolem-chase fixpoint of that program over the live graph's τ_db
// encoding — and folds every committed store delta into all of them: an
// insert resumes the chase over the batch, a delete runs DRed (over-delete,
// re-derive) on the same engine. Queries pinned to the epoch the
// materializer is at are answered straight from the warm instance instead of
// re-chasing the whole graph; everything else falls back to the from-scratch
// chase, which stays authoritative. Between two commits a program has one
// answer, so each entry keeps, per output predicate, the sorted answer view
// of the current epoch: the first read builds it and every later read of the
// epoch shares it.
//
// Entries are built lazily: the first (cold) evaluation of a program builds
// the materialization through triq's BuildServeKey hook, and subsequent commits
// keep it warm. A build the data declines — it trips a bound (depth, facts,
// rounds) — is not tried again before the next commit. A maintenance pass
// that trips a bound or fails in any way drops the entry — a partial
// materialization is never served — and the next query simply rebuilds or
// chases. Wholesale state replacements (bootstrap, replica snapshot install,
// recovery) reset the materializer; entries rebuild lazily from the new
// graph.
package mat

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/store"
	"repro/internal/triq"
)

// Config assembles a Materializer.
type Config struct {
	// Chase bounds builds and maintenance passes. Serving requires the
	// querying side to use identical bounds (see compatible); triqd
	// guarantees that by configuring both from the same flags.
	Chase chase.Options
	// MaxFacts caps one materialized instance (-mat-max-facts). An entry
	// that grows past the cap is dropped; 0 defaults to Chase.MaxFacts.
	MaxFacts int
	// MaxPrograms caps how many programs are kept materialized at once
	// (least-recently-served eviction). Default 4.
	MaxPrograms int
	// Obs receives the mat.* gauges and maintenance metrics.
	Obs *obs.Obs
}

// entry is one program's warm materialization.
type entry struct {
	inc  *chase.Incremental
	used int64 // LRU tick of the last serve/build
	// views holds, per output predicate, the answer served at the
	// materializer's epoch; a commit clears it.
	views map[string]*triq.MatServed
}

// Materializer implements triq.Materializer over a set of incrementally
// maintained program materializations, all pinned to one store epoch. It is
// safe for concurrent use; maintenance and serving serialize on one lock
// (maintenance runs under the store's commit lock anyway, and serving hands
// out a read-only answer view so evaluation never holds the lock).
type Materializer struct {
	cfg Config

	mu        sync.Mutex
	epoch     uint64
	haveEpoch bool
	entries   map[string]*entry // by the program's full rendering
	tick      int64
	// declined holds the programs whose build the data at the current epoch
	// declined (see BuildServeKey); a commit or Reset clears it.
	declined map[string]bool
}

// maxDeclined bounds the decline memo: a server that sees no commit may be
// sent any number of distinct programs, and past the bound the memo starts
// over instead of growing.
const maxDeclined = 64

// New builds an empty Materializer. Call Reset with the store's recovered
// epoch before serving, then feed every commit through OnCommit (wire it as
// store.Config.OnCommit).
func New(cfg Config) *Materializer {
	cfg.Chase = cfg.Chase.WithDefaults()
	if cfg.MaxFacts <= 0 {
		cfg.MaxFacts = cfg.Chase.MaxFacts
	}
	if cfg.MaxPrograms <= 0 {
		cfg.MaxPrograms = 4
	}
	return &Materializer{cfg: cfg, entries: make(map[string]*entry), declined: make(map[string]bool)}
}

// compatible reports whether answers materialized under the configured chase
// bounds are exchangeable for a chase under copts: the same bounds (a
// materialization built at MaxDepth 12 must not answer for a
// query that would chase at MaxDepth 3). Observability differences don't
// affect answers.
func (m *Materializer) compatible(copts chase.Options) bool {
	copts = copts.WithDefaults()
	c := m.cfg.Chase
	return copts.MaxDepth == c.MaxDepth &&
		copts.MaxFacts == c.MaxFacts &&
		copts.MaxRounds == c.MaxRounds
}

// Epoch returns the store epoch the materializer is at (false before the
// first Reset/commit).
func (m *Materializer) Epoch() (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch, m.haveEpoch
}

// Stats is a point-in-time snapshot for /metrics gauges.
type Stats struct {
	Epoch    uint64
	Programs int
	Facts    int
}

// Snapshot returns the current gauge values.
func (m *Materializer) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Epoch: m.epoch, Programs: len(m.entries)}
	for _, e := range m.entries {
		st.Facts += e.inc.Facts()
	}
	return st
}

// Reset drops every entry and pins the materializer to the given epoch. Use
// it at startup (with the recovered epoch) and after any state change that
// did not flow through OnCommit.
func (m *Materializer) Reset(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resetLocked(epoch)
}

func (m *Materializer) resetLocked(epoch uint64) {
	m.entries = make(map[string]*entry)
	clear(m.declined)
	m.epoch = epoch
	m.haveEpoch = true
	m.gaugesLocked()
}

// OnCommit folds one committed store batch into every entry and advances the
// materializer's epoch; wire it as store.Config.OnCommit so it runs before
// the mutation is acknowledged and queries pinned to the new epoch always
// find the materialization already caught up. Snapshot events (bootstrap,
// replica snapshot install) reset the materializer instead. An entry whose
// maintenance fails or overflows MaxFacts is dropped.
func (m *Materializer) OnCommit(ev store.CommitEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ev.Op != store.OpInsert && ev.Op != store.OpDelete {
		m.resetLocked(ev.Epoch)
		return
	}
	atoms := make([]datalog.Atom, len(ev.Triples))
	for i, t := range ev.Triples {
		atoms[i] = owl.TripleAtom(t)
	}
	ctx := context.Background()
	for key, e := range m.entries {
		clear(e.views)
		start := time.Now()
		var st chase.MaintainStats
		var err error
		if ev.Op == store.OpInsert {
			st, err = e.inc.Insert(ctx, atoms)
		} else {
			st, err = e.inc.Delete(ctx, atoms)
		}
		if err != nil || e.inc.Facts() > m.cfg.MaxFacts {
			delete(m.entries, key)
			m.cfg.Obs.Count("mat.dropped", 1)
			continue
		}
		m.maintainMetrics(st, time.Since(start))
	}
	clear(m.declined)
	m.epoch = ev.Epoch
	m.haveEpoch = true
	m.gaugesLocked()
}

func (m *Materializer) maintainMetrics(st chase.MaintainStats, elapsed time.Duration) {
	o := m.cfg.Obs
	o.Observe("mat.maintain_us", float64(elapsed.Microseconds()))
	o.Observe("mat.maintain_delta", float64(st.DeltaIn))
	o.Count("mat.maintain_passes", 1)
	o.Count("mat.triggers", int64(st.Triggers))
	o.Count("mat.derived", int64(st.Derived))
	o.Count("mat.deleted", int64(st.Deleted))
	if st.OverDeleted > 0 {
		// Rederive fraction: how much of the DRed over-deletion came back
		// (all a delete pass derives).
		o.Observe("mat.rederive_fraction", float64(st.Derived)/float64(st.OverDeleted))
		o.Count("mat.overdeleted", int64(st.OverDeleted))
		o.Count("mat.rederived", int64(st.Derived))
	}
}

func (m *Materializer) gaugesLocked() {
	o := m.cfg.Obs
	if !o.Enabled() {
		return
	}
	o.Gauge("mat.epoch", float64(m.epoch))
	o.Gauge("mat.programs", float64(len(m.entries)))
	facts := 0
	for _, e := range m.entries {
		facts += e.inc.Facts()
	}
	o.Gauge("mat.facts", float64(facts))
}

// Serve is ServeKey for a program the caller has not rendered yet.
func (m *Materializer) Serve(prog *datalog.Program, epoch uint64, output string, copts chase.Options) *triq.MatServed {
	return m.ServeKey(prog.String(), epoch, output, copts)
}

// ServeKey implements triq.Materializer: it answers from a warm entry when the
// program whose rendering is key is materialized, the pinned epoch matches
// exactly, and the chase bounds are compatible. The first read of an output at
// an epoch builds its view under the lock (maintenance filters instance
// buckets in place, and a view built outside it would have to check the epoch
// again before publishing); every later read of the epoch returns the same
// view.
func (m *Materializer) ServeKey(key string, epoch uint64, output string, copts chase.Options) *triq.MatServed {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.haveEpoch || epoch != m.epoch || !m.compatible(copts) {
		return nil
	}
	e := m.entries[key]
	if e == nil {
		return nil
	}
	m.tick++
	e.used = m.tick
	m.cfg.Obs.Count("mat.hits", 1)
	v := e.views[output]
	if v == nil {
		v = served(e.inc, output)
		e.views[output] = v
		m.cfg.Obs.Count("mat.view_builds", 1)
	}
	return v
}

// served builds the answer view of one output predicate: Q(D) read off the
// instance by triq.AnswersOf, the one copy of its tuples sized in advance and
// sorted.
func served(inc *chase.Incremental, output string) *triq.MatServed {
	in := inc.Instance()
	top := len(in.AtomsOf(datalog.InconsistencyMarker)) > 0
	var atoms []datalog.Atom
	if !top {
		atoms = in.GroundAtomsOf(output)
	}
	ans := triq.AnswersOf(top, atoms)
	return &triq.MatServed{Output: ans.Tuples, Inconsistent: ans.Inconsistent,
		Facts: inc.Facts(), Depth: inc.Depth()}
}

// BuildServeKey implements the cold half of triq.Materializer: when the
// program, whose rendering is key, is not materialized yet, build its fixpoint
// from the database the caller already constructed, serve the answer, and —
// provided the store did not move on while building — install the entry, with
// the answer as its view of the epoch, so the next reads share it and the next
// commits keep it warm. It declines ((nil, nil)) when the epoch is stale, the
// bounds are incompatible, the program is not maintainable (negation), or the
// build trips a budget; the caller then falls back to the chase. A build is a
// function of the epoch's data, so one that tripped the depth or a fact or
// round bound is remembered and declined without a build until the next
// commit; one the request's context cut short is not.
func (m *Materializer) BuildServeKey(ctx context.Context, db *chase.Instance, prog *datalog.Program, key string, epoch uint64, output string, copts chase.Options) (*triq.MatServed, error) {
	m.mu.Lock()
	if !m.haveEpoch || epoch != m.epoch || !m.compatible(copts) || m.declined[key] {
		m.mu.Unlock()
		return nil, nil
	}
	m.mu.Unlock()

	// Build outside the lock: a from-scratch chase can be long, and commits
	// must not stall behind it.
	bopts := m.cfg.Chase
	bopts.Obs = copts.Obs // the build is a chase of the request's; the entry keeps none of it
	start := time.Now()
	inc, err := chase.NewIncremental(ctx, db, prog, bopts)
	if err != nil || inc.Facts() > m.cfg.MaxFacts {
		m.cfg.Obs.Count("mat.build_declined", 1)
		if err == nil || errors.Is(err, chase.ErrMaintainDepth) || limits.IsBudget(err) {
			m.mu.Lock()
			if m.haveEpoch && m.epoch == epoch {
				if len(m.declined) >= maxDeclined {
					clear(m.declined)
				}
				m.declined[key] = true
			}
			m.mu.Unlock()
		}
		return nil, nil
	}
	m.cfg.Obs.Observe("mat.build_us", float64(time.Since(start).Microseconds()))
	// No other goroutine sees inc before it is installed, so its view is
	// built before taking the lock that commits and warm reads wait on.
	out := served(inc, output)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.haveEpoch && m.epoch == epoch {
		// Still at the build's epoch: install (evicting the stalest entry
		// over MaxPrograms) so commits maintain it from here on.
		m.tick++
		m.entries[key] = &entry{inc: inc, used: m.tick, views: map[string]*triq.MatServed{output: out}}
		for len(m.entries) > m.cfg.MaxPrograms {
			var oldKey string
			oldest := int64(1<<63 - 1)
			for k, e := range m.entries {
				if e.used < oldest {
					oldest, oldKey = e.used, k
				}
			}
			delete(m.entries, oldKey)
			m.cfg.Obs.Count("mat.evicted", 1)
		}
		m.gaugesLocked()
	}
	// Either way the answer is valid for the pinned epoch the db was read at.
	m.cfg.Obs.Count("mat.builds", 1)
	return out, nil
}
