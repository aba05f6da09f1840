package bench

import (
	"fmt"
	"time"

	"repro"

	"repro/internal/chase"
	"repro/internal/mat"
	"repro/internal/rdf"
	"repro/internal/triq"
	"repro/internal/workload"
)

// E16: incremental materialization. Three questions, one table:
//
//  1. Warm-serve speedup: after a 1-triple insert, how much faster is a
//     query answered from the DRed/semi-naive-maintained materialization
//     than re-chasing the whole graph (the E11 transport workload)?
//  2. Maintain cost: how does the latency of folding one committed batch
//     into the warm instance scale with the batch size, for both inserts
//     (semi-naive) and deletes (DRed)?
//  3. Write-heavy mix: under an insert/delete/query interleaving, does the
//     materialization stay warm — every query served from it — and what is
//     the sustained maintenance latency?
//
// The deterministic checks (Table.OK) are warm answers identical to the
// re-chase and neither mutation sequence losing the warm entry; the
// wall-clock gates (Table.GateFailures) are the warm speedup floor after a
// 1-triple insert and maintenance cost proportional to the delta (per-triple
// cost must not blow up with batch size).

// e16Reps is the best-of repetitions per latency point.
const e16Reps = 5

// e16SpeedupFloor is the acceptance bar for warm serving vs re-chase after a
// single-triple insert. Six runs on the reference host measured 3.6–6.7×;
// the ratio was 6.8–10.4× while the re-chase still copied the database per
// run, so the floor guards the warm path's advantage, not the chase's speed.
const e16SpeedupFloor = 2.0

// e16Harness is one transport store wired into a materializer.
type e16Harness struct {
	st *repro.Store
	m  *mat.Materializer
	q  repro.Query
	co chase.Options
}

func newE16Harness(lines, depth, cities int) (*e16Harness, error) {
	co := chase.Options{Parallelism: parallelism}
	m := mat.New(mat.Config{Chase: co})
	scfg := repro.StoreConfig{}
	scfg.OnCommit = m.OnCommit
	st, _, err := repro.OpenStore(scfg)
	if err != nil {
		return nil, err
	}
	m.Reset(st.Current().Seq)
	g := workload.TransportGraph(lines, depth, cities, "e16")
	if _, _, err := st.Insert(g.Triples()); err != nil {
		st.Close()
		return nil, err
	}
	return &e16Harness{st: st, m: m, q: workload.TransportQuery(), co: co}, nil
}

func (h *e16Harness) opts() repro.Options {
	return repro.Options{Chase: h.co, Mat: h.m, MatEpoch: h.st.Current().Seq}
}

// build performs the cold evaluation that installs the materialization and
// verifies the entry is warm afterwards.
func (h *e16Harness) build() error {
	if _, err := repro.Ask(h.st.Current().Graph, h.q, repro.TriQLite10, h.opts()); err != nil {
		return err
	}
	if _, ok := triq.ServeMaterialized(h.q, repro.TriQLite10, h.opts()); !ok {
		return fmt.Errorf("cold build did not install the materialization")
	}
	return nil
}

// warmAsk evaluates through the materialization fast path and fails if the
// answer was not actually served from the warm instance.
func (h *e16Harness) warmAsk() (*repro.Results, error) {
	if _, ok := triq.ServeMaterialized(h.q, repro.TriQLite10, h.opts()); !ok {
		return nil, fmt.Errorf("epoch %d not served warm", h.st.Current().Seq)
	}
	return repro.Ask(h.st.Current().Graph, h.q, repro.TriQLite10, h.opts())
}

// e16Render canonicalizes answers for identity checks.
func e16Render(res *repro.Results) string {
	out := fmt.Sprintf("inconsistent=%v\n", res.Inconsistent)
	for _, row := range res.Rows() {
		out += row + "\n"
	}
	return out
}

// e16Fresh builds batch-distinct triples that extend line 0's city chain, so
// every one of them feeds the recursive conn derivation.
func e16Fresh(tag string, n int) []rdf.Triple {
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.T(fmt.Sprintf("e16x-%s-%d", tag, i), "e16_line0", fmt.Sprintf("e16x-%s-%d'", tag, i))
	}
	return ts
}

// bestOf runs f e16Reps times and returns the minimum wall clock.
func bestOf(f func() error) (time.Duration, error) {
	var best time.Duration
	for rep := 0; rep < e16Reps; rep++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// RunE16 measures the incremental materialization maintain/serve path.
func RunE16() *Table {
	t := &Table{
		ID:      "E16",
		Title:   "Incremental materialization: maintain cost and warm-serve speedup",
		Claim:   "semi-naive insert deltas and DRed deletes keep the chased fixpoint warm: queries skip the re-chase entirely and maintenance cost tracks the delta, not the database",
		Columns: []string{"scenario", "point", "warm / maintain", "re-chase / per-triple", "speedup / note"},
		OK:      true,
	}
	fail := func(format string, args ...any) {
		t.OK = false
		t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	}

	// 1. Warm vs re-chase after a single-triple insert.
	for _, lines := range []int{8, 24, 48} {
		name := fmt.Sprintf("transport lines=%d", lines)
		h, err := newE16Harness(lines, 3, 6)
		if err != nil {
			fail("%s: %v", name, err)
			continue
		}
		if err := h.build(); err != nil {
			h.st.Close()
			fail("%s: cold build: %v", name, err)
			continue
		}
		if _, _, err := h.st.Insert(e16Fresh("one", 1)); err != nil {
			h.st.Close()
			fail("%s: 1-triple insert: %v", name, err)
			continue
		}
		var warmRes, chaseRes *repro.Results
		warm, err := bestOf(func() error { warmRes, err = h.warmAsk(); return err })
		if err != nil {
			h.st.Close()
			fail("%s: warm ask: %v", name, err)
			continue
		}
		rechase, err := bestOf(func() error {
			chaseRes, err = repro.Ask(h.st.Current().Graph, h.q, repro.TriQLite10, repro.Options{Chase: h.co})
			return err
		})
		if err != nil {
			h.st.Close()
			fail("%s: re-chase: %v", name, err)
			continue
		}
		if e16Render(warmRes) != e16Render(chaseRes) {
			fail("%s: warm answers diverge from the re-chase", name)
		}
		speedup := float64(rechase) / float64(warm)
		if speedup < e16SpeedupFloor {
			t.gate("%s: warm speedup %.1fx under the %.0fx floor", name, speedup, e16SpeedupFloor)
		}
		t.Rows = append(t.Rows, []string{
			"warm vs re-chase", name, dur(warm), dur(rechase), fmt.Sprintf("%.1fx", speedup),
		})
		t.Breakdown = append(t.Breakdown,
			StageMetric{Stage: name, Metric: "answers", Value: fmt.Sprintf("%d", len(warmRes.Tuples))},
			StageMetric{Stage: name, Metric: "mat_facts", Value: fmt.Sprintf("%d", h.m.Snapshot().Facts)})
		h.st.Close()
	}

	// 2. Maintain latency vs batch size, inserts then DRed deletes.
	{
		h, err := newE16Harness(24, 3, 6)
		if err != nil {
			fail("maintain sweep: %v", err)
		} else {
			if err := h.build(); err != nil {
				fail("maintain sweep: cold build: %v", err)
			}
			type point struct {
				size      int
				ins, del  time.Duration
				perTriple time.Duration
			}
			var points []point
			for _, size := range []int{1, 8, 64, 256} {
				batch := e16Fresh(fmt.Sprintf("b%d", size), size)
				start := time.Now()
				if _, _, err := h.st.Insert(batch); err != nil {
					fail("maintain sweep insert n=%d: %v", size, err)
					break
				}
				ins := time.Since(start)
				start = time.Now()
				if _, _, err := h.st.Delete(batch); err != nil {
					fail("maintain sweep delete n=%d: %v", size, err)
					break
				}
				del := time.Since(start)
				per := (ins + del) / time.Duration(2*size)
				points = append(points, point{size: size, ins: ins, del: del, perTriple: per})
				t.Rows = append(t.Rows, []string{
					"maintain vs batch", fmt.Sprintf("n=%d", size),
					fmt.Sprintf("ins %s / del %s", dur(ins), dur(del)),
					fmt.Sprintf("%s/triple", dur(per)),
					"insert=semi-naive, delete=DRed",
				})
			}
			// Proportionality gate: per-triple cost must not explode as the
			// batch grows — folding a 256-triple delta is allowed fixed
			// overhead but not a superlinear blowup over the 8-triple point.
			if len(points) == 4 {
				base, big := points[1], points[3]
				if big.perTriple > 10*base.perTriple {
					t.gate("maintain cost superlinear: %s/triple at n=%d vs %s/triple at n=%d",
						dur(big.perTriple), big.size, dur(base.perTriple), base.size)
				}
			}
			if snap := h.m.Snapshot(); snap.Programs != 1 {
				fail("maintain sweep dropped the materialization")
			}
			h.st.Close()
		}
	}

	// 3. Write-heavy mix: inserts, DRed deletes, and queries interleaved.
	{
		h, err := newE16Harness(16, 3, 6)
		if err != nil {
			fail("write mix: %v", err)
		} else {
			if err := h.build(); err != nil {
				fail("write mix: cold build: %v", err)
			}
			var pending [][]rdf.Triple
			var maintain time.Duration
			mutations, queries := 0, 0
			for i := 0; i < 60; i++ {
				switch i % 3 {
				case 0, 1: // write-heavy: two mutations per query
					var err error
					start := time.Now()
					if len(pending) > 2 && i%2 == 0 {
						_, _, err = h.st.Delete(pending[0])
						pending = pending[1:]
					} else {
						batch := e16Fresh(fmt.Sprintf("mix%d", i), 4)
						_, _, err = h.st.Insert(batch)
						pending = append(pending, batch)
					}
					maintain += time.Since(start)
					mutations++
					if err != nil {
						fail("write mix op %d: %v", i, err)
						i = 60
					}
				default:
					if _, err := h.warmAsk(); err != nil {
						fail("write mix query %d: %v", i, err)
						i = 60
					}
					queries++
				}
			}
			if snap := h.m.Snapshot(); snap.Programs != 1 {
				fail("write mix dropped the materialization")
			}
			if mutations > 0 {
				t.Rows = append(t.Rows, []string{
					"write-heavy mix",
					fmt.Sprintf("%d mutations / %d queries", mutations, queries),
					fmt.Sprintf("%s/mutation", dur(maintain/time.Duration(mutations))),
					"-",
					"every query served warm",
				})
			}
			h.st.Close()
		}
	}

	t.Notes = append(t.Notes,
		"Warm latency is the full facade Ask through the materialization fast path (no graph→instance load, no chase); re-chase is the identical Ask without a materializer.",
		"Maintenance latency is the store mutation end to end: the commit plus the synchronous OnCommit fold, i.e. what a writer actually waits for.")
	return t
}
