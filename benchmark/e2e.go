package main

// One end-to-end run of one workload: set up three times, measure one
// window on the last server, audit durability, apply the validity guards.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// config is what a run needs besides the workload and the seed.
type config struct {
	bin     string        // the triqd binary
	tmp     string        // scratch directory inside the checkout, removed at exit
	out     string        // where traces go
	window  time.Duration // measured window
	setups  int           // set-ups per run; setup_s is their median
	warm    int           // warm-up requests per client, part of set-up
	guarded bool          // apply the run-validity guards (off in -quick)
}

// minSamples is the fewest operations a window may complete and still be
// reported: below it p95 has fewer than five samples beyond it. The sizes are
// chosen so that a window holds 200 to 900 (README.md), ten and more beyond
// p95; the floor leaves room for the host's slow phases, in which the write
// mix commits a third fewer batches.
const minSamples = 100

// The write mix's ratio of reads to commits moves from run to run and a
// commit costs forty times a read, so cost per operation over the window
// would follow the ratio. One read in three hundred is also pinned to the
// epoch a concurrent commit is replacing, misses the materialization and
// pays a cold chase. The mix's cost metrics therefore come from a phase of
// fixed counts after the window, the writer first and then the reader, in
// which both the ratio and the hit rate are the same on every run.
const (
	costReads  = 256
	costWrites = 32
)

// fixedMix is that phase.
func (s *session) fixedMix() tally {
	t := s.loadMix(onlyWriter, 0, costWrites, 0)
	r := s.loadMix(onlyReaders, costReads, 0, 0)
	t.reads, t.attempted, t.failed, t.elapsed = r.reads, t.attempted+r.attempted, t.failed+r.failed, t.elapsed+r.elapsed
	if t.firstErr == nil {
		t.firstErr = r.firstErr
	}
	return t
}

// maxLoadgenShare is the most CPU the load generator may take next to the
// server before the run measures the generator.
const maxLoadgenShare = 0.25

// outcome is the result line of one run plus what is printed beside it.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info map[string]float64 // ungated extras for the human-readable report
}

// window is one measured load phase with what it cost both processes.
type window struct {
	tally
	serverCPU   float64 // seconds of user+system time of the child
	serverAlloc float64 // bytes the child allocated (TotalAlloc delta)
	loadgenCPU  float64 // seconds of CPU of this process
	peakRSS     float64 // MB, high-water mark of the child so far
	slowness    float64 // host speed during the phase (calib.go)
	matHits     float64 // reads the child served from a materialization
}

// loadgenShare is the load generator's part of all CPU time spent.
func (m *window) loadgenShare() float64 { return m.loadgenCPU / (m.loadgenCPU + m.serverCPU) }

// counters are the child's cumulative CPU seconds, allocated bytes and
// materialization hits.
func (s *session) counters() (cpu, alloc, hits float64, err error) {
	if cpu, err = cpuSeconds(s.srv.pid()); err != nil {
		return
	}
	if alloc, err = totalAllocBytes(s.srv.base); err != nil {
		return
	}
	hits, err = counter(s.srv.base, "mat.hits")
	return
}

// measure runs one load phase and samples the child's counters just before
// and after it, with the clients idle.
func measure(s *session, phase func() tally) (*window, error) {
	cpu0, alloc0, hits0, err := s.counters()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	slowness := calibrate()
	m := &window{tally: phase()}
	m.slowness = slowness()
	m.loadgenCPU = selfCPUSeconds() - self0
	cpu1, alloc1, hits1, err := s.counters()
	if err != nil {
		return nil, err
	}
	if m.peakRSS, err = peakRSSMB(s.srv.pid()); err != nil {
		return nil, err
	}
	m.serverCPU, m.serverAlloc, m.matHits = cpu1-cpu0, alloc1-alloc0, hits1-hits0
	return m, nil
}

func runEndToEnd(w *workload, in *inputs, cfg config) (*outcome, error) {
	var s *session
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.close()
		}
		var took time.Duration
		var err error
		s, took, err = setUp(w, in, cfg.bin, filepath.Join(cfg.tmp, fmt.Sprintf("%s-%d", w.name, i)), cfg.warm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}

	m, err := measure(s, func() tally { return s.load(everyone, 0, cfg.window) })
	if err != nil {
		return nil, err
	}
	t := m.tally

	lat := t.reads
	if w.reportWrites {
		lat = t.writes
	}
	if len(lat) == 0 || t.ops() == 0 {
		return nil, fmt.Errorf("%s: no operation completed: %v", w.name, t.firstErr)
	}
	cost := m
	if w.durable {
		if cost, err = measure(s, s.fixedMix); err != nil {
			return nil, err
		}
		t.attempted += cost.attempted
		t.failed += cost.failed
		if t.firstErr == nil {
			t.firstErr = cost.firstErr
		}
	}
	// Everything the clock enters is scaled to the reference host speed, by
	// the slowness measured while it was taken (calib.go); the values as the
	// clock read them are printed beside.
	ms, ops := millis(lat), float64(cost.ops())
	raw := map[string]float64{
		"setup_s":              median(setups),
		"ops_per_s":            float64(len(lat)) / t.elapsed.Seconds(),
		"p50_ms":               quantile(ms, 0.50),
		"p95_ms":               quantile(ms, 0.95),
		"server_cpu_ms_per_op": cost.serverCPU * 1000 / ops,
	}
	values := map[string]float64{"server_alloc_mb_per_op": cost.serverAlloc / (1 << 20) / ops}
	slow := m.slowness
	share := m.loadgenShare()
	o := &outcome{Attempted: t.attempted, Failed: t.failed, info: map[string]float64{
		"host_slowness":     slow,
		"p99_ms":            quantile(ms, 0.99),
		"peak_rss_mb":       cost.peakRSS,
		"samples":           float64(len(lat)),
		"reads":             float64(len(t.reads)),
		"writes":            float64(len(t.writes)),
		"loadgen_cpu_share": share,
		"mat_hit_rate":      m.matHits / math.Max(float64(len(t.reads)), 1),
	}}
	for name, v := range raw {
		o.info["raw_"+name] = v
		switch name {
		case "ops_per_s":
			values[name] = v * slow
		case "server_cpu_ms_per_op":
			values[name] = v / cost.slowness
		default:
			values[name] = v / slow
		}
	}
	firstErr := t.firstErr

	if w.durable {
		attempted, failed, restart, err := s.crashAudit()
		o.Attempted += attempted
		o.Failed += failed
		o.info["restart_to_ready_ms"] = float64(restart) / float64(time.Millisecond)
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failure: %v\n", w.name, firstErr)
	}
	o.Correct = o.Failed == 0

	if cfg.guarded {
		if share > maxLoadgenShare {
			return nil, fmt.Errorf("%s: invalid run: the load generator used %.0f%% of the CPU time (limit %.0f%%)",
				w.name, share*100, maxLoadgenShare*100)
		}
		if len(lat) < minSamples {
			return nil, fmt.Errorf("%s: invalid run: %d samples in %s, p95 needs %d",
				w.name, len(lat), cfg.window, minSamples)
		}
	}
	var missing []string
	if o.Metrics, missing = report(endToEnd, values); len(missing) > 0 {
		return nil, fmt.Errorf("%s: no value for %v", w.name, missing)
	}
	return o, nil
}
