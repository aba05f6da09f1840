package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// Slow-query auto-profiling: when a request's total time trips the
// threshold, the server captures a bounded CPU profile and a heap profile
// and links the file names from the slow-log entry. Captures are rate
// limited (cooldown + lifetime cap) and at most one CPU profile runs at a
// time, so a storm of slow queries costs a handful of profiles, not one per
// request.

// AutoProfileConfig configures slow-query auto-profiling. A zero Dir
// disables it.
type AutoProfileConfig struct {
	// Dir is where profile files are written; "" disables auto-profiling.
	Dir string
	// Threshold is the minimum total request time that trips a capture;
	// 0 uses the slow-log threshold (auto-profiling needs one of the two to
	// be set).
	Threshold time.Duration
	// CPUDuration bounds the CPU profile capture (default 2s).
	CPUDuration time.Duration
	// Cooldown is the minimum time between captures (default 1m).
	Cooldown time.Duration
	// MaxCaptures caps captures over the server's lifetime (default 16).
	MaxCaptures int
}

func (c AutoProfileConfig) withDefaults(slowThreshold time.Duration) AutoProfileConfig {
	if c.Threshold <= 0 {
		c.Threshold = slowThreshold
	}
	if c.CPUDuration <= 0 {
		c.CPUDuration = 2 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Minute
	}
	if c.MaxCaptures <= 0 {
		c.MaxCaptures = 16
	}
	return c
}

// autoProfiler owns the capture state.
type autoProfiler struct {
	cfg AutoProfileConfig
	obs *obs.Obs

	mu       sync.Mutex
	last     time.Time
	captures int
	active   bool // a CPU profile is running
	wg       sync.WaitGroup
}

func newAutoProfiler(cfg AutoProfileConfig, slowThreshold time.Duration, o *obs.Obs) *autoProfiler {
	if cfg.Dir == "" {
		return nil
	}
	cfg = cfg.withDefaults(slowThreshold)
	if cfg.Threshold <= 0 {
		return nil
	}
	return &autoProfiler{cfg: cfg, obs: o}
}

// maybeCapture trips a capture when total meets the threshold and the rate
// limits allow one. It returns the CPU and heap profile file names (either
// may be empty) for the slow-log entry; the files themselves are finalized
// by a background goroutine so the serving path is never blocked on
// profiling.
func (p *autoProfiler) maybeCapture(total time.Duration, traceID string) (cpuFile, heapFile string) {
	if p == nil || total < p.cfg.Threshold {
		return "", ""
	}
	if traceID == "" {
		traceID = "untraced"
	}
	return p.capture(traceID)
}

// forceCapture bypasses the latency threshold — the SLO watchdog calls it on
// a burn-rate breach so the profile shows what the process was doing while
// the budget burned — but still honors the cooldown and lifetime cap.
func (p *autoProfiler) forceCapture(tag string) (cpuFile, heapFile string) {
	if p == nil {
		return "", ""
	}
	return p.capture(tag)
}

// capture runs one rate-limited CPU+heap capture tagged into the file names.
func (p *autoProfiler) capture(tag string) (cpuFile, heapFile string) {
	p.mu.Lock()
	now := time.Now()
	if p.active || p.captures >= p.cfg.MaxCaptures ||
		(!p.last.IsZero() && now.Sub(p.last) < p.cfg.Cooldown) {
		p.mu.Unlock()
		return "", ""
	}
	p.active = true
	p.captures++
	p.last = now
	p.mu.Unlock()

	stamp := now.UnixNano()
	cpuFile = filepath.Join(p.cfg.Dir, fmt.Sprintf("cpu-%d-%s.pprof", stamp, tag))
	heapFile = filepath.Join(p.cfg.Dir, fmt.Sprintf("heap-%d-%s.pprof", stamp, tag))

	cf, err := os.Create(cpuFile)
	if err != nil {
		p.release()
		return "", ""
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		// Another CPU profile is running (e.g. via /debug/pprof/profile);
		// keep the heap capture, drop the CPU file.
		cf.Close()
		os.Remove(cpuFile)
		cpuFile = ""
	}
	p.obs.Count("serve.autoprofile_captures", 1)

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.release()
		if hf, err := os.Create(heapFile); err == nil {
			runtime.GC() // fold garbage out of the live-heap profile
			_ = pprof.Lookup("heap").WriteTo(hf, 0)
			hf.Close()
		}
		if cpuFile != "" {
			time.Sleep(p.cfg.CPUDuration)
			pprof.StopCPUProfile()
			cf.Close()
		}
	}()
	return cpuFile, heapFile
}

func (p *autoProfiler) release() {
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
}

// drain waits for an in-flight capture to finish (used by Server.Drain so a
// profile file is complete before the process exits).
func (p *autoProfiler) drain() {
	if p == nil {
		return
	}
	p.wg.Wait()
}
