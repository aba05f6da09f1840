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

// Slow-query auto-profiling: when a request is slow — the slow log's
// threshold, judged once per request by Server.handle — the server captures
// a bounded CPU profile and a heap profile and links the file names from the
// slow-log entry. Captures are rate limited (autoProfileCooldown between
// captures, autoProfileMaxCaptures over the server's lifetime) and at most
// one CPU profile runs at a time, so a storm of slow queries costs a handful
// of profiles, not one per request.

const (
	autoProfileCooldown    = time.Minute
	autoProfileMaxCaptures = 16
)

// AutoProfileConfig configures slow-query auto-profiling. A zero Dir
// disables it. Without a slow-log threshold no request is slow, and only an
// SLO breach captures.
type AutoProfileConfig struct {
	// Dir is where profile files are written; "" disables auto-profiling.
	Dir string
	// CPUDuration bounds the CPU profile capture (default 2s).
	CPUDuration time.Duration
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

func newAutoProfiler(cfg AutoProfileConfig, o *obs.Obs) *autoProfiler {
	if cfg.Dir == "" {
		return nil
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 2 * time.Second
	}
	return &autoProfiler{cfg: cfg, obs: o}
}

// capture runs one rate-limited CPU+heap capture tagged into the file names:
// for a slow request (tagged with its trace id), or on an SLO burn-rate
// breach so the profile shows what the process was doing while the budget
// burned. It returns the CPU and heap profile file names (either may be
// empty); the files themselves are finalized by a background goroutine so
// the serving path is never blocked on profiling. Nil-safe.
func (p *autoProfiler) capture(tag string) (cpuFile, heapFile string) {
	if p == nil {
		return "", ""
	}
	p.mu.Lock()
	now := time.Now()
	if p.active || p.captures >= autoProfileMaxCaptures ||
		(!p.last.IsZero() && now.Sub(p.last) < autoProfileCooldown) {
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
