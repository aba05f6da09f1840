// Package slo is the serving-side SLO watchdog: declarative objectives
// (latency quantiles, error/shed ratios, gauges like replica lag) evaluated
// with multi-window burn-rate rules over the process's own obs registry, the
// way an external alerting stack would evaluate its Prometheus scrape — but
// in-process, so a single binary pages correctly with no collector in the
// loop.
//
// The evaluator samples the registry on a fixed cadence and keeps a bounded
// history of counter values, histogram bucket snapshots, and gauge readings.
// Each objective is judged over two trailing windows: a short one that
// reacts fast and a long one that confirms the burn is sustained. An alert
// fires only when BOTH windows breach (the classic multi-window rule that
// suppresses blips) and clears as soon as the short window recovers (fast
// all-clear). Every transition is appended to a JSONL alert log and kept for
// GET /debug/alerts; on a fresh breach the OnBreach hook runs once, letting
// the serve layer capture a profile and pin the implicated traces so the
// evidence is still there when the operator arrives.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Kind selects how an objective is evaluated.
type Kind string

const (
	// KindLatency breaches when the windowed quantile of Hist exceeds
	// Threshold (same unit as the histogram, typically microseconds).
	KindLatency Kind = "latency"
	// KindRatio breaches when the windowed rate Bad/Total exceeds Threshold
	// scaled by the window's burn factor.
	KindRatio Kind = "ratio"
	// KindGauge breaches when the windowed mean of Gauge exceeds Threshold.
	KindGauge Kind = "gauge"
)

// Objective is one declarative SLO target.
type Objective struct {
	// Name identifies the objective (and its alert), e.g. "query_p99".
	Name string `json:"name"`
	// Description is the operator-facing one-liner.
	Description string `json:"description"`
	// Kind selects the evaluation rule.
	Kind Kind `json:"kind"`
	// Hist is the histogram the KindLatency quantile is read from.
	Hist string `json:"hist,omitempty"`
	// Quantile is the latency quantile (default 0.99).
	Quantile float64 `json:"quantile,omitempty"`
	// Bad and Total are the KindRatio counters (rate = ΔBad/ΔTotal).
	Bad   string `json:"bad,omitempty"`
	Total string `json:"total,omitempty"`
	// Gauge is the KindGauge series.
	Gauge string `json:"gauge,omitempty"`
	// Threshold is the target: histogram units for latency, a fraction for
	// ratios, the gauge's unit for gauges.
	Threshold float64 `json:"threshold"`
}

// Alert is one objective's alert state, as served by /debug/alerts and
// logged on every transition.
type Alert struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Kind        Kind    `json:"kind"`
	State       string  `json:"state"` // "firing" or "cleared"
	Threshold   float64 `json:"threshold"`
	// Fast and Slow are the windowed values at the last evaluation.
	Fast float64 `json:"fast_window_value"`
	Slow float64 `json:"slow_window_value"`
	// FiredAt / ClearedAt stamp the most recent transitions (unix nanos).
	FiredAt   int64 `json:"fired_at_unix_ns,omitempty"`
	ClearedAt int64 `json:"cleared_at_unix_ns,omitempty"`
	// Fires counts how many times this objective has fired since start.
	Fires int64 `json:"fires"`
	// TraceIDs, ProfileCPU, and ProfileHeap are the breach annotations
	// attached by the OnBreach hook: the pinned offending traces and the
	// auto-captured profile files.
	TraceIDs    []string `json:"trace_ids,omitempty"`
	ProfileCPU  string   `json:"profile_cpu,omitempty"`
	ProfileHeap string   `json:"profile_heap,omitempty"`
}

// Annotation is what OnBreach returns: evidence links attached to the
// firing alert.
type Annotation struct {
	TraceIDs    []string
	ProfileCPU  string
	ProfileHeap string
}

// Config assembles a Watchdog.
type Config struct {
	// Objectives are the SLO targets to evaluate.
	Objectives []Objective
	// Interval is the sampling cadence (default 1s).
	Interval time.Duration
	// FastWindow is the reactive window (default 30s) and clear condition;
	// SlowWindow is the confirming window (default 5× FastWindow).
	FastWindow time.Duration
	SlowWindow time.Duration
	// FastBurn scales a ratio objective's threshold over the fast window
	// (default 2: a short burst must burn at twice budget to page), SlowBurn
	// over the slow window (default 1).
	FastBurn float64
	SlowBurn float64
	// Source returns the registry to sample, refreshing any point-in-time
	// gauges first (the serve layer's metrics refresh).
	Source func() *obs.Registry
	// OnBreach runs once per firing transition; its annotation (pinned
	// traces, captured profiles) is attached to the alert.
	OnBreach func(a Alert) Annotation
	// LogPath appends one JSON line per alert transition (empty = no log).
	LogPath string
	// Obs receives the watchdog's own telemetry (slo.* series).
	Obs *obs.Obs
	// Now overrides the clock for tests.
	Now func() time.Time
}

// sample is one evaluation tick's view of every series the objectives read.
type sample struct {
	at       time.Time
	counters map[string]int64
	hists    map[string]obs.HistSnapshot
	gauges   map[string]float64
}

// Watchdog evaluates the configured objectives; build with New, drive with
// Start/Stop (or Tick directly in tests).
type Watchdog struct {
	cfg Config

	mu      sync.Mutex
	samples []sample
	alerts  map[string]*Alert
	order   []string
	logf    *os.File

	stop chan struct{}
	done chan struct{}
}

// New builds a watchdog (no goroutine yet; call Start).
func New(cfg Config) (*Watchdog, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("slo: Config.Source is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = 30 * time.Second
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = 5 * cfg.FastWindow
	}
	if cfg.SlowWindow < cfg.FastWindow {
		cfg.SlowWindow = cfg.FastWindow
	}
	if cfg.FastBurn <= 0 {
		cfg.FastBurn = 2
	}
	if cfg.SlowBurn <= 0 {
		cfg.SlowBurn = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	w := &Watchdog{cfg: cfg, alerts: make(map[string]*Alert)}
	for _, o := range cfg.Objectives {
		if o.Name == "" {
			return nil, fmt.Errorf("slo: objective with empty name")
		}
		if _, dup := w.alerts[o.Name]; dup {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		if o.Quantile <= 0 || o.Quantile >= 1 {
			o.Quantile = 0.99
		}
		w.alerts[o.Name] = &Alert{
			Name: o.Name, Description: o.Description, Kind: o.Kind,
			State: "cleared", Threshold: o.Threshold,
		}
		w.order = append(w.order, o.Name)
	}
	if cfg.LogPath != "" {
		f, err := os.OpenFile(cfg.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("slo: open alert log: %w", err)
		}
		w.logf = f
	}
	return w, nil
}

// Start launches the evaluation loop.
func (w *Watchdog) Start() {
	if w == nil || w.stop != nil {
		return
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.Tick()
			case <-w.stop:
				return
			}
		}
	}()
}

// Stop halts the loop and closes the alert log.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.logf != nil {
		w.logf.Close()
		w.logf = nil
	}
}

// Alerts snapshots every objective's alert state in declaration order.
func (w *Watchdog) Alerts() []Alert {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Alert, 0, len(w.order))
	for _, name := range w.order {
		out = append(out, *w.alerts[name])
	}
	return out
}

// Firing reports how many alerts are currently firing.
func (w *Watchdog) Firing() int {
	n := 0
	for _, a := range w.Alerts() {
		if a.State == "firing" {
			n++
		}
	}
	return n
}

// Tick runs one evaluation: sample the registry, age out history, judge
// every objective, transition alerts. Exposed for tests; Start calls it on
// the configured cadence.
func (w *Watchdog) Tick() {
	if w == nil {
		return
	}
	now := w.cfg.Now()
	reg := w.cfg.Source()
	s := w.takeSample(now, reg)

	w.mu.Lock()
	w.samples = append(w.samples, s)
	horizon := now.Add(-w.cfg.SlowWindow - w.cfg.Interval)
	drop := 0
	for drop < len(w.samples)-1 && w.samples[drop].at.Before(horizon) {
		drop++
	}
	if drop > 0 {
		w.samples = append(w.samples[:0:0], w.samples[drop:]...)
	}
	history := w.samples
	w.mu.Unlock()

	w.cfg.Obs.Count("slo.evals", 1)
	var transitions []Alert
	firing := 0
	for _, o := range w.cfg.Objectives {
		fast, fastBreach := w.judge(o, history, now, w.cfg.FastWindow, w.cfg.FastBurn)
		slow, slowBreach := w.judge(o, history, now, w.cfg.SlowWindow, w.cfg.SlowBurn)

		w.mu.Lock()
		a := w.alerts[o.Name]
		a.Fast, a.Slow = fast, slow
		var fired, cleared bool
		if a.State != "firing" && fastBreach && slowBreach {
			a.State = "firing"
			a.FiredAt = now.UnixNano()
			a.Fires++
			fired = true
		} else if a.State == "firing" && !fastBreach {
			a.State = "cleared"
			a.ClearedAt = now.UnixNano()
			cleared = true
		}
		snapshot := *a
		w.mu.Unlock()

		if fired {
			w.cfg.Obs.Count("slo.alerts_fired", 1)
			if w.cfg.OnBreach != nil {
				ann := w.cfg.OnBreach(snapshot)
				w.mu.Lock()
				a.TraceIDs = ann.TraceIDs
				a.ProfileCPU = ann.ProfileCPU
				a.ProfileHeap = ann.ProfileHeap
				snapshot = *a
				w.mu.Unlock()
			}
			transitions = append(transitions, snapshot)
		} else if cleared {
			w.cfg.Obs.Count("slo.alerts_cleared", 1)
			transitions = append(transitions, snapshot)
		}
		if snapshot.State == "firing" {
			firing++
		}
	}
	w.cfg.Obs.Gauge("slo.alerts_firing", float64(firing))
	for _, a := range transitions {
		w.logTransition(a)
	}
}

// takeSample reads every series any objective needs.
func (w *Watchdog) takeSample(now time.Time, reg *obs.Registry) sample {
	s := sample{
		at:       now,
		counters: make(map[string]int64),
		hists:    make(map[string]obs.HistSnapshot),
		gauges:   make(map[string]float64),
	}
	for _, o := range w.cfg.Objectives {
		switch o.Kind {
		case KindLatency:
			snap, _ := reg.HistSnapshot(o.Hist)
			s.hists[o.Hist] = snap
		case KindRatio:
			s.counters[o.Bad] = reg.Counter(o.Bad)
			s.counters[o.Total] = reg.Counter(o.Total)
		case KindGauge:
			s.gauges[o.Gauge] = reg.Gauge(o.Gauge)
		}
	}
	return s
}

// baseline finds the oldest sample inside the trailing window.
func baseline(history []sample, now time.Time, window time.Duration) (sample, bool) {
	cut := now.Add(-window)
	for _, s := range history {
		if !s.at.Before(cut) {
			return s, true
		}
	}
	return sample{}, false
}

// judge evaluates one objective over one trailing window, returning the
// windowed value and whether it breaches.
func (w *Watchdog) judge(o Objective, history []sample, now time.Time, window time.Duration, burn float64) (float64, bool) {
	if len(history) < 2 {
		return 0, false
	}
	latest := history[len(history)-1]
	base, ok := baseline(history[:len(history)-1], now, window)
	if !ok {
		base = history[0]
	}
	switch o.Kind {
	case KindLatency:
		q := o.Quantile
		if q <= 0 || q >= 1 {
			q = 0.99
		}
		diff := diffHist(base.hists[o.Hist], latest.hists[o.Hist])
		if diff.Count == 0 {
			return 0, false
		}
		v := diff.Quantile(q)
		return v, v > o.Threshold
	case KindRatio:
		bad := latest.counters[o.Bad] - base.counters[o.Bad]
		total := latest.counters[o.Total] - base.counters[o.Total]
		if total <= 0 {
			return 0, false
		}
		v := float64(bad) / float64(total)
		return v, v > o.Threshold*burn
	case KindGauge:
		// Windowed mean of the sampled gauge (the latest sample included).
		cut := now.Add(-window)
		var sum float64
		var n int
		for _, s := range history {
			if s.at.Before(cut) {
				continue
			}
			sum += s.gauges[o.Gauge]
			n++
		}
		if n == 0 {
			return 0, false
		}
		v := sum / float64(n)
		return v, v > o.Threshold
	default:
		return 0, false
	}
}

// diffHist subtracts two cumulative histogram snapshots bucket-wise, giving
// the distribution of samples observed inside the window. Max carries the
// lifetime max (an upper bound for the window — the best a bucketed
// histogram can do).
func diffHist(base, latest obs.HistSnapshot) obs.HistSnapshot {
	var d obs.HistSnapshot
	for i := range latest.Buckets {
		if n := latest.Buckets[i] - base.Buckets[i]; n > 0 {
			d.Buckets[i] = n
			d.Count += n
		}
	}
	d.Sum = latest.Sum - base.Sum
	d.Max = latest.Max
	return d
}

// logTransition appends one alert-transition line to the JSONL log.
func (w *Watchdog) logTransition(a Alert) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.logf == nil {
		return
	}
	line, err := json.Marshal(struct {
		TS time.Time `json:"ts"`
		Alert
	}{TS: w.cfg.Now(), Alert: a})
	if err != nil {
		return
	}
	w.logf.Write(append(line, '\n'))
}

// DefaultObjectives builds the standard triqd objective set from the
// -slo-* flag values; a zero/negative threshold disables that objective.
func DefaultObjectives(queryP99US, commitP99US float64, errRate, shedRate, lagSeconds float64) []Objective {
	var out []Objective
	if queryP99US > 0 {
		out = append(out, Objective{
			Name: "query_p99", Kind: KindLatency, Hist: "serve.latency_us", Quantile: 0.99,
			Threshold: queryP99US, Description: "query p99 latency over target",
		})
	}
	if commitP99US > 0 {
		out = append(out, Objective{
			Name: "commit_visible_p99", Kind: KindLatency, Hist: "store.commit_visible_us", Quantile: 0.99,
			Threshold: commitP99US, Description: "commit-visible p99 latency over target",
		})
	}
	if errRate > 0 {
		out = append(out, Objective{
			Name: "error_rate", Kind: KindRatio, Bad: "serve.errors", Total: "serve.requests",
			Threshold: errRate, Description: "request error rate burning the budget",
		})
	}
	if shedRate > 0 {
		out = append(out, Objective{
			Name: "shed_rate", Kind: KindRatio, Bad: "serve.shed", Total: "serve.requests",
			Threshold: shedRate, Description: "admission shed rate burning the budget",
		})
	}
	if lagSeconds > 0 {
		out = append(out, Objective{
			Name: "replica_lag_seconds", Kind: KindGauge, Gauge: "repl.lag_seconds",
			Threshold: lagSeconds, Description: "replica staleness behind the primary wall clock",
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
