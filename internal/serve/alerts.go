package serve

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/slo"
)

// SLO watchdog integration: triqd builds an slo.Watchdog over the server's
// own metrics registry (Source = MetricsRegistry, OnBreach = OnSLOBreach)
// and installs it with SetSLO; the server serves its alert states at
// GET /debug/alerts and, on a fresh breach, captures profiles and pins the
// implicated traces so the evidence outlives the buffer.

// maxPinnedPerAlert bounds how many traces one breach pins; pinned traces
// are eviction-exempt, so an alert storm must not freeze the whole store.
const maxPinnedPerAlert = 3

// SetSLO installs the burn-rate watchdog behind GET /debug/alerts. The
// caller owns the watchdog's lifecycle (Start/Stop).
func (s *Server) SetSLO(wd *slo.Watchdog) {
	s.mu.Lock()
	s.watch = wd
	s.mu.Unlock()
}

func (s *Server) sloNow() *slo.Watchdog {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.watch
}

// MetricsRegistry returns the live registry with the point-in-time gauges
// (store epoch, replica lag, queue depth, ...) refreshed — the same view
// /metrics scrapes. The SLO watchdog samples through it so gauge objectives
// like repl.lag_seconds see current values even between scrapes.
func (s *Server) MetricsRegistry() *obs.Registry { return s.metricsRegistry() }

// TraceStore exposes the request-trace store (nil when tracing is disabled)
// so replica wiring can land replicated-apply spans in the same store
// /debug/trace serves.
func (s *Server) TraceStore() *obs.TraceStore {
	if s.traces == nil {
		return nil
	}
	return s.traces.store
}

// OnSLOBreach is the slo.Config.OnBreach hook: force an auto-profile
// capture (rate limits still apply) and pin the most recent slow or
// recorded traces so the evidence is still at /debug/trace when the
// operator follows the alert's links.
func (s *Server) OnSLOBreach(a slo.Alert) slo.Annotation {
	var ann slo.Annotation
	ann.ProfileCPU, ann.ProfileHeap = s.autoprof.capture("slo-" + a.Name)
	if s.traces != nil {
		rows, _, _ := s.traces.store.List() // newest first
		for _, row := range rows {
			if len(ann.TraceIDs) >= maxPinnedPerAlert {
				break
			}
			if (row.Slow || row.Recording) && s.traces.store.Pin(row.TraceID) {
				ann.TraceIDs = append(ann.TraceIDs, row.TraceID)
			}
		}
	}
	return ann
}

// serveAlerts renders GET /debug/alerts.
func (s *Server) serveAlerts(w http.ResponseWriter) {
	out := struct {
		Enabled bool        `json:"enabled"`
		Firing  int         `json:"firing"`
		Alerts  []slo.Alert `json:"alerts"`
	}{Alerts: []slo.Alert{}}
	if wd := s.sloNow(); wd != nil {
		if alerts := wd.Alerts(); alerts != nil {
			out.Alerts = alerts
		}
		out.Enabled, out.Firing = true, wd.Firing()
	}
	writeJSON(w, http.StatusOK, out)
}
