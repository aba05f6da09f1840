package chase

import "sync/atomic"

// Progress is a lock-free live view of chase work, meant to be shared by an
// operator-facing poller (triqd's /debug/progress) while evaluations run.
// The engine stores into it with plain atomics from the round loop, so
// sampling it costs the reader a handful of atomic loads and costs the chase
// nothing measurable. When several evaluations share one Progress (a server),
// Round/Facts are last-writer-wins live gauges while ActiveRuns and
// TriggersFired aggregate across runs; the point is watching a long
// materialization move, not accounting.
//
// The zero value is ready to use. Progress never influences evaluation:
// answers and Stats stay bit-identical with or without it.
type Progress struct {
	activeRuns atomic.Int64
	round      atomic.Int64
	facts      atomic.Int64
	triggers   atomic.Int64
}

// ProgressSnapshot is one point-in-time sample of a Progress, in the JSON
// shape served at /debug/progress.
type ProgressSnapshot struct {
	// ActiveRuns is the number of chase runs currently between start and
	// finish (0 = idle).
	ActiveRuns int64 `json:"active_runs"`
	// Round is the current (1-based) semi-naive round of the most recently
	// advanced run.
	Round int64 `json:"round"`
	// Facts is the instance size as of the last rule turn that reported.
	Facts int64 `json:"facts"`
	// TriggersFired counts triggers fired across all runs sharing this
	// Progress (monotonic while the process lives).
	TriggersFired int64 `json:"triggers_fired"`
}

// Snapshot samples the progress; a nil Progress samples as all-zero.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		ActiveRuns:    p.activeRuns.Load(),
		Round:         p.round.Load(),
		Facts:         p.facts.Load(),
		TriggersFired: p.triggers.Load(),
	}
}

// The unexported mutators below are all nil-safe so instrumentation sites
// need no branches beyond the method call.

func (p *Progress) runStart() {
	if p != nil {
		p.activeRuns.Add(1)
	}
}

func (p *Progress) runEnd() {
	if p != nil {
		p.activeRuns.Add(-1)
	}
}

func (p *Progress) setRound(round, facts int64) {
	if p != nil {
		p.round.Store(round)
		p.facts.Store(facts)
	}
}

func (p *Progress) setFacts(n int64) {
	if p != nil {
		p.facts.Store(n)
	}
}

func (p *Progress) addTriggers(n int64) {
	if p != nil && n != 0 {
		p.triggers.Add(n)
	}
}
