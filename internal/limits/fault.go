package limits

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the deterministic fault-injection harness. The engine calls
// Hit(plan, point) at well-known sites — "chase.round", "chase.rule",
// "prover.expand", "prover.memo", "translate.decode" — and a Plan armed for
// that site makes the call return an injected error, panic, or run a test
// hook (e.g. cancel the context mid-round). Plans are configured per
// evaluation through the engine Options, or process-wide through the
// TRIQ_FAULTS environment variable; with no plan armed a fault point is a
// nil check and two pointer loads.

// Action is what an armed fault does when it fires.
type Action int

const (
	// ActError makes the fault point return an injected typed error.
	ActError Action = iota
	// ActPanic makes the fault point panic, exercising the API-boundary
	// recovery.
	ActPanic
	// ActHook runs the fault's Hook and lets the fault point succeed; tests
	// use it to cancel contexts at a precise engine site.
	ActHook
	// ActCrash simulates process death at the point: the fault returns a
	// *CrashError whose Mode says what the interrupted I/O left on disk.
	// Durable subsystems (internal/store) honor it by ceasing all further
	// writes, so a test can "restart" by reopening the directory.
	ActCrash
	// ActPartition simulates a network partition at the point: the fault
	// returns a *NetError{Kind: NetPartition} and the networking subsystem
	// (internal/repl) honors it by severing the connection. Unlike ActCrash
	// nothing latches — a later reconnect attempt may succeed.
	ActPartition
	// ActSlow simulates a slow link: the fault point sleeps SlowLinkDelay
	// and then succeeds. It models added latency, not failure.
	ActSlow
	// ActDup simulates a duplicated message: the fault returns a
	// *NetError{Kind: NetDup} and the networking subsystem honors it by
	// sending (or processing) the in-flight record twice, exercising
	// receiver idempotency.
	ActDup
)

// SlowLinkDelay is the latency an ActSlow fault injects per fire.
const SlowLinkDelay = 25 * time.Millisecond

// CrashMode describes what an injected crash (ActCrash) leaves behind at the
// interrupted write site.
type CrashMode int

const (
	// CrashClean dies at the point with the in-flight write either fully
	// absent (before the write) or fully present (after it), depending on
	// where the subsystem placed the fault point.
	CrashClean CrashMode = iota
	// CrashTorn dies mid-write: only a prefix of the in-flight record lands.
	CrashTorn
	// CrashFlip lands the whole in-flight record but with one bit flipped,
	// modeling silent media corruption that checksums must catch.
	CrashFlip
)

func (m CrashMode) String() string {
	switch m {
	case CrashTorn:
		return "torn"
	case CrashFlip:
		return "flip"
	default:
		return "crash"
	}
}

// ErrCrash is the sentinel every injected crash wraps; errors.Is(err,
// ErrCrash) detects a simulated process death.
var ErrCrash = errors.New("limits: injected crash")

// ErrNet is the sentinel every injected network fault wraps; errors.Is(err,
// ErrNet) detects a simulated network condition (as opposed to process
// death or a plain injected error).
var ErrNet = errors.New("limits: injected network fault")

// NetKind refines an injected network fault.
type NetKind int

const (
	// NetPartition severs the connection; reconnects may succeed.
	NetPartition NetKind = iota
	// NetDup duplicates the in-flight record on the wire.
	NetDup
)

func (k NetKind) String() string {
	switch k {
	case NetDup:
		return "dup"
	default:
		return "partition"
	}
}

// NetError is the typed injected network fault: the site it fired at and
// what the network "did". The replication layer dispatches on Kind.
type NetError struct {
	// Point is the fault site, e.g. "repl.send".
	Point string
	// Kind says what happened on the wire.
	Kind NetKind
}

func (e *NetError) Error() string {
	return fmt.Sprintf("limits: injected network fault at %s (%s)", e.Point, e.Kind)
}

func (e *NetError) Unwrap() error { return ErrNet }

// CrashError is the typed injected-crash error: the site that died and what
// its interrupted write left behind.
type CrashError struct {
	// Point is the fault site that crashed, e.g. "wal.append".
	Point string
	// Mode says what landed on disk (clean / torn prefix / bit flip).
	Mode CrashMode
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("limits: injected crash at %s (%s)", e.Point, e.Mode)
}

func (e *CrashError) Unwrap() error { return ErrCrash }

// Fault arms one site of a Plan.
type Fault struct {
	// Point is the site name, e.g. "chase.round".
	Point string
	// After skips the first After hits of the site; the fault fires on every
	// hit from the After+1-th on (subject to Every and Times).
	After int
	// Every makes the fault intermittent: when > 1 it fires only on every
	// Every-th eligible hit (hits past After). 0 or 1 fires on every eligible
	// hit. Intermittent faults model transient failures.
	Every int
	// Times caps how often the fault fires; 0 means no cap. Times=1 yields a
	// fail-once-then-recover fault.
	Times int
	// Action selects error / panic / hook / crash.
	Action Action
	// Mode refines ActCrash: what the interrupted write leaves on disk.
	Mode CrashMode
	// Err overrides the injected error for ActError (default: a typed
	// ErrInjected).
	Err error
	// Hook runs on fire for ActHook.
	Hook func()
}

// Plan is a set of armed faults. The zero value by pointer (nil) is an empty
// plan; Check on it always succeeds. A Plan is safe for concurrent use.
type Plan struct {
	mu    sync.Mutex
	armed map[string][]*armedFault
	fires int
}

type armedFault struct {
	f     Fault
	hits  int
	fired int
}

// NewPlan builds a plan with the given faults armed.
func NewPlan(faults ...Fault) *Plan {
	p := &Plan{}
	for _, f := range faults {
		p.Arm(f)
	}
	return p
}

// Arm adds a fault to the plan.
func (p *Plan) Arm(f Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.armed == nil {
		p.armed = make(map[string][]*armedFault)
	}
	p.armed[f.Point] = append(p.armed[f.Point], &armedFault{f: f})
}

// Fires reports how many times any fault of the plan has fired.
func (p *Plan) Fires() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fires
}

// Check registers a hit on the site and fires any armed fault whose After
// threshold has passed. Hooks run (and panics unwind) outside the plan lock.
func (p *Plan) Check(point string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	var fire []*Fault
	for _, a := range p.armed[point] {
		a.hits++
		eligible := a.hits - a.f.After
		if eligible <= 0 {
			continue
		}
		if a.f.Every > 1 && eligible%a.f.Every != 0 {
			continue
		}
		if a.f.Times > 0 && a.fired >= a.f.Times {
			continue
		}
		a.fired++
		p.fires++
		fire = append(fire, &a.f)
	}
	p.mu.Unlock()
	for _, f := range fire {
		switch f.Action {
		case ActPanic:
			panic(fmt.Sprintf("limits: injected panic at %s", f.Point))
		case ActHook:
			if f.Hook != nil {
				f.Hook()
			}
		case ActCrash:
			return &CrashError{Point: f.Point, Mode: f.Mode}
		case ActPartition:
			return &NetError{Point: f.Point, Kind: NetPartition}
		case ActDup:
			return &NetError{Point: f.Point, Kind: NetDup}
		case ActSlow:
			time.Sleep(SlowLinkDelay)
		default:
			if f.Err != nil {
				return f.Err
			}
			return NewError(ErrInjected, Truncation{Limit: LimitInjected})
		}
	}
	return nil
}

// Hit checks the per-evaluation plan first, then the process-global plan
// (armed from TRIQ_FAULTS). Engine fault points call this.
func Hit(p *Plan, point string) error {
	if p != nil {
		if err := p.Check(point); err != nil {
			return err
		}
	}
	return FaultPoint(point)
}

// globalPlan is the process-global plan. Every rule turn and round of every
// request loads it, so it is read without a lock.
var globalPlan atomic.Pointer[Plan]

// FaultPoint checks the process-global plan only.
func FaultPoint(point string) error {
	return globalPlan.Load().Check(point)
}

// SetGlobal installs a process-global plan (nil clears it) and returns a
// restore function that reinstalls the plan it replaced; tests pair the two
// with defer.
func SetGlobal(p *Plan) (restore func()) {
	old := globalPlan.Swap(p)
	return func() { globalPlan.Store(old) }
}

// ParsePlan parses the TRIQ_FAULTS syntax: comma-separated entries of the
// form "point=action", "point@N=action", or "point%M=action" (combinable as
// "point@N%M=action") where action is "error", "panic", one of the crash
// actions "crash" / "torn" / "flip" (ActCrash with the matching CrashMode),
// or one of the network actions "partition" / "slow" / "dup" (honored by the
// replication points repl.send / repl.recv / repl.apply; "torn" there cuts
// the stream mid-record), N is the number of hits to skip first, and M makes
// the fault intermittent — it fires only on every M-th eligible hit, e.g.
//
//	TRIQ_FAULTS="chase.round@3=error,prover.expand=panic"
//	TRIQ_FAULTS="chase.rule%997=error"   # transient: one failure per 997 hits
//	TRIQ_FAULTS="wal.append@5=torn"      # die mid-write on the 6th WAL append
//	TRIQ_FAULTS="repl.send%7=partition"  # sever the stream every 7th frame
//	TRIQ_FAULTS="repl.recv%5=dup"        # replay every 5th received frame
//
// (Hooks are code, not syntax, so they cannot be armed from the
// environment.)
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, action, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("limits: fault entry %q: want point[@N][%%M]=action", entry)
		}
		f := Fault{Point: site}
		if point, every, hasPct := strings.Cut(f.Point, "%"); hasPct {
			m, err := strconv.Atoi(every)
			if err != nil || m < 1 {
				return nil, fmt.Errorf("limits: fault entry %q: bad every count %q", entry, every)
			}
			f.Point = point
			f.Every = m
		}
		if point, after, hasAt := strings.Cut(f.Point, "@"); hasAt {
			n, err := strconv.Atoi(after)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("limits: fault entry %q: bad hit count %q", entry, after)
			}
			f.Point = point
			f.After = n
		}
		switch action {
		case "error":
			f.Action = ActError
		case "panic":
			f.Action = ActPanic
		case "crash":
			f.Action = ActCrash
			f.Mode = CrashClean
		case "torn":
			f.Action = ActCrash
			f.Mode = CrashTorn
		case "flip":
			f.Action = ActCrash
			f.Mode = CrashFlip
		case "partition":
			f.Action = ActPartition
		case "slow":
			f.Action = ActSlow
		case "dup":
			f.Action = ActDup
		default:
			return nil, fmt.Errorf("limits: fault entry %q: unknown action %q (want error, panic, crash, torn, flip, partition, slow, or dup)", entry, action)
		}
		p.Arm(f)
	}
	return p, nil
}

func init() {
	if spec := os.Getenv("TRIQ_FAULTS"); spec != "" {
		p, err := ParsePlan(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "limits: ignoring TRIQ_FAULTS:", err)
			return
		}
		globalPlan.Store(p)
	}
}
