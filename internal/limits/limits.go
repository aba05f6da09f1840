// Package limits is the resource-governance layer of the engine: a typed
// error taxonomy for every way an evaluation can be cut short (cooperative
// cancellation, wall-clock deadlines, fact/round/visit budgets, engine
// panics), a Truncation report describing how far an aborted run got, panic
// recovery for the public API boundary, and a deterministic fault-injection
// harness used by the test-suite to prove that every abort path actually
// works.
//
// The paper's PTime guarantee for TriQ-Lite (Theorem 6.7) is a data-
// complexity statement: a warded program one rule away from the ExpTime
// cliff of Theorem 6.15, or a pathological SPARQL workload, can still drive
// the chase and the ProofTree search to unbounded runs. Every evaluation
// entry point therefore threads a context.Context and converts resource
// exhaustion into errors of this package — or, for budgets, into sound
// partial results carrying a Truncation (see the Incomplete fields on
// triq.Result, sparql.MappingSet, and the facade Results).
package limits

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"
)

// The taxonomy. All errors returned by the engine's governed paths wrap
// exactly one of these sentinels, so callers dispatch with errors.Is.
var (
	// ErrCanceled reports cooperative cancellation via context.Context.
	ErrCanceled = errors.New("limits: evaluation canceled")
	// ErrDeadline reports a missed wall-clock deadline (context deadline).
	ErrDeadline = errors.New("limits: evaluation deadline exceeded")
	// ErrFactBudget reports that the chase instance hit Options.MaxFacts.
	ErrFactBudget = errors.New("limits: fact budget exhausted")
	// ErrRoundBudget reports that the chase hit Options.MaxRounds.
	ErrRoundBudget = errors.New("limits: round budget exhausted")
	// ErrVisitBudget reports that the proof search hit ProofOptions.MaxVisits.
	ErrVisitBudget = errors.New("limits: visit budget exhausted")
	// ErrInternal reports an engine panic recovered at the API boundary.
	ErrInternal = errors.New("limits: internal engine error")
	// ErrInjected reports a fault injected through a Plan (tests only).
	ErrInjected = errors.New("limits: injected fault")
	// ErrStorage reports a durable-storage write failure (fsync or append
	// I/O error, e.g. ENOSPC). The store degrades to read-only: reads keep
	// serving the last committed epoch, writes fail with this sentinel.
	ErrStorage = errors.New("limits: storage write error")
)

// Limit names, as they appear in Truncation.Limit and in the "limit"
// attribute of the chase.run or prover.prove span a limit cut short.
const (
	LimitCanceled = "canceled"
	LimitDeadline = "deadline"
	LimitFacts    = "facts"
	LimitRounds   = "rounds"
	LimitVisits   = "visits"
	LimitInternal = "internal"
	LimitInjected = "injected"
	LimitStorage  = "storage"
)

// LimitName maps a sentinel (or an error wrapping one) to its limit name.
func LimitName(err error) string {
	switch {
	case errors.Is(err, ErrCanceled):
		return LimitCanceled
	case errors.Is(err, ErrDeadline):
		return LimitDeadline
	case errors.Is(err, ErrFactBudget):
		return LimitFacts
	case errors.Is(err, ErrRoundBudget):
		return LimitRounds
	case errors.Is(err, ErrVisitBudget):
		return LimitVisits
	case errors.Is(err, ErrInternal):
		return LimitInternal
	case errors.Is(err, ErrStorage):
		return LimitStorage
	case errors.Is(err, ErrInjected):
		return LimitInjected
	default:
		return ""
	}
}

// kindFor is the inverse of LimitName.
func kindFor(limit string) error {
	switch limit {
	case LimitCanceled:
		return ErrCanceled
	case LimitDeadline:
		return ErrDeadline
	case LimitFacts:
		return ErrFactBudget
	case LimitRounds:
		return ErrRoundBudget
	case LimitVisits:
		return ErrVisitBudget
	case LimitInternal:
		return ErrInternal
	case LimitStorage:
		return ErrStorage
	default:
		return ErrInjected
	}
}

// RuleStat is the per-rule slice of a Truncation: how much work each rule of
// the aborted chase had done when the limit tripped. The JSON field names are
// part of the wire format shared by the triqd server and the CLI -json modes;
// treat them as frozen.
type RuleStat struct {
	// Index is the rule's position in stratum evaluation order.
	Index int `json:"index"`
	// Rule is the rule's source rendering.
	Rule              string `json:"rule"`
	TriggersAttempted int    `json:"triggers_attempted"`
	TriggersFired     int    `json:"triggers_fired"`
	FactsDerived      int    `json:"facts_derived"`
}

// Truncation reports what limit cut an evaluation short and how far the
// evaluation got. It rides on every *Error and is surfaced to callers of the
// degrading entry points through the Incomplete/Truncation result fields.
// The JSON field names are part of the wire format shared by the triqd server
// and the CLI -json modes; treat them as frozen. Elapsed serializes as
// nanoseconds (Go's time.Duration integer form), so the report round-trips.
type Truncation struct {
	// Limit names the limit that tripped (one of the Limit* constants).
	Limit string `json:"limit"`
	// Budget is the configured limit value (facts, rounds, visits, or the
	// deadline in nanoseconds), 0 when not applicable.
	Budget int64 `json:"budget,omitempty"`
	// Reached is the value observed when the limit tripped.
	Reached int64 `json:"reached,omitempty"`
	// Rounds is the number of chase rounds completed or started.
	Rounds int `json:"rounds,omitempty"`
	// Facts is the instance size (database + derived) at abort.
	Facts int `json:"facts,omitempty"`
	// Visits is the number of proof-search component visits at abort.
	Visits int `json:"visits,omitempty"`
	// Elapsed is the wall-clock time spent before the abort.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// PerRule breaks the aborted chase down by rule (empty for prover
	// aborts).
	PerRule []RuleStat `json:"per_rule,omitempty"`
}

// Err packages the truncation back into a typed *Error whose sentinel
// matches Limit. It is used by callers (e.g. the CLIs) that carried only the
// report and need the error form again.
func (t *Truncation) Err() *Error { return NewError(kindFor(t.Limit), *t) }

// String renders the report for humans; the CLIs print it on stderr.
func (t *Truncation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "truncated: limit=%s", t.Limit)
	if t.Budget > 0 {
		fmt.Fprintf(&b, " budget=%d reached=%d", t.Budget, t.Reached)
	}
	fmt.Fprintf(&b, " rounds=%d facts=%d", t.Rounds, t.Facts)
	if t.Visits > 0 {
		fmt.Fprintf(&b, " visits=%d", t.Visits)
	}
	if t.Elapsed > 0 {
		fmt.Fprintf(&b, " elapsed=%s", t.Elapsed.Round(time.Microsecond))
	}
	b.WriteByte('\n')
	for _, r := range t.PerRule {
		def := r.Rule
		if len([]rune(def)) > 60 {
			def = string([]rune(def)[:57]) + "..."
		}
		fmt.Fprintf(&b, "  rule #%-3d attempted=%d fired=%d facts=%d  %s\n",
			r.Index, r.TriggersAttempted, r.TriggersFired, r.FactsDerived, def)
	}
	return b.String()
}

// Error is a typed abort: a taxonomy sentinel plus the Truncation report.
// errors.Is matches the sentinel; errors.As extracts the report.
type Error struct {
	// Kind is the taxonomy sentinel this error wraps.
	Kind error
	// Trunc reports how far the evaluation got.
	Trunc Truncation
}

// NewError builds a typed abort; an empty Trunc.Limit is filled in from the
// sentinel.
func NewError(kind error, t Truncation) *Error {
	if t.Limit == "" {
		t.Limit = LimitName(kind)
	}
	return &Error{Kind: kind, Trunc: t}
}

func (e *Error) Error() string {
	if e.Trunc.Budget > 0 {
		return fmt.Sprintf("%v (budget %d, reached %d)", e.Kind, e.Trunc.Budget, e.Trunc.Reached)
	}
	return e.Kind.Error()
}

func (e *Error) Unwrap() error { return e.Kind }

// TruncationOf extracts the Truncation report from an error chain.
func TruncationOf(err error) (*Truncation, bool) {
	var le *Error
	if errors.As(err, &le) {
		return &le.Trunc, true
	}
	return nil, false
}

// IsBudget reports whether the error is one of the degradable budget
// exhaustions (facts, rounds, or visits) — the cases where a sound partial
// result exists and the engine degrades instead of failing.
func IsBudget(err error) bool {
	return errors.Is(err, ErrFactBudget) ||
		errors.Is(err, ErrRoundBudget) ||
		errors.Is(err, ErrVisitBudget)
}

// CtxKind maps the context's state to the taxonomy: nil while the context is
// live, ErrCanceled / ErrDeadline once it is done. A nil context is live.
func CtxKind(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadline
	default:
		return ErrCanceled
	}
}

// InternalError is a recovered engine panic: the panic value plus the stack
// captured at the recovery point. It wraps ErrInternal.
type InternalError struct {
	// Value is the value the engine panicked with.
	Value any
	// Stack is the goroutine stack captured by the recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("limits: internal engine error: %v", e.Value)
}

func (e *InternalError) Unwrap() error { return ErrInternal }

// Recover converts an in-flight panic into an *InternalError stored in
// *errp. It must be invoked directly by defer at the public API boundary:
//
//	func Eval(...) (_ *Response, err error) {
//	    defer limits.Recover(&err)
//	    ...
//
// so one pathological query cannot take down a serving process. A panic that
// is already a typed limits error (e.g. injected by a fault plan action) is
// preserved as such.
func Recover(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if le, ok := r.(*Error); ok {
		*errp = le
		return
	}
	*errp = &InternalError{Value: r, Stack: debug.Stack()}
}
