package serve

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Admission control bounds how much work the server accepts at once. A fixed
// number of evaluation slots runs concurrently; past that, requests wait in a
// bounded FIFO queue with a queue deadline. Anything beyond the queue — or
// anything that would wait longer than the deadline — is shed immediately
// with a retryable error, which the HTTP layer maps to 503 + Retry-After.
// Shedding early under overload keeps latency bounded for the requests that
// are admitted instead of letting every request degrade together.

// Shed classification errors. All of them mean "not now, try again".
var (
	// ErrQueueFull is returned when the wait queue is at capacity.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrQueueTimeout is returned when a request waited its full queue
	// deadline without getting a slot.
	ErrQueueTimeout = errors.New("serve: queue deadline exceeded")
	// ErrDraining is returned for requests arriving while the server drains.
	ErrDraining = errors.New("serve: server draining")
)

// AdmissionConfig bounds concurrent work.
type AdmissionConfig struct {
	// MaxConcurrent is the number of evaluation slots (default 4).
	MaxConcurrent int
	// MaxQueue is how many requests may wait for a slot (default 16; 0 uses
	// the default, negative disables queueing entirely).
	MaxQueue int
	// QueueTimeout is the longest a request may wait in the queue before it
	// is shed (default 1s).
	QueueTimeout time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	return c
}

// waiter is one queued request. granted and abandoned are written under the
// admission mutex; the grant channel is closed exactly once by whichever side
// settles the waiter first.
type waiter struct {
	grant     chan struct{}
	granted   bool
	abandoned bool
}

// admission is the slot pool plus FIFO wait queue.
type admission struct {
	cfg AdmissionConfig

	mu    sync.Mutex
	inUse int
	queue []*waiter
	hwm   int // deepest the queue has ever been (serve.queue_depth_hwm)
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{cfg: cfg.withDefaults()}
}

// depth reports the current queue length (for the queue_depth gauge).
func (a *admission) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// queueHWM reports the deepest the queue has ever been.
func (a *admission) queueHWM() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hwm
}

// inflight reports the number of slots in use.
func (a *admission) inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// acquire claims an evaluation slot, waiting in FIFO order up to the queue
// deadline. On success the returned release must be called exactly once; on
// failure release is nil and err is ErrQueueFull, ErrQueueTimeout, or the
// context error.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	a.mu.Lock()
	if a.inUse < a.cfg.MaxConcurrent {
		a.inUse++
		a.mu.Unlock()
		return a.release, nil
	}
	if len(a.queue) >= a.cfg.MaxQueue {
		a.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{grant: make(chan struct{})}
	a.queue = append(a.queue, w)
	if len(a.queue) > a.hwm {
		a.hwm = len(a.queue)
	}
	a.mu.Unlock()

	timer := time.NewTimer(a.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case <-w.grant:
		// Slot handed off directly by a releasing request; inUse was never
		// decremented, so the slot is ours.
		return a.release, nil
	case <-timer.C:
		if a.settleAbandon(w) {
			return nil, ErrQueueTimeout
		}
		// Lost the race: a grant landed between the timer firing and the
		// abandon. The slot is ours after all.
		return a.release, nil
	case <-ctx.Done():
		if a.settleAbandon(w) {
			return nil, ctx.Err()
		}
		// Granted concurrently with cancellation: give the slot back and
		// report the cancellation.
		a.release()
		return nil, ctx.Err()
	}
}

// settleAbandon marks w abandoned unless it was already granted. Reports
// whether the abandon won.
func (a *admission) settleAbandon(w *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted {
		return false
	}
	w.abandoned = true
	return true
}

// release frees a slot: the longest-waiting live waiter inherits it
// directly; with no waiters the slot returns to the pool. Abandoned waiters
// are discarded on the way.
func (a *admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.queue) > 0 {
		w := a.queue[0]
		a.queue = a.queue[1:]
		if w.abandoned {
			continue
		}
		w.granted = true
		close(w.grant)
		return // slot handed off, inUse unchanged
	}
	a.inUse--
}
