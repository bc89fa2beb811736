package imfant

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// RetryMode selects the lazy-DFA thrash-retry policy of the degradation
// ladder (see Options.ThrashRetry).
type RetryMode int

const (
	// RetryAuto (the zero value) enables the ladder: after a matching
	// context's lazy-DFA cache thrashes, its next scan retries once with
	// the cache cap doubled; a thrash at the grown cap pins the context to
	// the iMFAnt engine permanently. Results are identical on every rung.
	RetryAuto RetryMode = iota
	// RetryOn forces the ladder (currently identical to RetryAuto).
	RetryOn
	// RetryOff disables it: every thrash falls back for the rest of that
	// scan only, and the next scan starts over on a rebuilt cache at the
	// configured cap — the pre-ladder behaviour.
	RetryOff
)

// thrashRetryOn resolves the ThrashRetry knob: every mode but RetryOff
// enables the ladder.
func (o Options) thrashRetryOn() bool { return o.ThrashRetry != RetryOff }

// scanDeadline converts Options.ScanTimeout into an absolute cutoff,
// anchored at the moment the caller entered the scan path. Anchoring early
// matters: the same deadline must cover queue wait in scanGate.acquire AND
// the scan itself, so a saturated gate cannot stretch total latency past
// ScanTimeout (the budget used to arm only after a slot was acquired). The
// zero time means "no budget".
func scanDeadline(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// deadlineCheckpoint layers an absolute cutoff onto an engine checkpoint:
// the returned poll fails with ErrScanTimeout once deadline has passed,
// after first consulting the context-derived parent poll (whose error, e.g.
// a caller cancellation, takes precedence). A zero deadline returns parent
// unchanged, so timeout-free scans keep their nil-checkpoint fast path.
func deadlineCheckpoint(parent func() error, deadline time.Time) func() error {
	if deadline.IsZero() {
		return parent
	}
	return func() error {
		if parent != nil {
			if err := parent(); err != nil {
				return err
			}
		}
		if time.Now().After(deadline) {
			return ErrScanTimeout
		}
		return nil
	}
}

// scanGate is the bounded work queue of overload shedding: a channel
// semaphore of MaxConcurrentScans slots plus a counter capping how many
// callers may block waiting for one. Admission beyond both bounds fails
// fast with ErrOverloaded — the shed path — instead of queueing without
// limit. A nil gate admits everything.
type scanGate struct {
	slots  chan struct{}
	queued atomic.Int64
	maxQ   int64
}

// newScanGate builds the gate from the Options knobs; concurrency <= 0
// (shedding off) returns nil.
func newScanGate(concurrency, queue int) *scanGate {
	if concurrency <= 0 {
		return nil
	}
	if queue < 0 {
		queue = 0
	}
	return &scanGate{slots: make(chan struct{}, concurrency), maxQ: int64(queue)}
}

// acquire claims a slot, waiting in the bounded queue if none is free.
// Waiting observes ctx and the absolute scan deadline — the SAME deadline
// the scan itself runs under, so queue wait is charged against the
// ScanTimeout budget rather than extending it. Returns ErrOverloaded when
// the queue is full, without blocking; ErrScanTimeout when the deadline
// passes before a slot frees up.
func (g *scanGate) acquire(ctx context.Context, deadline time.Time) error {
	if g == nil {
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.queued.Add(1) > g.maxQ {
		g.queued.Add(-1)
		return ErrOverloaded
	}
	defer g.queued.Add(-1)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var timeoutC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-done:
		return ctx.Err()
	case <-timeoutC:
		return ErrScanTimeout
	}
}

// release returns a slot. Safe on a nil gate.
func (g *scanGate) release() {
	if g != nil {
		<-g.slots
	}
}

// noteDegraded folds a scan failure into the Degraded telemetry section,
// one count per cause in the chain (see eachCause), so every contained
// worker panic and timeout of a joined parallel error is accounted
// individually — the acceptance contract that Stats().Degraded misses no
// event.
func noteDegraded(c *telemetry.Collector, err error) {
	eachCause(err, func(cause int64) {
		switch cause {
		case causeWorkerPanic:
			c.AddWorkerPanics(1)
		case causeTimeout:
			c.AddTimeouts(1)
		case causeShed:
			c.AddShed(1)
		}
	})
}
