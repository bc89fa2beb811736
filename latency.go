package imfant

import (
	"context"
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// LatencyStats is the per-stage latency section of a stats snapshot
// (Options.Latency): one summarized wall-clock distribution, in
// nanoseconds, per pipeline stage that has recorded at least one
// observation. The stages, in pipeline order:
//
//   - "scan": one whole block scan or parallel count, end to end.
//   - "prefilter": one literal-factor Aho–Corasick sweep.
//   - "strategy_imfant", "strategy_lazydfa", "strategy_ac",
//     "strategy_anchored", "strategy_dfa": one automaton's dispatch under
//     that execution strategy — where a scan's time went, by strategy.
//   - "parallel": the multi-threaded engine fan-out of a CountParallel
//     call (wall clock over all default-strategy automata together).
//   - "stream_write": one StreamMatcher.Write chunk.
//   - "stream_flush": the end-of-stream flush inside Close.
//
// Percentiles come from log2 buckets and are within 2× of exact.
type LatencyStats struct {
	// Stages lists the active stages in pipeline order.
	Stages []StageLatency `json:"stages"`
}

// StageLatency is one stage's latency summary, in nanoseconds.
type StageLatency struct {
	// Stage is the stable stage name (see LatencyStats).
	Stage string `json:"stage"`
	HistStats
}

// stageStart opens a stage timer: the monotonic origin when latency
// attribution is on, the zero time — which stageEnd treats as "off" —
// otherwise. The nil check here is the whole cost of the disabled path.
func (rs *Ruleset) stageStart() time.Time {
	if rs.lat == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageEnd closes a stage timer opened by stageStart, folding the elapsed
// wall clock into stage s's histogram; a zero origin records nothing.
func (rs *Ruleset) stageEnd(s telemetry.Stage, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	rs.lat.Record(s, time.Since(t0).Nanoseconds())
}

// scanStart opens a whole-scan timer for the profiler's scan-latency
// histogram and the scan stage: the zero time when neither is on.
func (rs *Ruleset) scanStart() time.Time {
	if rs.scanLat == nil && rs.lat == nil {
		return time.Time{}
	}
	return time.Now()
}

// scanEnd closes a timer opened by scanStart.
func (rs *Ruleset) scanEnd(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	ns := time.Since(t0).Nanoseconds()
	if rs.scanLat != nil {
		rs.scanLat.Record(ns)
	}
	if rs.lat != nil {
		rs.lat.Record(telemetry.StageScan, ns)
	}
}

// Degradation-cause bits of a scan_error trace event's Value: the cause
// chain of a failed or degraded scan, OR-combined because a joined error
// from a parallel scan can carry several at once.
const (
	// causeTimeout marks ErrScanTimeout (Options.ScanTimeout expiry).
	causeTimeout int64 = 1 << iota
	// causeShed marks ErrOverloaded (bounded work queue rejection).
	causeShed
	// causeCanceled marks a caller context cancellation or deadline.
	causeCanceled
	// causeWorkerPanic marks a contained engine.WorkerPanicError.
	causeWorkerPanic
)

// eachCause calls fn with the cause bit of every failure in err's chain,
// walking joined errors (errors.Join from the worker pool) so each
// sub-error counts once. ErrScanTimeout is tested before the generic
// context deadline because it wraps context.DeadlineExceeded — the specific
// rung wins over the generic one.
func eachCause(err error, fn func(cause int64)) {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, sub := range j.Unwrap() {
			eachCause(sub, fn)
		}
		return
	}
	var wp *engine.WorkerPanicError
	switch {
	case err == nil:
	case errors.As(err, &wp):
		fn(causeWorkerPanic)
	case errors.Is(err, ErrScanTimeout):
		fn(causeTimeout)
	case errors.Is(err, ErrOverloaded):
		fn(causeShed)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		fn(causeCanceled)
	}
}

// causeMask folds err's degradation-cause chain into the scan_error bit
// encoding.
func causeMask(err error) int64 {
	var m int64
	eachCause(err, func(cause int64) { m |= cause })
	return m
}

// causeNames decodes a scan_error cause mask into its rung names, in bit
// order; a zero mask decodes to "unknown".
func causeNames(mask int64) []string {
	if mask == 0 {
		return []string{"unknown"}
	}
	var out []string
	for _, c := range []struct {
		bit  int64
		name string
	}{
		{causeTimeout, "timeout"},
		{causeShed, "shed"},
		{causeCanceled, "canceled"},
		{causeWorkerPanic, "worker_panic"},
	} {
		if mask&c.bit != 0 {
			out = append(out, c.name)
		}
	}
	if len(out) == 0 {
		return []string{"unknown"}
	}
	return out
}

// traceScanError records a scan_error span carrying err's degradation
// cause chain in Value; no-op when tracing is off.
func (rs *Ruleset) traceScanError(err error) {
	if rs.trace == nil || err == nil {
		return
	}
	rs.trace.Record(telemetry.Event{Kind: telemetry.EventScanError,
		Automaton: -1, Rule: -1, Offset: -1, Value: causeMask(err)})
}
