package imfant

import (
	"runtime"

	"repro/internal/segment"
	"repro/internal/telemetry"
)

// SegmentMode selects segment-parallel scanning for whole-buffer scans (see
// Options.Segment).
type SegmentMode int

const (
	// SegmentAuto segments inputs of at least Options.SegmentMinBytes when
	// more than one worker is available.
	SegmentAuto SegmentMode = iota
	// SegmentOn segments every input large enough to cut, regardless of
	// SegmentMinBytes.
	SegmentOn
	// SegmentOff disables segment-parallel scanning.
	SegmentOff
)

const (
	// DefaultSegmentMinBytes is the SegmentAuto threshold: below 1 MiB the
	// per-worker runner setup and boundary stitching outweigh the
	// parallelism.
	DefaultSegmentMinBytes = 1 << 20
	// DefaultSegmentMaxFrontier is the speculative boundary-frontier budget,
	// in active MFSA states.
	DefaultSegmentMaxFrontier = 64
)

// segmentParts resolves the segment count for an n-byte scan: 0 means "do
// not segment" (mode off, input below the auto threshold, or only one worker
// available). threads, when positive, is CountParallel's explicit worker
// count and takes precedence over Options.SegmentWorkers.
func (rs *Ruleset) segmentParts(n, threads int) int {
	if rs.opts.Segment == SegmentOff {
		return 0
	}
	if rs.opts.Segment == SegmentAuto {
		min := rs.opts.SegmentMinBytes
		if min <= 0 {
			min = DefaultSegmentMinBytes
		}
		if n < min {
			return 0
		}
	}
	p := threads
	if p <= 0 {
		p = rs.opts.SegmentWorkers
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 2 {
		return 0
	}
	return p
}

// maxFrontier resolves the speculative-frontier budget.
func (rs *Ruleset) maxFrontier() int {
	if rs.opts.SegmentMaxFrontier > 0 {
		return rs.opts.SegmentMaxFrontier
	}
	return DefaultSegmentMaxFrontier
}

// groupHeat is automaton i's total sampled state-visit count — the planner's
// work estimate for heat-balanced ordering. 0 when profiling is off.
func (rs *Ruleset) groupHeat(i int) int64 {
	p := rs.profileOf(i)
	if p == nil {
		return 0
	}
	var total int64
	for _, v := range p.Visits() {
		total += v
	}
	return total
}

// scanSegmented is the segment-parallel half of blockScan: it cuts the
// input into parts segments and runs each admitted group's default- or
// AC-strategy scan segment-parallel with exact boundary stitching (package
// segment). Anchored and eager-DFA groups, and groups pinned serial by
// segSerial, run through their executors instead: their scans are O(1) or a
// single cache-resident sweep, and segmenting them buys nothing. fn, when
// non-nil, receives every match.
func (rs *Ruleset) scanSegmented(input []byte, parts int, gate []bool, check func() error,
	fn func(Match)) (int64, error) {
	bounds := segment.Boundaries(len(input), parts)
	var total int64
	for i := range rs.programs {
		if gate != nil && !gate[i] {
			continue
		}
		groupEmit := rs.emitter(i, fn)
		var t execTotals
		var err error
		st0 := rs.stageStart()
		segmentable, lazy := rs.plan.segmentable(i)
		switch {
		case rs.plan.ac[i] != nil:
			t, err = rs.segmentACGroup(i, input, bounds, check, groupEmit)
		case segmentable && !rs.segSerial[i].Load():
			t, err = rs.segmentGroup(i, lazy, input, bounds, check, groupEmit)
		default:
			e := rs.newExec(i)
			err = scanOnce(e, input, check, groupEmit)
			t = e.totals()
		}
		if t.segments > 0 {
			rs.stageEnd(telemetry.StageSegment, st0)
		} else {
			rs.stageEnd(telemetry.StrategyStage(int(t.strat)), st0)
		}
		rs.fold(i, t, nil)
		if err != nil {
			return 0, err
		}
		total += t.matches
	}
	return total, nil
}

// segmentGroup runs default-strategy group i segment-parallel: iMFAnt or
// lazy-DFA workers per segment plus the sequential boundary stitch. A scan
// whose boundary carry exceeds the frontier budget completes exactly but
// pins the group serial for subsequent segmented scans.
func (rs *Ruleset) segmentGroup(i int, lazy bool, input []byte, bounds []int,
	check func() error, emit func(fsa, end int)) (execTotals, error) {
	g := segment.Group{Automaton: i, Program: rs.programs[i], Cfg: rs.engineCfg(i),
		MaxFrontier: rs.maxFrontier()}
	g.Cfg.Checkpoint = check
	if lazy {
		g.Lazy, g.LazyCfg = rs.lazy[i], rs.lazyCfg(i)
		g.LazyCfg.Checkpoint = check
	}
	res, err := segment.Scan(g, input, bounds, emit)
	if res.FellBack {
		rs.segSerial[i].Store(true)
	}
	return execTotals{strat: rs.plan.strat[i], scans: 1, bytes: res.ParallelBytes + res.StitchBytes,
		matches: res.Matches, perFSA: res.PerFSA, skipped: res.AccelBytes,
		segments: int64(res.Segments), segFallbacks: b2i(res.FellBack),
		parallelBytes: res.ParallelBytes, stitchBytes: res.StitchBytes,
		lazy: lazy, hits: res.CacheHits, misses: res.CacheMisses, flushes: res.Flushes,
		thrashes: res.Thrashes, fellBack: res.Thrashes > 0,
		cachedStates: res.CachedStates, accelStates: res.AccelStates}, err
}

// segmentACGroup runs pure-AC group i segment-parallel: overlap windows
// instead of stitching (a match ending in a segment starts at most
// MaxPatternLen-1 bytes before it), exact by the AC suffix-closure.
func (rs *Ruleset) segmentACGroup(i int, input []byte, bounds []int,
	check func() error, emit func(fsa, end int)) (execTotals, error) {
	res, err := segment.ScanAC(rs.plan.ac[i].m, input, bounds, rs.opts.accelOn(), check, 0, emit)
	var distinct int64
	for _, n := range res.PerPattern {
		distinct += b2i(n != 0)
	}
	return execTotals{strat: StrategyAC, scans: 1, bytes: res.ScannedBytes,
		matches: res.Matches, perFSA: res.PerPattern, skipped: res.SkippedBytes,
		sweeps: 1, literalHits: distinct,
		segments: int64(len(bounds) - 1), parallelBytes: res.ScannedBytes}, err
}
