package imfant

import (
	"expvar"

	"repro/internal/lazydfa"
	"repro/internal/telemetry"
)

// Stats is a point-in-time snapshot of runtime matching telemetry. Every
// counter is cumulative since the owning object was created. Snapshots are
// cheap — counters are folded at scan (never per-byte) granularity, so the
// matching hot loops pay nothing for them.
//
// Three scopes expose the same shape:
//
//   - Ruleset.Stats aggregates across every Scanner, StreamMatcher, and
//     CountParallel call derived from the ruleset.
//   - Scanner.Stats covers that scanner's own scans.
//   - StreamMatcher.Stats covers that stream.
type Stats struct {
	// Scans counts completed automaton executions: one per (scan,
	// automaton) pair for block scans, one per automaton for a closed
	// stream.
	Scans int64 `json:"scans"`
	// BytesScanned counts input bytes matched against, per automaton —
	// scanning 1 KiB through a ruleset of 3 MFSAs adds 3 KiB.
	BytesScanned int64 `json:"bytes_scanned"`
	// Matches counts reported match events.
	Matches int64 `json:"matches"`
	// RuleHits holds per-rule match counts indexed like the compiled
	// patterns. A persistently hot rule is a sharding candidate.
	RuleHits []int64 `json:"rule_hits,omitempty"`
	// Lazy holds the lazy-DFA cache counters; nil when the ruleset runs
	// on the iMFAnt engine.
	Lazy *LazyStats `json:"lazy,omitempty"`
	// Prefilter holds the literal-factor prefilter counters; nil when the
	// prefilter is not gating scans (see Options.Prefilter).
	Prefilter *PrefilterStats `json:"prefilter,omitempty"`
	// Accel holds the byte-skipping acceleration counters; nil when
	// acceleration is off (see Options.Accel).
	Accel *AccelStats `json:"accel,omitempty"`
	// Strategy holds the per-group strategy planner's section: which
	// execution strategies the compile-time classification chose, how much
	// input each has scanned, and the runtime prefilter-effectiveness
	// tracker's counters. Always present on rulesets compiled by this
	// version; the per-strategy Bytes partition BytesScanned exactly.
	Strategy *StrategyStats `json:"strategy,omitempty"`
	// Profile holds the sampling profiler's aggregates; nil when the
	// ruleset was compiled without Options.Profile. Ruleset scope only —
	// Scanner and StreamMatcher snapshots omit it (the profiler is shared
	// ruleset-wide).
	Profile *ProfileStats `json:"profile,omitempty"`
	// Segment holds the segment-parallel scanning counters; nil when
	// segmented scanning is disabled (Options.Segment == SegmentOff). Its
	// byte counters partition BytesScanned exactly. At Scanner and
	// StreamMatcher scope every byte is serial — those owners never run the
	// segment-parallel path.
	Segment *SegmentStats `json:"segment,omitempty"`
	// Degraded accounts every rung of the degradation ladder taken:
	// timeouts, shed scans, contained worker panics, lazy-DFA thrash
	// fallbacks, cache-grow retries, and pinned delegations. Always
	// present — an all-zero section is the healthy steady state. A scan
	// counted here still returned either exact matches or a typed error;
	// the section measures lost headroom, never lost correctness.
	Degraded *DegradedStats `json:"degraded"`
	// Latency holds the per-stage wall-clock latency distributions
	// recorded under Options.Latency; nil when attribution is off or no
	// stage has fired. Ruleset scope only — the histogram set is shared
	// ruleset-wide, like the profiler.
	Latency *LatencyStats `json:"latency,omitempty"`
}

// DegradedStats is the degradation-ladder section of a stats snapshot. The
// rungs, in escalation order: a scan can time out (ErrScanTimeout), be shed
// under overload (ErrOverloaded), lose one automaton to a contained worker
// panic (engine.WorkerPanicError), or — on the lazy-DFA engine — thrash its
// cache and fall back to iMFAnt, retry once with a doubled cache, and
// finally pin to iMFAnt for good. Scanner and StreamMatcher scopes report
// their own events; Shed and WorkerPanics are parallel-scan phenomena and
// stay zero there.
type DegradedStats struct {
	// ScanTimeouts counts scans cancelled by Options.ScanTimeout.
	ScanTimeouts int64 `json:"scan_timeouts"`
	// Shed counts scans rejected by the bounded work queue
	// (Options.MaxConcurrentScans) before doing any work.
	Shed int64 `json:"shed"`
	// WorkerPanics counts panics contained inside CountParallel workers:
	// the panicking automaton's results were lost (and reported as a
	// typed error), the process and sibling automata were not.
	WorkerPanics int64 `json:"worker_panics"`
	// ThrashFallbacks counts lazy-DFA scans that fell back to the iMFAnt
	// engine after thrashing the cache — the ladder's first rung,
	// mirroring Lazy.Fallbacks.
	ThrashFallbacks int64 `json:"thrash_fallbacks"`
	// CacheGrows counts one-shot retry-with-larger-cache events
	// (Options.ThrashRetry): a matching context re-entering the cached
	// path with its cap doubled after a thrash.
	CacheGrows int64 `json:"cache_grows"`
	// PinnedScans counts scans delegated whole to the iMFAnt engine
	// because the ladder bottomed out (thrash at the grown cap too).
	PinnedScans int64 `json:"pinned_scans"`
}

// SegmentStats is the segment-parallel scanning section of a stats snapshot
// (Options.Segment). ParallelBytes + StitchBytes + SerialBytes ==
// BytesScanned always holds: every matched-against byte was scanned inside a
// segment worker, by a boundary-stitch runner, or serially. A high
// StitchBytes share means boundary carries survive deep into segments
// (match-dense or always-live rules) and segmentation is paying for its
// parallelism; Fallbacks counts groups whose speculative frontier exceeded
// Options.SegmentMaxFrontier and were pinned serial.
type SegmentStats struct {
	// SegmentedScans counts automaton-group executions that ran
	// segment-parallel.
	SegmentedScans int64 `json:"segmented_scans"`
	// Segments counts segments executed across those scans.
	Segments int64 `json:"segments"`
	// Fallbacks counts segmented scans whose boundary frontier exceeded the
	// budget; results stayed exact and the group runs serially afterwards.
	Fallbacks int64 `json:"fallbacks"`
	// ParallelBytes counts input bytes scanned inside segment workers.
	ParallelBytes int64 `json:"parallel_bytes"`
	// StitchBytes counts bytes re-scanned by boundary stitching.
	StitchBytes int64 `json:"stitch_bytes"`
	// SerialBytes counts bytes scanned outside the segment-parallel path.
	SerialBytes int64 `json:"serial_bytes"`
}

// PrefilterStats is the literal-factor prefilter section of a stats
// snapshot. GroupsSkipped versus Scans is the skip rate; BytesSaved is the
// input volume the skipped automaton executions never had to touch.
type PrefilterStats struct {
	// FilterableRules is the number of rules carrying a literal factor.
	FilterableRules int `json:"filterable_rules"`
	// Factors is the number of distinct factor strings swept for.
	Factors int `json:"factors"`
	// Sweeps counts Aho–Corasick sweeps (one per gated scan or stream).
	Sweeps int64 `json:"sweeps"`
	// FactorHits counts distinct factors found per sweep, summed over
	// sweeps (the prefilter_factor_hits counter).
	FactorHits int64 `json:"prefilter_factor_hits"`
	// GroupsSkipped counts whole MFSA executions elided by the prefilter.
	GroupsSkipped int64 `json:"groups_skipped"`
	// BytesSaved totals the input bytes those executions would have
	// scanned.
	BytesSaved int64 `json:"bytes_saved"`
}

// StrategyStats is the strategy-planner section of a stats snapshot: the
// compile-time classification outcome (see DESIGN.md for the rules) plus
// the runtime prefilter-effectiveness tracker's counters. At Scanner and
// StreamMatcher scope the sweep-disable counters stay zero — the tracker is
// shared ruleset-wide and its event counters are reported there — while
// GroupsUngated reflects the shared gauge.
type StrategyStats struct {
	// Planned reports whether the planner classified groups individually;
	// false means a forced Options.Engine override put every group on one
	// engine.
	Planned bool `json:"planned"`
	// Groups lists, per execution strategy in use, how many automaton
	// groups run it and how many input bytes it has matched against.
	Groups []StrategyGroupStats `json:"groups,omitempty"`
	// SweepsDisabled counts factor sweeps elided entirely because the
	// effectiveness tracker had disabled gating for every gated group.
	SweepsDisabled int64 `json:"sweeps_disabled"`
	// SweepProbes counts sweeps re-run as explicit probes while disabled,
	// checking whether gating has become worthwhile again.
	SweepProbes int64 `json:"sweep_probes"`
	// GroupsUngated is the current number of gated groups whose factor
	// gate the tracker has disabled (a gauge; those groups scan every
	// input until a probe re-enables them).
	GroupsUngated int64 `json:"groups_ungated"`
}

// StrategyGroupStats is one strategy's row in the planner section.
type StrategyGroupStats struct {
	// Strategy names the execution strategy: "ac", "anchored", "dfa",
	// "imfant", or "lazydfa".
	Strategy string `json:"strategy"`
	// Groups is the number of automaton groups the planner routed here.
	Groups int `json:"groups"`
	// Bytes counts input bytes this strategy matched against.
	Bytes int64 `json:"bytes"`
}

// AccelStats is the byte-skipping acceleration section of a stats snapshot.
// BytesSkipped counts input bytes the engines jumped over with a skip kernel
// instead of stepping per byte; those bytes were still matched against (the
// jump is provably equivalent) and so also count in BytesScanned —
// BytesSkipped ≤ BytesScanned always holds, and the counter is disjoint from
// the prefilter's BytesSaved, which counts automaton executions that never
// ran at all.
type AccelStats struct {
	// Automata is the number of MFSAs contributing to these counters.
	Automata int `json:"automata"`
	// AccelStates is the current number of lazy-DFA cached states
	// classified as accelerable, summed across automata (a gauge, like
	// LazyStats.CachedStates); 0 on the iMFAnt engine.
	AccelStates int64 `json:"accel_states"`
	// BytesSkipped counts input bytes consumed by accelerated jumps.
	BytesSkipped int64 `json:"bytes_skipped"`
}

// ProfileStats is the profiler section of a stats snapshot: sampled state
// heat attributed to rules, plus latency and active-set distributions.
// For the full heat map use Ruleset.Profile.
type ProfileStats struct {
	// Stride is the symbol-sampling stride in effect.
	Stride int `json:"stride"`
	// Samples counts sampling points taken across all scans.
	Samples int64 `json:"samples"`
	// ScanLatencyNS summarizes per-scan wall-clock latency in
	// nanoseconds; nil before the first completed scan.
	ScanLatencyNS *HistStats `json:"scan_latency_ns,omitempty"`
	// ChunkLatencyNS summarizes StreamMatcher.Write latency in
	// nanoseconds; nil without stream traffic.
	ChunkLatencyNS *HistStats `json:"chunk_latency_ns,omitempty"`
	// ActivePairs summarizes the active (state, FSA) pair count at
	// sampling points — the engine's live working-set size.
	ActivePairs *HistStats `json:"active_pairs,omitempty"`
	// HotStates lists the ten most-visited states with rule attribution,
	// hottest first.
	HotStates []HotState `json:"hot_states,omitempty"`
}

// HistStats is the compact summary of one profiled distribution.
// Percentiles come from log2 buckets and are within 2× of exact.
type HistStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// LazyStats aggregates transition-cache behaviour across the automata of a
// ruleset running on the lazy-DFA engine. The hit rate is the primary
// signal for sizing Options.LazyDFAMaxStates: a low rate on steady traffic
// means the cap is too small for the ruleset; a rising Fallbacks count
// means the input mix is defeating determinization outright.
type LazyStats struct {
	// Automata is the number of MFSAs contributing to these counters.
	Automata int `json:"automata"`
	// CachedStates is the most recently observed total number of cached
	// DFA states across automata (a gauge, not a cumulative counter).
	CachedStates int64 `json:"cached_states"`
	// MaxStates is the per-automaton cache capacity in effect.
	MaxStates int `json:"max_states"`
	// ByteClasses is the total byte-class count across automata — the
	// width of each automaton's compressed transition rows.
	ByteClasses int `json:"byte_classes"`
	// Hits counts input bytes served by a cached transition.
	Hits int64 `json:"hits"`
	// Misses counts transitions computed on demand by an iMFAnt step.
	Misses int64 `json:"misses"`
	// Flushes counts whole-cache resets forced by the capacity limit.
	Flushes int64 `json:"flushes"`
	// Fallbacks counts scans that abandoned the cache for iMFAnt after
	// thrashing. Pop-mode delegation is a configuration choice and is
	// not counted.
	Fallbacks int64 `json:"fallbacks"`
}

// HitRate returns the fraction of cache lookups served from the cache, in
// [0, 1]; 0 when no lookups have happened.
func (l *LazyStats) HitRate() float64 {
	total := l.Hits + l.Misses
	if total == 0 {
		return 0
	}
	return float64(l.Hits) / float64(total)
}

// statsFrom converts an internal telemetry snapshot to the public shape.
// The sections mirror the telemetry types field for field, so most convert
// directly — a schema drift between the two fails to compile.
func statsFrom(t telemetry.Stats) Stats {
	s := Stats{
		Scans:        t.Scans,
		BytesScanned: t.BytesScanned,
		Matches:      t.Matches,
		RuleHits:     t.RuleHits,
		Lazy:         (*LazyStats)(t.Lazy),
		Prefilter:    (*PrefilterStats)(t.Prefilter),
		Accel:        (*AccelStats)(t.Accel),
		Segment:      (*SegmentStats)(t.Segment),
		Degraded:     (*DegradedStats)(t.Degraded),
	}
	if t.Strategy != nil {
		ss := &StrategyStats{
			Planned:        t.Strategy.Planned,
			SweepsDisabled: t.Strategy.SweepsDisabled,
			SweepProbes:    t.Strategy.SweepProbes,
			GroupsUngated:  t.Strategy.GroupsUngated,
		}
		for _, g := range t.Strategy.Groups {
			ss.Groups = append(ss.Groups, StrategyGroupStats(g))
		}
		s.Strategy = ss
	}
	if t.Profile != nil {
		p := &ProfileStats{
			Stride:         t.Profile.Stride,
			Samples:        t.Profile.Samples,
			ScanLatencyNS:  (*HistStats)(t.Profile.ScanLatencyNS),
			ChunkLatencyNS: (*HistStats)(t.Profile.ChunkLatencyNS),
			ActivePairs:    (*HistStats)(t.Profile.ActivePairs),
		}
		for _, h := range t.Profile.HotStates {
			p.HotStates = append(p.HotStates, HotState(h))
		}
		s.Profile = p
	}
	if t.Latency != nil {
		ls := &LatencyStats{}
		for _, g := range t.Latency.Stages {
			ls.Stages = append(ls.Stages, StageLatency{Stage: g.Stage, HistStats: HistStats(g.HistStats)})
		}
		s.Latency = ls
	}
	return s
}

// Stats returns the ruleset-wide telemetry snapshot: the fold of every scan
// executed by Scanners, StreamMatchers, and CountParallel calls created
// from this ruleset. Safe for concurrent use.
func (rs *Ruleset) Stats() Stats {
	return statsFrom(rs.collector.Snapshot())
}

// StatsVar returns the ruleset's live counters as an expvar.Var whose
// String method renders the current Stats snapshot as JSON, for publishing
// on the standard debug endpoint:
//
//	expvar.Publish("imfant", rs.StatsVar())
func (rs *Ruleset) StatsVar() expvar.Var {
	return rs.collector
}

// Stats returns this scanner's own telemetry: totals over every scan it has
// executed, including the completed part of a scan cut short by an error.
// Not safe for use concurrent with the scanner's scans (the Scanner itself
// is single-owner).
func (s *Scanner) Stats() Stats {
	return s.local.stats(s.rs, s.execs, nil)
}

// Stats returns this stream's telemetry, including the in-progress state of
// a stream that has not been closed yet (Scans stays 0 until Close, since a
// stream counts as one completed scan per automaton). Not safe for use
// concurrent with Write or Close.
func (sm *StreamMatcher) Stats() Stats {
	l := localStats{ruleHits: make([]int64, len(sm.rs.patterns)), pref: sm.pref, timeouts: sm.timeouts}
	for i, e := range sm.execs {
		if !sm.isGated(i) {
			l.add(sm.rs, i, e.totals())
		}
	}
	return l.stats(sm.rs, sm.execs, sm.gated)
}

// localStats is one Scanner's or StreamMatcher's own counters: the local
// half of the fold.
type localStats struct {
	strat                           [numStrategies]stratTotals
	ruleHits                        []int64
	skipped                         int64
	hits, misses, flushes, thrashes int64
	grows, pins                     int64
	pref                            prefCounters
	timeouts                        int64 // scans cut short by Options.ScanTimeout
}

// stratTotals accumulates one owner's activity per strategy; the rows
// partition the owner's top-level totals.
type stratTotals struct {
	scans, bytes, matches int64
}

// add folds one scan of group i into the local counters.
func (l *localStats) add(rs *Ruleset, i int, t execTotals) {
	row := &l.strat[t.strat]
	row.scans += t.scans
	row.bytes += t.bytes
	row.matches += t.matches
	rules := rs.programs[i].Rules()
	for fsa, n := range t.perFSA {
		if id := rules[fsa].RuleID; n != 0 && id >= 0 && id < len(l.ruleHits) {
			l.ruleHits[id] += n
		}
	}
	l.skipped += t.skipped
	if rs.prefEnabled {
		l.pref.sweeps += t.sweeps
		l.pref.hits += t.literalHits
	}
	l.hits += t.hits
	l.misses += t.misses
	l.flushes += t.flushes
	l.thrashes += t.thrashes
	l.grows += b2i(t.grew)
	l.pins += b2i(t.pinned)
}

// stats builds the owner-scope snapshot: the counters folded so far plus
// the live cache gauges of the owner's executors (those marked in skip
// excluded).
func (l *localStats) stats(rs *Ruleset, execs []executor, skip []bool) Stats {
	st := Stats{RuleHits: append([]int64(nil), l.ruleHits...),
		Degraded: &DegradedStats{ScanTimeouts: l.timeouts}}
	for _, row := range l.strat {
		st.Scans += row.scans
		st.BytesScanned += row.bytes
		st.Matches += row.matches
	}
	if rs.opts.accelOn() {
		st.Accel = &AccelStats{Automata: len(rs.programs), BytesSkipped: l.skipped}
	}
	for i, e := range execs {
		t := e.totals()
		if !t.lazy || (skip != nil && skip[i]) {
			continue
		}
		if st.Lazy == nil {
			st.Lazy = &LazyStats{Hits: l.hits, Misses: l.misses, Flushes: l.flushes, Fallbacks: l.thrashes}
		}
		st.Lazy.Automata++
		st.Lazy.CachedStates += int64(t.cachedStates)
		st.Lazy.MaxStates = max(st.Lazy.MaxStates, t.maxStates)
		st.Lazy.ByteClasses += rs.lazy[i].NumClasses()
		if st.Accel != nil {
			st.Accel.AccelStates += int64(t.accelStates)
		}
	}
	if st.Lazy != nil {
		if st.Lazy.MaxStates == 0 {
			st.Lazy.MaxStates = lazydfa.ResolveMaxStates(rs.opts.LazyDFAMaxStates)
		}
		st.Degraded.ThrashFallbacks = l.thrashes
		st.Degraded.CacheGrows = l.grows
		st.Degraded.PinnedScans = l.pins
	}
	// The planner section: classification outcome from the shared plan,
	// bytes from the local rows, and the shared tracker's ungated gauge (its
	// sweep-disable event counters are ruleset-scope and stay zero here).
	st.Strategy = &StrategyStats{Planned: rs.plan.planned, GroupsUngated: rs.tracker.disabledNow()}
	for k, row := range l.strat {
		if n := rs.plan.counts[k]; n > 0 {
			st.Strategy.Groups = append(st.Strategy.Groups,
				StrategyGroupStats{Strategy: Strategy(k).String(), Groups: n, Bytes: row.bytes})
		}
	}
	if rs.prefEnabled {
		st.Prefilter = &PrefilterStats{FilterableRules: rs.prefRules, Factors: rs.prefFactors,
			Sweeps: l.pref.sweeps, FactorHits: l.pref.hits,
			GroupsSkipped: l.pref.skipped, BytesSaved: l.pref.saved}
	}
	if rs.opts.Segment != SegmentOff {
		// Owner scopes never segment: every byte is serial.
		st.Segment = &SegmentStats{SerialBytes: st.BytesScanned}
	}
	return st
}
