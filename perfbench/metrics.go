package main

import (
	"math"
	"sort"

	imfant "repro"
)

// stageNames are the Options.Latency stages, in Stats().Latency's naming.
var stageNames = []string{"scan", "prefilter", "strategy_imfant", "strategy_lazydfa",
	"strategy_ac", "strategy_anchored", "strategy_dfa", "parallel",
	"stream_write", "stream_flush", "segment"}

const (
	stScan = iota
	stPrefilter
	stIMFAnt
	stLazyDFA
	stAC
	stAnchored
	stDFA
	stParallel
	stWrite
	stFlush
	stSegment
	numStages
)

// strategyNames are Stats().Strategy's per-strategy byte rows.
var strategyNames = []string{"imfant", "lazydfa", "ac", "dfa", "anchored"}

// counters is the flat part of one Ruleset.Stats() snapshot the benchmark
// reads; deltas between two snapshots bracket a measured phase.
type counters struct {
	scans, bytes                       int64
	hits, misses, flushes, fallbacks   int64
	cachedStates                       int64 // gauge
	sweeps, skipped, elided            int64
	strat                              [5]int64 // bytes, by strategyNames
	accelSkipped                       int64
	segParallel, segStitch, segFallbks int64
	thrash, grows, pinned              int64
	stageNS                            [numStages]int64
}

func snapshot(rs *imfant.Ruleset) counters {
	s := rs.Stats()
	c := counters{scans: s.Scans, bytes: s.BytesScanned}
	if l := s.Lazy; l != nil {
		c.hits, c.misses, c.flushes, c.fallbacks, c.cachedStates = l.Hits, l.Misses, l.Flushes, l.Fallbacks, l.CachedStates
	}
	if p := s.Prefilter; p != nil {
		c.sweeps, c.skipped = p.Sweeps, p.GroupsSkipped
	}
	if st := s.Strategy; st != nil {
		c.elided = st.SweepsDisabled
		for _, g := range st.Groups {
			for k, name := range strategyNames {
				if g.Strategy == name {
					c.strat[k] += g.Bytes
				}
			}
		}
	}
	if a := s.Accel; a != nil {
		c.accelSkipped = a.BytesSkipped
	}
	if sg := s.Segment; sg != nil {
		c.segParallel, c.segStitch, c.segFallbks = sg.ParallelBytes, sg.StitchBytes, sg.Fallbacks
	}
	if d := s.Degraded; d != nil {
		c.thrash, c.grows, c.pinned = d.ThrashFallbacks, d.CacheGrows, d.PinnedScans
	}
	if lat := s.Latency; lat != nil {
		for _, st := range lat.Stages {
			for k, name := range stageNames {
				if st.Stage == name {
					c.stageNS[k] = int64(math.Round(float64(st.Count) * st.Mean))
				}
			}
		}
	}
	return c
}

func snapshotAll(sets []*imfant.Ruleset) []counters {
	out := make([]counters, len(sets))
	for i, rs := range sets {
		out[i] = snapshot(rs)
	}
	return out
}

// delta sums after-before over every ruleset; gauges take the after value.
func delta(before, after []counters) counters {
	var d counters
	for i := range after {
		a, b := after[i], before[i]
		d.scans += a.scans - b.scans
		d.bytes += a.bytes - b.bytes
		d.hits += a.hits - b.hits
		d.misses += a.misses - b.misses
		d.flushes += a.flushes - b.flushes
		d.fallbacks += a.fallbacks - b.fallbacks
		d.cachedStates += a.cachedStates
		d.sweeps += a.sweeps - b.sweeps
		d.skipped += a.skipped - b.skipped
		d.elided += a.elided - b.elided
		for k := range d.strat {
			d.strat[k] += a.strat[k] - b.strat[k]
		}
		d.accelSkipped += a.accelSkipped - b.accelSkipped
		d.segParallel += a.segParallel - b.segParallel
		d.segStitch += a.segStitch - b.segStitch
		d.segFallbks += a.segFallbks - b.segFallbks
		d.thrash += a.thrash - b.thrash
		d.grows += a.grows - b.grows
		d.pinned += a.pinned - b.pinned
		for k := range d.stageNS {
			d.stageNS[k] += a.stageNS[k] - b.stageNS[k]
		}
	}
	return d
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank q-quantile of sorted.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// throughput is submitted bytes per second: the median over the measured
// phase's windows where it has them, which keeps a burst of host noise in
// one window out of the figure; else over the whole phase.
func throughput(p *phase) float64 {
	if len(p.windows) > 0 {
		return median(p.windows)
	}
	return float64(p.bytes) / p.wall.Seconds()
}

// endToEnd fills the user-visible metrics of an untraced measured phase.
func endToEnd(m metrics, p *phase, setupS float64) {
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	m.set("throughput_mbps", throughput(p)/1e6, "MB/s")
	m.set("op_p50_ms", float64(percentile(p.lat, 0.50))/1e6, "ms")
	m.set("op_p99_ms", float64(percentile(p.lat, 0.99))/1e6, "ms")
	m.set("setup_s", setupS, "s")
	m.set("cpu_ns_per_byte", ratio(float64(p.cpu.Nanoseconds()), float64(p.bytes)), "ns/B")
	m.set("allocs_per_op", ratio(float64(p.mallocs), float64(p.ops)), "count")
	m.set("alloc_bytes_per_op", ratio(float64(p.allocB), float64(p.ops)), "B")
}

// shares returns each layer's self time over total op wall time. Stage
// timers nest: scan ⊇ {prefilter, strategy_*, parallel, segment}; a flow
// op ⊇ {open span, stream_write, close span ⊇ stream_flush}. The
// remainder — call set-up outside every timer, e.g. the per-call runner
// construction of Ruleset.Count — is trace.unattributed_share.
func shares(p *phase, d counters) map[string]float64 {
	op := float64(p.sp.opNS)
	st := func(k int) float64 { return float64(d.stageNS[k]) }
	children := st(stPrefilter) + st(stIMFAnt) + st(stLazyDFA) + st(stAC) +
		st(stAnchored) + st(stDFA) + st(stParallel) + st(stSegment)
	return map[string]float64{
		"prefilter.busy_share":       ratio(st(stPrefilter), op),
		"plan.dispatch_self_share":   ratio(st(stScan)-children, op),
		"plan.other_busy_share":      ratio(st(stAnchored)+st(stDFA), op),
		"engine.busy_share":          ratio(st(stIMFAnt), op),
		"engine.parallel_busy_share": ratio(st(stParallel), op),
		"lazydfa.busy_share":         ratio(st(stLazyDFA), op),
		"ahocorasick.busy_share":     ratio(st(stAC), op),
		"segment.busy_share":         ratio(st(stSegment), op),
		"stream.open_share":          ratio(float64(p.sp.openNS), op),
		"stream.write_busy_share":    ratio(st(stWrite), op),
		"stream.close_self_share":    ratio(float64(p.sp.closeNS)-st(stFlush), op),
		"stream.flush_busy_share":    ratio(st(stFlush), op),
		"trace.unattributed_share":   ratio(op-st(stScan)-st(stWrite)-float64(p.sp.openNS+p.sp.closeNS), op),
	}
}

// perLayer fills the traced run's layer metrics. untraced is the same
// run's untraced phase, for the tracing overhead.
func perLayer(m metrics, p, untraced *phase, pipe pipelineTimes, failedRatio float64) {
	d := delta(p.before, p.after)
	for name, v := range shares(p, d) {
		m.set(name, v, "ratio")
	}
	ops := float64(p.ops)
	strat := func(k int) float64 { return float64(d.strat[k]) }
	total := 0.0
	for k := range d.strat {
		total += strat(k)
	}
	for k, name := range strategyNames {
		m.set("plan."+name+"_bytes_share", ratio(strat(k), total), "ratio")
	}
	st := func(k int) float64 { return float64(d.stageNS[k]) }

	m.set("pipeline.front_end_ms", pipe.frontEnd, "ms")
	m.set("pipeline.ast_to_fsa_ms", pipe.astToFSA, "ms")
	m.set("pipeline.single_fsa_opt_ms", pipe.singleOpt, "ms")
	m.set("pipeline.merging_ms", pipe.merging, "ms")
	m.set("pipeline.anml_gen_ms", pipe.anmlGen, "ms")
	m.set("pipeline.unattributed_ms", pipe.unattributed, "ms")
	m.set("mfsa.states", pipe.states, "count")
	m.set("mfsa.transitions", pipe.transitions, "count")

	m.set("prefilter.sweeps_per_op", ratio(float64(d.sweeps), ops), "count")
	m.set("prefilter.skip_ratio", ratio(float64(d.skipped), float64(d.skipped+d.scans)), "ratio")
	m.set("prefilter.sweeps_disabled_ratio", ratio(float64(d.elided), float64(d.sweeps+d.elided)), "ratio")

	m.set("engine.ns_per_byte", ratio(st(stIMFAnt), strat(0)), "ns/B")
	m.set("lazydfa.ns_per_byte", ratio(st(stLazyDFA), strat(1)), "ns/B")
	m.set("lazydfa.hit_ratio", ratio(float64(d.hits), float64(d.hits+d.misses)), "ratio")
	m.set("lazydfa.misses_per_kib", ratio(float64(d.misses), strat(1)/1024), "count")
	m.set("lazydfa.flushes", float64(d.flushes), "count")
	m.set("lazydfa.fallbacks", float64(d.fallbacks), "count")
	m.set("lazydfa.cached_states", float64(d.cachedStates), "count")
	m.set("ahocorasick.ns_per_byte", ratio(st(stAC), strat(2)), "ns/B")
	m.set("bytescan.skipped_ratio", ratio(float64(d.accelSkipped), float64(d.bytes)), "ratio")

	m.set("segment.stitch_ratio", ratio(float64(d.segStitch), float64(d.segParallel)), "ratio")
	m.set("segment.parallel_bytes_share", ratio(float64(d.segParallel), float64(d.bytes)), "ratio")
	m.set("segment.fallbacks", float64(d.segFallbks), "count")

	m.set("stream.open_us", ratio(float64(p.sp.openNS), float64(p.sp.opens))/1e3, "us")
	m.set("stream.close_us", ratio(float64(p.sp.closeNS), float64(p.sp.closes))/1e3, "us")

	m.set("degrade.thrash_fallbacks", float64(d.thrash), "count")
	m.set("degrade.cache_grows", float64(d.grows), "count")
	m.set("degrade.pinned_scans", float64(d.pinned), "count")

	m.set("trace.overhead_ratio", ratio(throughput(untraced), throughput(p)), "ratio")
	m.set("runtime.gc_pause_share", ratio(float64(p.gcPause), float64(p.wall.Nanoseconds())), "ratio")
	m.set("failed_ratio", failedRatio, "ratio")
}

// pipelineTimes is the median compile-stage split of the set-up reps,
// summed over the workload's rulesets (Fig. 8's stages).
type pipelineTimes struct {
	frontEnd, astToFSA, singleOpt, merging, anmlGen, unattributed float64 // ms
	states, transitions                                           float64
}

// layerShareNames lists the shares that partition op time.
func layerShareNames() []string {
	var out []string
	for name := range shares(&phase{}, counters{}) {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// rulesetRatios is one ruleset's share of the counter ratios, for the
// info line: the pooled per-layer metrics can hide which ruleset moved.
func rulesetRatios(d counters) map[string]float64 {
	out := map[string]float64{
		"segment.stitch_ratio":            ratio(float64(d.segStitch), float64(d.segParallel)),
		"segment.parallel_bytes_share":    ratio(float64(d.segParallel), float64(d.bytes)),
		"lazydfa.hit_ratio":               ratio(float64(d.hits), float64(d.hits+d.misses)),
		"prefilter.sweeps_disabled_ratio": ratio(float64(d.elided), float64(d.sweeps+d.elided)),
	}
	total := 0.0
	for _, b := range d.strat {
		total += float64(b)
	}
	for k, name := range strategyNames {
		if d.strat[k] > 0 {
			out["plan."+name+"_bytes_share"] = ratio(float64(d.strat[k]), total)
		}
	}
	return out
}
