// Package imfant is a multi-regular-expression matching library built on
// the Multi-RE Finite State Automaton (MFSA) model of "One Automaton to
// Rule Them All: Beyond Multiple Regular Expressions Execution" (CGO 2024).
//
// A Ruleset compiles a set of POSIX ERE patterns through the paper's
// multi-level framework — lexical/syntactic analysis, Thompson construction,
// single-FSA optimization (ε-removal, loop expansion, multiplicity
// simplification), and merging of morphologically identical sub-paths into
// MFSAs — and executes them with the iMFAnt engine, which tracks the
// activation function so each merged RE's matches stay exact.
//
// Quick start:
//
//	rs, err := imfant.Compile([]string{"GET /admin", "cmd\\.exe"}, imfant.Options{})
//	if err != nil { ... }
//	for _, m := range rs.FindAll(payload) {
//		fmt.Printf("rule %d (%s) matched ending at %d\n", m.Rule, m.Pattern, m.End)
//	}
package imfant

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/anml"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/hist"
	"repro/internal/lazydfa"
	"repro/internal/metrics"
	"repro/internal/mfsa"
	"repro/internal/nfa"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// EngineMode selects the execution engine used by scans.
type EngineMode int

const (
	// EngineAuto picks the lazy-DFA engine whenever its semantics apply
	// (KeepOnMatch, whose keep semantics make the traversal cacheable)
	// and the iMFAnt engine otherwise.
	EngineAuto EngineMode = iota
	// EngineIMFAnt forces the paper's NFA-style iMFAnt engine.
	EngineIMFAnt
	// EngineLazyDFA forces the lazy-DFA engine: on-the-fly
	// determinization of the iMFAnt state vector with a bounded,
	// byte-class-compressed transition cache. Configurations it cannot
	// cache (KeepOnMatch == false, the paper's Eq. 5 pop) and inputs
	// that thrash the cache fall back transparently to iMFAnt.
	EngineLazyDFA
)

// AccelMode selects byte-skipping acceleration: memchr-class skip kernels
// that let the engines jump over provably irrelevant input bytes instead of
// stepping the automaton once per byte. The lazy-DFA engine classifies every
// cached state at construction and jumps while parked in states with at most
// four live outgoing bytes; the iMFAnt engine skips to the next possible
// start byte while its activation vector is empty; the prefilter's
// Aho–Corasick sweep skips while parked at its root. All three are exact:
// match results are byte-identical in every mode.
type AccelMode int

const (
	// AccelAuto (the zero value) enables acceleration. It is the default
	// because the skips are exact and profitable whenever they engage;
	// states and programs that do not qualify run the ordinary per-byte
	// loops unchanged.
	AccelAuto AccelMode = iota
	// AccelOn forces acceleration (currently identical to AccelAuto).
	AccelOn
	// AccelOff disables every byte-skipping path — the measurement
	// baseline, and an escape hatch.
	AccelOff
)

// Options configures compilation and matching.
type Options struct {
	// MergeFactor is the paper's M: how many REs are merged into each
	// MFSA. The ruleset is split into ⌈N/M⌉ sequential groups. Zero (or
	// a value ≥ the ruleset size) merges everything into one MFSA
	// ("M = all"), which maximizes compression; 1 disables merging and
	// degenerates to plain iNFAnt over per-RE NFAs.
	MergeFactor int
	// KeepOnMatch disables the paper's Eq. 5 pop: a rule stays active
	// after matching, so every longer match of the same path is also
	// reported. Off by default (paper semantics).
	KeepOnMatch bool
	// Engine selects the execution engine. The zero value (EngineAuto)
	// uses the lazy-DFA engine when KeepOnMatch is set and iMFAnt
	// otherwise. Both engines report each (rule, end offset) pair exactly
	// once, so their match-event streams are identical.
	Engine EngineMode
	// Prefilter selects the literal-factor prefilter: a compile-time
	// Hyperscan-style decomposition that extracts a required literal factor
	// from each rule where one exists, and a scan-time Aho–Corasick sweep
	// that skips whole MFSA groups whose rules cannot match the input. The
	// zero value (PrefilterAuto) engages it only when at least one group is
	// fully filterable; PrefilterOn additionally biases grouping so
	// filterable rules share MFSAs. Results are identical in every mode.
	Prefilter PrefilterMode
	// MinFactorLen is the shortest literal factor worth prefiltering on;
	// 0 selects the default (3). Shorter factors hit more often and gate
	// less; raising the threshold trades filterable-rule coverage for
	// sweep selectivity.
	MinFactorLen int
	// Accel selects byte-skipping acceleration (lazy-DFA state
	// acceleration, the iMFAnt start-byte skip, and the prefilter sweep's
	// root skip). The zero value (AccelAuto) enables it; results are
	// byte-identical in every mode. See AccelMode.
	Accel AccelMode
	// LazyDFAMaxStates caps the lazy-DFA transition cache per automaton
	// and matching context; 0 selects lazydfa.DefaultMaxStates. Smaller
	// caps bound memory at the cost of more cache flushes.
	LazyDFAMaxStates int
	// Limits is the compile-side resource budget: pattern length, nesting
	// depth, per-rule NFA states under loop expansion, and the total MFSA
	// state count. The zero value selects the documented defaults, which
	// keep compilation of hostile rulesets bounded; set a field negative
	// to disable that check.
	Limits Limits
	// Profile enables the sampling execution profiler: per-state visit
	// counts attributed to rules through the belonging sets, scan and
	// stream-chunk latency histograms, and active-set size distributions,
	// all readable via Ruleset.Profile and the Stats().Profile section.
	// Sampling happens once every ProfileStride input bytes outside the
	// per-byte hot loops; with Profile off the engines pay a single nil
	// check per chunk and Profile() returns nil.
	Profile bool
	// ProfileStride is the symbol-sampling stride of the profiler; 0
	// selects the default (64). Smaller strides sharpen the heat map at a
	// proportional sampling cost. Ignored when Profile is false.
	ProfileStride int
	// Latency enables per-stage wall-clock latency attribution: monotonic
	// timers bracket the prefilter sweep, each automaton's strategy
	// dispatch, the parallel fan-out, and stream chunk/flush work, folded
	// into allocation-free log2 histograms and surfaced as the
	// Stats().Latency section (p50/p90/p99 per stage, nanoseconds).
	// Independent of Profile; with Latency off the scan paths pay a single
	// nil check per chunk and the section is omitted.
	Latency bool
	// TraceCapacity, when positive, enables the structured trace ring:
	// the most recent TraceCapacity events (scan begin/end, matches, lazy
	// flush/fallback, stream end) are retained and readable via
	// Ruleset.TraceEvents; SetTraceSink observes every event live.
	// Tracing is independent of Profile.
	TraceCapacity int
	// ScanTimeout bounds each scan's wall-clock time; zero disables the
	// bound. The deadline is observed at the engines' ordinary
	// checkpoints (about every 4 KiB per automaton) and surfaces as the
	// typed ErrScanTimeout, which wraps context.DeadlineExceeded. For
	// StreamMatchers the budget applies per Write (and to Close's final
	// flush) rather than to the unbounded stream as a whole; an expired
	// stream fails sticky, like a context cancellation. Timed-out scans
	// count in Stats().Degraded.ScanTimeouts.
	ScanTimeout time.Duration
	// MaxConcurrentScans bounds how many CountParallel calls may execute
	// at once across the ruleset; 0 (the default) does not bound them.
	// With the bound in place, excess calls wait in a queue of at most
	// MaxQueuedScans; beyond that they are shed with the typed
	// ErrOverloaded instead of queueing unboundedly. Shed scans count in
	// Stats().Degraded.Shed.
	MaxConcurrentScans int
	// MaxQueuedScans is the bounded work queue's capacity — how many
	// CountParallel calls may block waiting for a slot when
	// MaxConcurrentScans is set. The default 0 sheds immediately
	// whenever every slot is busy (fail-fast). Ignored without
	// MaxConcurrentScans.
	MaxQueuedScans int
	// ThrashRetry selects the lazy-DFA degradation ladder: after a
	// matching context's cache thrashes, its next scan retries once with
	// the cache cap doubled, and a thrash at the grown cap pins the
	// context to the iMFAnt engine permanently — bounded backoff in
	// place of rebuild-thrash-rebuild churn. The zero value (RetryAuto)
	// enables the ladder; results are byte-identical on every rung. The
	// rungs taken are recorded in Stats().Degraded (CacheGrows,
	// PinnedScans).
	ThrashRetry RetryMode
	// Segment selects segment-parallel scanning for whole-buffer ruleset
	// scans (CountParallel, FindAll): the input is cut into contiguous
	// segments scanned concurrently, with exact boundary stitching — the
	// reported events are byte-identical to a serial scan. SegmentAuto (the
	// zero value) segments inputs of at least SegmentMinBytes; SegmentOn
	// segments every input large enough to cut; SegmentOff disables the
	// path. Scanner and StreamMatcher scans are never segmented — their
	// value is warm per-goroutine state, not intra-input parallelism.
	Segment SegmentMode
	// SegmentMinBytes is the minimum input size SegmentAuto segments; 0
	// selects DefaultSegmentMinBytes. Below it the fan-out overhead
	// (per-worker runners plus boundary stitching) outweighs the
	// parallelism.
	SegmentMinBytes int
	// SegmentWorkers is the segment count per scan; 0 selects GOMAXPROCS.
	// CountParallel's explicit threads argument, when positive, takes
	// precedence.
	SegmentWorkers int
	// SegmentMaxFrontier bounds the speculative boundary frontier, in
	// active MFSA states; 0 selects DefaultSegmentMaxFrontier. A group
	// whose boundary carry exceeds the budget still finishes the current
	// scan exactly, but is pinned to the serial path for subsequent scans
	// (counted in Stats().Segment.Fallbacks) — a group that is almost
	// always mid-match gains nothing from segmentation.
	SegmentMaxFrontier int
}

// Match is one reported match.
type Match struct {
	// Rule is the index of the pattern within the compiled ruleset.
	Rule int
	// Pattern is the rule's source text.
	Pattern string
	// End is the offset of the last byte of the match (inclusive).
	End int
}

// StageTimes reports the cost of each compilation stage (§IV, Fig. 8).
type StageTimes struct {
	FrontEnd, ASTToFSA, SingleFSAOpt, Merging, ANMLGen time.Duration
}

// Total returns the end-to-end compilation time.
func (st StageTimes) Total() time.Duration {
	return st.FrontEnd + st.ASTToFSA + st.SingleFSAOpt + st.Merging + st.ANMLGen
}

// Ruleset is a compiled, immutable set of regular expressions ready for
// matching. Create one with Compile or LoadANML. A Ruleset is safe for
// concurrent use; per-goroutine scratch state lives in Matchers.
type Ruleset struct {
	patterns  []string
	mfsas     []*mfsa.MFSA
	programs  []*engine.Program
	lazy      []*lazydfa.Matcher
	times     StageTimes
	comp      metrics.Compression
	opts      Options
	collector *telemetry.Collector
	plan      *scanPlan    // per-group execution strategies (see plan.go)
	pf        *prefilter   // literal-factor gating plan; nil when inactive
	tracker   *prefTracker // runtime sweep-effectiveness tracker; nil when ungated
	sched     *scanGate    // overload shedding for parallel scans; nil when unbounded
	// prefEnabled (with the rule/factor config counts) drives the Prefilter
	// stats section: it is on whenever literal gating is happening — via the
	// factor sweep (rs.pf) or via AC-routed groups, whose strategy scan IS
	// their factor sweep.
	prefEnabled bool
	prefRules   int
	prefFactors int
	// faults, when non-nil, arms the fault-injection sites of every scan
	// and stream created from this ruleset — the chaos-testing substrate
	// (see internal/faultpoint). Always nil in production use; set by
	// in-package tests via setFaultInjector.
	faults *faultpoint.Injector
	// segSerial[i], once set, pins group i to the serial path in segmented
	// scans: its speculative boundary frontier exceeded SegmentMaxFrontier,
	// so the group is almost always mid-match and segmentation buys nothing
	// (see segment.go). Sticky for the ruleset's lifetime.
	segSerial []atomic.Bool

	// Profiling state; all nil/absent when Options.Profile is false.
	profiles []*engine.Profile // per-program sampled state heat
	scanLat  *hist.Histogram   // per-scan wall-clock latency, ns
	chunkLat *hist.Histogram   // per-StreamMatcher.Write latency, ns
	trace    *telemetry.TraceRing
	// lat is the per-stage latency histogram set; nil when Options.Latency
	// is false — the single nil check instrumentation-off scans pay.
	lat *telemetry.Latency
}

// accelOn resolves the Accel knob: every mode but AccelOff accelerates.
func (o Options) accelOn() bool { return o.Accel != AccelOff }

// buildEngines lowers the compiled MFSAs into executable programs and their
// lazy-DFA matchers, and sets up the ruleset-wide telemetry collector.
func (rs *Ruleset) buildEngines() {
	rs.lazy = make([]*lazydfa.Matcher, len(rs.programs))
	for i, p := range rs.programs {
		rs.lazy[i] = lazydfa.New(p)
	}
	rs.collector = telemetry.NewCollector(len(rs.patterns))
	// The Lazy section is enabled by buildPlan, which knows how many groups
	// actually run on the lazy-DFA engine.
	if rs.opts.accelOn() {
		rs.collector.EnableAccel(len(rs.programs))
	}
	if rs.opts.Segment != SegmentOff {
		rs.collector.EnableSegment()
	}
	rs.segSerial = make([]atomic.Bool, len(rs.programs))
	if rs.opts.Profile {
		rs.profiles = make([]*engine.Profile, len(rs.programs))
		for i, p := range rs.programs {
			rs.profiles[i] = engine.NewProfile(p, rs.opts.ProfileStride)
		}
		rs.scanLat = new(hist.Histogram)
		rs.chunkLat = new(hist.Histogram)
		rs.collector.SetProfileFunc(rs.profileStats)
	}
	if rs.opts.TraceCapacity > 0 {
		rs.trace = telemetry.NewTraceRing(rs.opts.TraceCapacity)
	}
	if rs.opts.Latency {
		rs.lat = rs.collector.EnableLatency()
	}
	rs.sched = newScanGate(rs.opts.MaxConcurrentScans, rs.opts.MaxQueuedScans)
}

// setFaultInjector arms in on every scan and stream subsequently created
// from the ruleset (the executors of already-created Scanners and
// StreamMatchers keep their configuration; a Scanner's prefilter gate
// follows the ruleset's injector). Test-only: the chaos conformance suite schedules fault
// storms through it; nil disarms.
func (rs *Ruleset) setFaultInjector(in *faultpoint.Injector) { rs.faults = in }

// profileOf returns automaton i's profile, nil when profiling is off.
func (rs *Ruleset) profileOf(i int) *engine.Profile {
	if rs.profiles == nil {
		return nil
	}
	return rs.profiles[i]
}

// Compile builds a Ruleset from POSIX ERE patterns. Compilation runs under
// Options.Limits; any failure — syntax or budget — is returned as a
// *CompileError attributing the rule and pipeline stage, and the whole
// ruleset is rejected. Use CompileLax to isolate per-rule failures instead.
func Compile(patterns []string, opts Options) (*Ruleset, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("imfant: empty ruleset")
	}
	out, _, err := pipeline.Run(compileRequest(patterns, opts, false))
	if err != nil {
		return nil, wrapCompileError(err)
	}
	return newRuleset(patterns, out, opts), nil
}

// CompileLax compiles the ruleset with per-rule fault isolation: rules that
// fail lexing, parsing, construction, or single-FSA optimization are
// dropped and reported in ruleErrs while the surviving rules compile
// exactly as if the ruleset had never contained the bad ones — same
// automata, same matches, and Match.Rule still indexes the original
// patterns slice. err is non-nil only for ruleset-level failures (no rule
// survived, or the merge/ANML stages failed), in which case rs is nil.
func CompileLax(patterns []string, opts Options) (rs *Ruleset, ruleErrs []RuleError, err error) {
	if len(patterns) == 0 {
		return nil, nil, fmt.Errorf("imfant: empty ruleset")
	}
	out, perrs, err := pipeline.Run(compileRequest(patterns, opts, true))
	for _, pe := range perrs {
		ruleErrs = append(ruleErrs, RuleError{
			Rule: pe.Rule, Pattern: pe.Pattern, Stage: pe.Stage, Err: pe.Err,
		})
	}
	if err != nil {
		return nil, ruleErrs, wrapCompileError(err)
	}
	return newRuleset(patterns, out, opts), ruleErrs, nil
}

// compileRequest is the pipeline request for a ruleset compiled under opts:
// factor extraction runs unless the prefilter is off, and the Front-End
// classifies rule shapes only for the planner (EngineAuto).
func compileRequest(patterns []string, opts Options, lax bool) pipeline.Request {
	req := pipeline.Request{
		Patterns:    patterns,
		Merge:       opts.MergeFactor,
		Limits:      opts.Limits.pipeline(),
		Lax:         lax,
		FactorGroup: opts.Prefilter == PrefilterOn,
		Shapes:      opts.Engine == EngineAuto,
	}
	if opts.Prefilter != PrefilterOff {
		req.FactorMinLen = opts.minFactorLen()
	}
	return req
}

// wrapCompileError converts a pipeline failure into the public typed form.
func wrapCompileError(err error) error {
	var pe *pipeline.RuleError
	if errors.As(err, &pe) {
		return &CompileError{Rule: pe.Rule, Pattern: pe.Pattern, Stage: pe.Stage, Err: pe.Err}
	}
	return fmt.Errorf("imfant: %w", err)
}

// newRuleset lowers a pipeline output into an executable Ruleset. patterns
// is the full original ruleset — in lax mode the compiled automata may
// cover a subset, but rule ids keep indexing the original slice.
func newRuleset(patterns []string, out *pipeline.Output, opts Options) *Ruleset {
	rs := &Ruleset{
		patterns: append([]string(nil), patterns...),
		mfsas:    out.MFSAs,
		opts:     opts,
		times: StageTimes{
			FrontEnd:     out.Times.FrontEnd,
			ASTToFSA:     out.Times.ASTToFSA,
			SingleFSAOpt: out.Times.SingleME,
			Merging:      out.Times.MergeME,
			ANMLGen:      out.Times.BackEnd,
		},
		comp: metrics.MeasureCompression(out.FSAs, out.MFSAs),
	}
	rs.programs = make([]*engine.Program, len(out.MFSAs))
	for i, z := range out.MFSAs {
		rs.programs[i] = engine.NewProgram(z)
	}
	rs.buildEngines()
	nfasByID := make(map[int]*nfa.NFA, len(out.FSAs))
	for _, a := range out.FSAs {
		nfasByID[a.ID] = a
	}
	rs.buildPlan(out.Shapes, nfasByID)
	rs.buildPrefilter(out.Factors)
	return rs
}

// MustCompile is Compile for rulesets known to be valid; it panics on error.
func MustCompile(patterns []string, opts Options) *Ruleset {
	rs, err := Compile(patterns, opts)
	if err != nil {
		panic(err)
	}
	return rs
}

// NumRules returns the number of compiled patterns.
func (rs *Ruleset) NumRules() int { return len(rs.patterns) }

// NumAutomata returns the number of MFSAs (⌈N/M⌉).
func (rs *Ruleset) NumAutomata() int { return len(rs.programs) }

// Patterns returns the rule sources in compilation order.
func (rs *Ruleset) Patterns() []string {
	return append([]string(nil), rs.patterns...)
}

// States returns the total number of MFSA states.
func (rs *Ruleset) States() int {
	t := 0
	for _, z := range rs.mfsas {
		t += z.NumStates
	}
	return t
}

// Transitions returns the total number of MFSA transitions.
func (rs *Ruleset) Transitions() int {
	t := 0
	for _, z := range rs.mfsas {
		t += z.NumTrans()
	}
	return t
}

// Compression returns the state and transition compression percentages of
// merging versus the standalone optimized FSAs (§VI-A). Rulesets loaded
// from ANML report the same numbers via the serialized per-FSA metadata.
func (rs *Ruleset) Compression() (statesPct, transPct float64) {
	return rs.comp.StatesPct(), rs.comp.TransPct()
}

// CompileTimes returns the per-stage compilation cost. Zero for rulesets
// loaded from ANML.
func (rs *Ruleset) CompileTimes() StageTimes { return rs.times }

// WriteANML serializes every MFSA of the ruleset as concatenated
// extended-ANML documents (§IV-E).
func (rs *Ruleset) WriteANML(w io.Writer) error {
	for _, z := range rs.mfsas {
		if err := anml.Write(w, z); err != nil {
			return err
		}
	}
	return nil
}

// LoadANML reads one or more concatenated extended-ANML documents into an
// executable Ruleset.
func LoadANML(r io.Reader, opts Options) (*Ruleset, error) {
	zs, err := anml.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("imfant: %w", err)
	}
	rs := &Ruleset{opts: opts}
	ruleMax := -1
	for _, z := range zs {
		rs.mfsas = append(rs.mfsas, z)
		rs.programs = append(rs.programs, engine.NewProgram(z))
		for _, info := range z.FSAs {
			if info.RuleID > ruleMax {
				ruleMax = info.RuleID
			}
			rs.comp.StatesBefore += info.NumStates
			rs.comp.TransBefore += info.NumTrans
		}
		rs.comp.StatesAfter += z.NumStates
		rs.comp.TransAfter += z.NumTrans()
	}
	if len(rs.mfsas) == 0 {
		return nil, fmt.Errorf("imfant: no ANML documents found")
	}
	rs.patterns = make([]string, ruleMax+1)
	for _, z := range rs.mfsas {
		for _, info := range z.FSAs {
			rs.patterns[info.RuleID] = info.Pattern
		}
	}
	rs.buildEngines()
	// Re-derive the per-rule shapes from the serialized pattern sources; the
	// eager-DFA strategy needs the optimized per-rule NFAs, which ANML does
	// not carry, so it stays off for loaded rulesets.
	var shapes []strategy.Shape
	if opts.Engine == EngineAuto {
		shapes = shapesOf(rs.patterns)
	}
	rs.buildPlan(shapes, nil)
	if opts.Prefilter != PrefilterOff {
		rs.buildPrefilter(factorsOf(rs.patterns, opts.minFactorLen()))
	}
	return rs, nil
}

// FindAll scans input and returns every match of every rule, ordered by end
// offset and then rule index. For large inputs with many matches prefer
// Scan or Count.
func (rs *Ruleset) FindAll(input []byte) []Match {
	out, _ := rs.FindAllContext(context.Background(), input)
	return out
}

// FindAllContext is FindAll under a context: cancellation or deadline
// expiry stops the scan at the next engine checkpoint (about every 4 KiB of
// input per automaton) and returns the context's error with nil matches.
func (rs *Ruleset) FindAllContext(ctx context.Context, input []byte) ([]Match, error) {
	// Large buffers take the segment-parallel path: the input is cut into
	// per-worker segments with exact boundary stitching, so the result is
	// byte-identical to the serial scan (see segment.go).
	if parts := rs.segmentParts(len(input), 0); parts > 1 {
		var out []Match
		if _, err := rs.blockScan(ctx, input, 0, parts, func(m Match) { out = append(out, m) }); err != nil {
			return nil, err
		}
		sortByEnd(out)
		return out, nil
	}
	return rs.NewScanner().FindAllContext(ctx, input)
}

// Scan streams every match to fn, automaton by automaton, on the engine
// selected by Options.Engine. Hot paths scanning many inputs should reuse a
// Scanner instead, which keeps per-goroutine buffers — and, in lazy-DFA
// mode, the transition cache — warm across calls.
func (rs *Ruleset) Scan(input []byte, fn func(Match)) {
	rs.NewScanner().Scan(input, fn)
}

// ScanContext is Scan under a context: cancellation stops the scan at the
// next checkpoint; matches already streamed to fn before that point were
// delivered, and the context's error is returned.
func (rs *Ruleset) ScanContext(ctx context.Context, input []byte, fn func(Match)) error {
	return rs.NewScanner().ScanContext(ctx, input, fn)
}

// Count returns the total number of match events in input.
func (rs *Ruleset) Count(input []byte) int64 {
	return rs.NewScanner().Count(input)
}

// CountContext is Count under a context; on cancellation it returns the
// partial count together with the context's error.
func (rs *Ruleset) CountContext(ctx context.Context, input []byte) (int64, error) {
	return rs.NewScanner().CountContext(ctx, input)
}

// CountPerRule returns the number of match events per rule, indexed like
// the compiled patterns.
func (rs *Ruleset) CountPerRule(input []byte) []int64 {
	return rs.NewScanner().CountPerRule(input)
}

// Scanner is a reusable matching context over one Ruleset: every
// automaton's executor, with its engine scratch state and — in lazy-DFA mode
// — the lazily built transition cache, which stays warm across scans of
// similar traffic. A Scanner is not safe for concurrent use; create one per
// goroutine (the shared Ruleset remains concurrency-safe).
type Scanner struct {
	rs    *Ruleset
	execs []executor // indexed like rs.programs
	local localStats
	gate  sweepGate // prefilter scratch, reused across scans
}

// NewScanner returns a matching context for the ruleset.
func (rs *Ruleset) NewScanner() *Scanner {
	s := &Scanner{
		rs:    rs,
		execs: make([]executor, len(rs.programs)),
		local: localStats{ruleHits: make([]int64, len(rs.patterns))},
	}
	for i := range s.execs {
		s.execs[i] = rs.newExec(i)
	}
	return s
}

// Scan streams every match in input to fn, automaton by automaton.
func (s *Scanner) Scan(input []byte, fn func(Match)) {
	s.run(context.Background(), input, fn, nil)
}

// ScanContext is Scan under a context: cancellation stops the scan at the
// next checkpoint; matches already streamed to fn before that point were
// delivered, and the context's error is returned.
func (s *Scanner) ScanContext(ctx context.Context, input []byte, fn func(Match)) error {
	_, err := s.run(ctx, input, fn, nil)
	return err
}

// FindAllContext is FindAll under a context: on cancellation it returns
// nil matches and the context's error.
func (s *Scanner) FindAllContext(ctx context.Context, input []byte) ([]Match, error) {
	var out []Match
	if err := s.ScanContext(ctx, input, func(m Match) { out = append(out, m) }); err != nil {
		return nil, err
	}
	sortByEnd(out)
	return out, nil
}

// sortByEnd imposes the serial report order: end offset, then rule.
func sortByEnd(out []Match) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Rule < out[j].Rule
	})
}

// Count returns the total number of match events in input.
func (s *Scanner) Count(input []byte) int64 {
	total, _ := s.CountContext(context.Background(), input)
	return total
}

// CountContext is Count under a context; on cancellation it returns the
// partial count together with the context's error.
func (s *Scanner) CountContext(ctx context.Context, input []byte) (int64, error) {
	return s.run(ctx, input, nil, nil)
}

// CountPerRule returns the number of match events per rule, indexed like
// the compiled patterns.
func (s *Scanner) CountPerRule(input []byte) []int64 {
	out := make([]int64, len(s.rs.patterns))
	s.run(context.Background(), input, nil, out)
	return out
}

// run executes every automaton over input and returns the match count;
// perRule, when non-nil, accumulates the per-rule counts. The context is
// polled at engine checkpoints (DefaultCheckpointEvery bytes); on
// cancellation the partial count is returned with the context's error.
func (s *Scanner) run(ctx context.Context, input []byte, fn func(Match), perRule []int64) (int64, error) {
	rs := s.rs
	check := deadlineCheckpoint(checkpointOf(ctx), scanDeadline(rs.opts.ScanTimeout))
	defer rs.scanEnd(rs.scanStart())
	var total int64
	if rs.trace != nil {
		rs.trace.Record(telemetry.Event{Kind: telemetry.EventScanBegin,
			Automaton: -1, Rule: -1, Offset: -1, Value: int64(len(input))})
		defer func() {
			rs.trace.Record(telemetry.Event{Kind: telemetry.EventScanEnd,
				Automaton: -1, Rule: -1, Offset: -1, Value: total})
		}()
	}
	gate, err := s.gate.decide(rs, input, check, &s.local.pref)
	if err != nil {
		return 0, s.noteErr(err)
	}
	for i, e := range s.execs {
		if check != nil && i > 0 {
			// Poll between automata too, so a deadline that expired during
			// automaton i-1's final block (past its last in-chunk
			// checkpoint) still cuts the scan off deterministically.
			if err := check(); err != nil {
				return total, s.noteErr(err)
			}
		}
		if gate != nil && !gate[i] {
			continue
		}
		// Stage timing brackets the whole dispatch, including the degraded
		// exits — a timed-out automaton's wall clock is exactly the sample
		// an operator wants attributed.
		st0 := rs.stageStart()
		err := scanOnce(e, input, check, rs.emitter(i, fn))
		t := e.totals()
		rs.stageEnd(telemetry.StrategyStage(int(t.strat)), st0)
		rs.fold(i, t, &s.local)
		total += t.matches
		if perRule != nil {
			rules := rs.programs[i].Rules()
			for fsa, n := range t.perFSA {
				perRule[rules[fsa].RuleID] += n
			}
		}
		if err != nil {
			return total, s.noteErr(err)
		}
	}
	return total, nil
}

// emitter adapts fn (and the trace ring's match events) to automaton i's
// (fsa, end) events; nil when neither wants them, so the engines only count.
func (rs *Ruleset) emitter(i int, fn func(Match)) func(fsa, end int) {
	if fn == nil && rs.trace == nil {
		return nil
	}
	rules := rs.programs[i].Rules()
	return func(fsa, end int) {
		if rs.trace != nil {
			rs.trace.Record(telemetry.Event{Kind: telemetry.EventMatch,
				Automaton: int32(i), Rule: int32(rules[fsa].RuleID),
				Offset: int64(end), Value: 1})
		}
		if fn != nil {
			fn(Match{Rule: rules[fsa].RuleID, Pattern: rules[fsa].Pattern, End: end})
		}
	}
}

// noteErr folds a failed scan into the degradation telemetry (ruleset-wide
// and the scanner's own timeout counter), records the scan_error trace
// span, and returns err unchanged.
func (s *Scanner) noteErr(err error) error {
	if errors.Is(err, ErrScanTimeout) {
		s.local.timeouts++
	}
	return s.rs.noteErr(err)
}

// CountParallel scans input with the paper's multi-threaded scheme
// (§VI-C2): a pool of `threads` workers each executing whole MFSAs — every
// one on the engine the planner assigned it — until none remain. It returns
// the total match count. A panic inside a worker is contained and returned
// as an error instead of crashing the process.
func (rs *Ruleset) CountParallel(input []byte, threads int) (int64, error) {
	return rs.CountParallelContext(context.Background(), input, threads)
}

// CountParallelContext is CountParallel under a context: cancellation or
// deadline expiry stops every worker at its next checkpoint and returns the
// context's error. When Options.MaxConcurrentScans bounds the ruleset, a
// call that finds every slot busy and the wait queue full is shed with
// ErrOverloaded before doing any work.
func (rs *Ruleset) CountParallelContext(ctx context.Context, input []byte, threads int) (int64, error) {
	// With segmentation enabled the parallelism is intra-input: every group
	// gets all the workers over its own segment set, instead of whole
	// automata being dealt out to the pool. Results are byte-identical
	// (exact boundary stitching — see segment.go).
	return rs.blockScan(ctx, input, threads, rs.segmentParts(len(input), threads), nil)
}

// blockScan is the ruleset-level whole-buffer scan behind CountParallel and
// segmented FindAll: admission gate, deadline, prefilter gating, then either
// the segment-parallel path (parts > 1) or the §VI-C2 worker pool. fn, when
// non-nil, receives every match of a segmented scan, grouped by automaton
// and unsorted.
func (rs *Ruleset) blockScan(ctx context.Context, input []byte, threads, parts int,
	fn func(Match)) (int64, error) {
	// The ScanTimeout budget is anchored BEFORE the admission gate, so time
	// spent queueing for a slot is charged against the same deadline the
	// scan runs under.
	deadline := scanDeadline(rs.opts.ScanTimeout)
	if err := rs.sched.acquire(ctx, deadline); err != nil {
		return 0, rs.noteErr(err)
	}
	defer rs.sched.release()
	check := deadlineCheckpoint(checkpointOf(ctx), deadline)
	// The scan stage starts after admission, so queue wait under a saturated
	// gate is not misattributed to scanning.
	defer rs.scanEnd(rs.scanStart())
	var g sweepGate
	gate, err := g.decide(rs, input, check, nil)
	if err != nil {
		return 0, rs.noteErr(err)
	}
	var total int64
	if parts > 1 {
		total, err = rs.scanSegmented(input, parts, gate, check, fn)
	} else {
		total, err = rs.scanPool(input, threads, gate, check)
	}
	if err != nil {
		// err may join several workers' failures (panics, timeouts); each
		// is accounted individually in the Degraded section, and the
		// scan_error span's cause mask carries the union.
		return 0, rs.noteErr(err)
	}
	return total, nil
}

// scanPool deals the executors of every group the gate admits to the
// engine worker pool. Executors are fresh per call; a worker panic keeps
// the partial totals its executor built, which are folded like the rest.
func (rs *Ruleset) scanPool(input []byte, threads int, gate []bool, check func() error) (int64, error) {
	var idx []int
	for i := range rs.programs {
		if gate == nil || gate[i] {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0, nil
	}
	if rs.profiles != nil && len(idx) > 1 {
		// Heat-balanced feeding: hand the hottest automata (by sampled state
		// visits) to the worker pool first. The workers pull from an atomic
		// queue, so descending-cost order approximates LPT scheduling.
		heat := make([]int64, len(idx))
		for j, i := range idx {
			heat[j] = rs.groupHeat(i)
		}
		order := segment.OrderByHeat(heat)
		sorted := make([]int, len(idx))
		for j, o := range order {
			sorted[j] = idx[o]
		}
		idx = sorted
	}
	execs := make([]executor, len(idx))
	pt0 := rs.stageStart()
	err := engine.Parallel(len(idx), threads, rs.faults, check, func(j int, check func() error) error {
		execs[j] = rs.newExec(idx[j])
		return scanOnce(execs[j], input, check, rs.emitter(idx[j], nil))
	})
	rs.stageEnd(telemetry.StageParallel, pt0)
	var total int64
	for j, e := range execs {
		if e != nil {
			t := e.totals()
			rs.fold(idx[j], t, nil)
			total += t.matches
		}
	}
	return total, err
}

// noteErr folds a failed scan into the degradation counters and records
// the scan_error trace span; it returns err unchanged.
func (rs *Ruleset) noteErr(err error) error {
	if err != nil {
		noteDegraded(rs.collector, err)
		rs.traceScanError(err)
	}
	return err
}

// checkpointOf adapts a context to an engine checkpoint; contexts that can
// never be cancelled poll nothing.
func checkpointOf(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

// Activity runs the Table II instrumentation: the average number of
// (active state, active FSA) pairs per input symbol and the maximum number
// of distinct simultaneously-active FSAs.
func (rs *Ruleset) Activity(input []byte) (avgActive float64, maxActive int) {
	var pairs int64
	var symbols int64
	for _, p := range rs.programs {
		res := engine.Run(p, input, engine.Config{Stats: true, KeepOnMatch: rs.opts.KeepOnMatch})
		pairs += res.ActivePairsTotal
		symbols = int64(res.Symbols)
		if res.MaxActiveFSAs > maxActive {
			maxActive = res.MaxActiveFSAs
		}
	}
	if symbols == 0 {
		return 0, maxActive
	}
	return float64(pairs) / float64(symbols), maxActive
}
