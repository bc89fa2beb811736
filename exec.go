package imfant

import (
	"bytes"

	"repro/internal/ahocorasick"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/lazydfa"
	"repro/internal/telemetry"
)

// An executor runs one automaton group under the strategy the planner
// assigned it. Every scan path drives the same executors: a Scanner (and so
// every per-call Ruleset scan) runs each as a one-chunk stream, a
// StreamMatcher feeds it per Write and ends it at Close, CountParallel deals
// them to the engine worker pool, and a segmented scan runs its serial
// groups through them. Each path books the executor's totals through the one
// accounting fold, Ruleset.fold.
type executor interface {
	// begin starts a scan at stream offset 0. check, when non-nil, is polled
	// about every engine.DefaultCheckpointEvery bytes; emit, when non-nil,
	// receives every (FSA, absolute end offset) event.
	begin(check func() error, emit func(fsa, end int))
	// feed consumes the next chunk; final announces the stream end, so
	// $-anchored rules can match on the last byte. Once check fails the
	// rest of the input is dropped.
	feed(chunk []byte, final bool)
	// flushHeld matches a held-back last byte as ordinary data, for a scan
	// abandoned before its stream end (see engine.Runner.FlushHeld).
	flushHeld()
	// end finishes the scan and returns the check failure that stopped it.
	end() error
	// totals returns the current scan's counters so far.
	totals() execTotals
}

// execTotals is one scan of one group, as its executor reports it to the
// fold.
type execTotals struct {
	strat   Strategy // the engine that ran
	scans   int64    // 1 once the scan ended
	bytes   int64    // input bytes matched against
	matches int64
	perFSA  []int64 // events per FSA of the group
	skipped int64   // bytes jumped by byte-skipping acceleration
	// An AC group's literal scan doubles as its factor sweep: sweeps counts
	// it, literalHits the distinct member literals it saw.
	sweeps, literalHits int64
	// Lazy-DFA counters; lazy is false on the other engines.
	lazy                                 bool
	hits, misses, flushes, thrashes      int64
	grew, pinned, fellBack               bool
	cachedStates, accelStates, maxStates int
	// Segment-parallel counters; zero outside a segmented scan.
	segments, segFallbacks, parallelBytes, stitchBytes int64
}

// newExec builds group i's executor for the strategy the plan assigned it —
// the one per-strategy switch on the scan side.
func (rs *Ruleset) newExec(i int) executor {
	// The lazy, DFA and iMFAnt executors hold their runner by value: one
	// allocation per group, as when a scan owner held bare runners.
	switch rs.plan.strat[i] {
	case StrategyLazyDFA:
		e := &lazyExec{cfg: rs.lazyCfg(i)}
		e.r.Init(rs.lazy[i])
		return e
	case StrategyAC:
		g := rs.plan.ac[i]
		e := &acExec{sc: g.m.NewStreamScanner(), faults: rs.faults,
			perFSA: make([]int64, g.rules), seen: make([]bool, g.rules)}
		e.sc.SetAccel(rs.opts.accelOn())
		return e
	case StrategyAnchored:
		g := rs.plan.anch[i]
		return &anchExec{g: g, faults: rs.faults,
			rules: make([]anchRuleState, len(g.rules)), perFSA: make([]int64, len(g.rules))}
	case StrategyDFA:
		e := &dfaExec{faults: rs.faults}
		e.r.Init(rs.plan.dfas[i])
		return e
	}
	e := &imfantExec{cfg: rs.engineCfg(i)}
	e.r.Init(rs.programs[i])
	return e
}

// engineCfg is group i's iMFAnt configuration, shared by the executors and
// the segment workers; callers add the checkpoint and match callback.
func (rs *Ruleset) engineCfg(i int) engine.Config {
	return engine.Config{
		KeepOnMatch: rs.opts.KeepOnMatch,
		Accel:       rs.opts.accelOn(),
		Profile:     rs.profileOf(i),
		Faults:      rs.faults,
	}
}

// lazyCfg is group i's lazy-DFA configuration, shared like engineCfg.
func (rs *Ruleset) lazyCfg(i int) lazydfa.Config {
	return lazydfa.Config{
		KeepOnMatch: rs.opts.KeepOnMatch,
		MaxStates:   rs.opts.LazyDFAMaxStates,
		Accel:       rs.opts.accelOn(),
		Profile:     rs.profileOf(i),
		ThrashRetry: rs.opts.thrashRetryOn(),
		Faults:      rs.faults,
	}
}

// scanOnce runs e over input as a one-chunk stream.
func scanOnce(e executor, input []byte, check func() error, emit func(fsa, end int)) error {
	e.begin(check, emit)
	e.feed(input, true)
	return e.end()
}

// fold books one executor scan of group i: every collector counter, the
// lazy-DFA trace events, and — when local is non-nil — the owner's own
// counters. Strategy bytes go to the engine that actually ran.
func (rs *Ruleset) fold(i int, t execTotals, local *localStats) {
	c := rs.collector
	c.AddScans(t.scans)
	c.AddBytes(t.bytes)
	c.AddMatches(t.matches)
	c.AddStrategyBytes(int(t.strat), t.bytes)
	c.AddAccelScan(t.skipped)
	rules := rs.programs[i].Rules()
	for fsa, n := range t.perFSA {
		if n != 0 {
			c.AddRuleHits(rules[fsa].RuleID, n)
		}
	}
	if t.sweeps > 0 && rs.prefEnabled {
		c.AddPrefilterScan(t.sweeps, t.literalHits, 0, 0)
	}
	if t.segments > 0 {
		c.AddSegmentScan(t.segments, t.segFallbacks, t.parallelBytes, t.stitchBytes)
	}
	if t.lazy {
		c.AddLazyScan(t.hits, t.misses, t.flushes, t.thrashes)
		if t.grew || t.pinned {
			c.AddLazyDegraded(b2i(t.grew), b2i(t.pinned))
		}
		c.SetCachedStates(i, int64(t.cachedStates))
		c.SetAccelStates(i, int64(t.accelStates))
		if rs.trace != nil {
			if t.flushes > 0 {
				rs.traceGroup(telemetry.EventLazyFlush, i, t.flushes)
			}
			if t.fellBack {
				rs.traceGroup(telemetry.EventLazyFallback, i, t.thrashes)
			}
			if t.pinned {
				rs.traceGroup(telemetry.EventLazyPin, i, 1)
			}
		}
	}
	if local != nil {
		local.add(rs, i, t)
	}
}

// traceGroup records a group-level trace event of automaton i.
func (rs *Ruleset) traceGroup(kind telemetry.EventKind, i int, value int64) {
	rs.trace.Record(telemetry.Event{Kind: kind, Automaton: int32(i), Rule: -1, Offset: -1, Value: value})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// imfantExec runs a group on the iMFAnt engine.
type imfantExec struct {
	r    engine.Runner
	cfg  engine.Config
	done bool
}

func (e *imfantExec) begin(check func() error, emit func(fsa, end int)) {
	cfg := e.cfg
	cfg.Checkpoint, cfg.OnMatch = check, emit
	e.r.Begin(cfg)
	e.done = false
}

func (e *imfantExec) feed(chunk []byte, final bool) { e.r.Feed(chunk, final) }
func (e *imfantExec) flushHeld()                    { e.r.FlushHeld() }

func (e *imfantExec) end() error {
	e.r.End()
	e.done = true
	return e.r.Err()
}

func (e *imfantExec) totals() execTotals {
	res := e.r.Progress()
	return execTotals{strat: StrategyIMFAnt, scans: b2i(e.done), bytes: int64(res.Symbols),
		matches: res.Matches, perFSA: res.PerFSA, skipped: res.AccelBytes}
}

// lazyExec runs a group on the lazy-DFA engine; its transition cache
// survives across the scans of one executor.
type lazyExec struct {
	r    lazydfa.Runner
	cfg  lazydfa.Config
	done bool
}

func (e *lazyExec) begin(check func() error, emit func(fsa, end int)) {
	cfg := e.cfg
	cfg.Checkpoint, cfg.OnMatch = check, emit
	e.r.Begin(cfg)
	e.done = false
}

func (e *lazyExec) feed(chunk []byte, final bool) { e.r.Feed(chunk, final) }
func (e *lazyExec) flushHeld()                    { e.r.FlushHeld() }

func (e *lazyExec) end() error {
	e.r.End()
	e.done = true
	return e.r.Err()
}

func (e *lazyExec) totals() execTotals {
	res := e.r.Progress()
	return execTotals{strat: StrategyLazyDFA, scans: b2i(e.done), bytes: int64(res.Symbols),
		matches: res.Matches, perFSA: res.PerFSA, skipped: res.AccelBytes,
		lazy: true, hits: res.CacheHits, misses: res.CacheMisses, flushes: int64(res.Flushes),
		thrashes: b2i(res.Thrashed), grew: res.Grew, pinned: res.Pinned, fellBack: res.FellBack,
		cachedStates: res.CachedStates, accelStates: res.AccelStates, maxStates: e.r.MaxStates()}
}

// dfaExec runs a small group on its eagerly determinized DFA: one table
// lookup per byte.
type dfaExec struct {
	r      dfa.Runner
	faults *faultpoint.Injector
	done   bool
}

func (e *dfaExec) begin(check func() error, emit func(fsa, end int)) {
	e.r.Begin(dfa.Config{OnMatch: emit, Checkpoint: check, Faults: e.faults})
	e.done = false
}

// feed ignores final: the DFA has unanchored scan semantics only.
func (e *dfaExec) feed(chunk []byte, final bool) { e.r.Feed(chunk) }
func (e *dfaExec) flushHeld()                    {}

func (e *dfaExec) end() error {
	e.r.End()
	e.done = true
	return e.r.Err()
}

func (e *dfaExec) totals() execTotals {
	res := e.r.Progress()
	return execTotals{strat: StrategyDFA, scans: b2i(e.done), bytes: res.Symbols,
		matches: res.Matches, perFSA: res.PerRule}
}

// acExec runs an all-literal group as one Aho–Corasick scan over the member
// literals (pattern id == FSA index). The scan is the whole group execution
// and doubles as the group's factor sweep in the prefilter accounting.
type acExec struct {
	sc       *ahocorasick.StreamScanner
	faults   *faultpoint.Injector
	check    func() error
	emit     func(fsa, end int)
	perFSA   []int64
	seen     []bool // member literals seen this scan
	matches  int64
	distinct int64
	base     int64 // absolute offset of the block being scanned
	skipped0 int64 // sc.Skipped() at begin
	err      error
	done     bool
}

func (e *acExec) begin(check func() error, emit func(fsa, end int)) {
	e.sc.Reset()
	e.check, e.emit = check, emit
	clear(e.perFSA)
	clear(e.seen)
	e.matches, e.distinct, e.base = 0, 0, 0
	e.skipped0 = e.sc.Skipped()
	e.err, e.done = nil, false
}

// feed scans chunk in checkpoint-sized blocks. The chunk-stall fault site
// is armed per block here, as the engines arm it per chunk, so an injected
// wedge is cut by ScanTimeout on every strategy.
func (e *acExec) feed(chunk []byte, final bool) {
	const block = engine.DefaultCheckpointEvery
	for off := 0; off < len(chunk) && e.err == nil; off += block {
		if e.check != nil {
			if e.err = e.check(); e.err != nil {
				return
			}
		}
		e.faults.Stall()
		end := min(off+block, len(chunk))
		e.sc.Scan(chunk[off:end], e.hit)
		e.base += int64(end - off)
	}
}

func (e *acExec) hit(pat, end int) {
	e.matches++
	e.perFSA[pat]++
	if !e.seen[pat] {
		e.seen[pat] = true
		e.distinct++
	}
	if e.emit != nil {
		e.emit(pat, int(e.base)+end)
	}
}

func (e *acExec) flushHeld() {}

func (e *acExec) end() error {
	e.done = true
	return e.err
}

func (e *acExec) totals() execTotals {
	return execTotals{strat: StrategyAC, scans: b2i(e.done), bytes: e.base,
		matches: e.matches, perFSA: e.perFSA, skipped: e.sc.Skipped() - e.skipped0,
		sweeps: b2i(e.done), literalHits: e.distinct}
}

// anchExec evaluates an anchored-literal group. Everything it needs is
// O(group) state: per rule an incremental prefix verdict and the positions
// of recent middle-violating bytes, plus one shared tail window of the
// group's longest suffix. `^` means stream offset 0 and `$` means the clean
// stream end, so suffix-bearing rules are decided at the final feed and
// `^lit` rules emit the moment their prefix completes. A one-chunk scan is
// O(len(prefix)+len(suffix)) compares plus at most one vectorized hunt for a
// byte a rule's middle cannot consume.
type anchExec struct {
	g        *anchGroup
	faults   *faultpoint.Injector
	emit     func(fsa, end int)
	rules    []anchRuleState
	perFSA   []int64
	matches  int64
	tail     []byte // the last maxSuffix bytes of the stream
	consumed int64
	finished bool
	done     bool
}

type anchRuleState struct {
	prefixOK  bool    // prefix still plausible (or confirmed once complete)
	emitted   bool    // `^lit` rule already reported its one event
	badBefore bool    // a violating byte is provably in the middle region
	recentBad []int64 // violating-byte positions still close enough to land in the suffix
}

func (e *anchExec) begin(check func() error, emit func(fsa, end int)) {
	e.emit = emit
	for i := range e.rules {
		e.rules[i] = anchRuleState{prefixOK: true, recentBad: e.rules[i].recentBad[:0]}
	}
	clear(e.perFSA)
	e.matches, e.consumed = 0, 0
	e.tail = e.tail[:0]
	e.finished, e.done = false, false
}

func (e *anchExec) feed(chunk []byte, final bool) {
	if len(chunk) > 0 {
		// The chunk-stall fault site, as in acExec.feed.
		e.faults.Stall()
		base := e.consumed
		for fsa := range e.g.rules {
			e.feedRule(fsa, base, chunk)
		}
		// Maintain the shared suffix window.
		if n := e.g.maxSuffix; n > 0 {
			if len(chunk) >= n {
				e.tail = append(e.tail[:0], chunk[len(chunk)-n:]...)
			} else {
				if drop := len(e.tail) + len(chunk) - n; drop > 0 {
					m := copy(e.tail, e.tail[drop:])
					e.tail = e.tail[:m]
				}
				e.tail = append(e.tail, chunk...)
			}
		}
		e.consumed = base + int64(len(chunk))
	}
	if final {
		// The clean stream end: `$` is observable now, and only now.
		e.finish()
	}
}

func (e *anchExec) report(fsa, end int) {
	e.matches++
	e.perFSA[fsa]++
	if e.emit != nil {
		e.emit(fsa, end)
	}
}

func (e *anchExec) feedRule(fsa int, base int64, chunk []byte) {
	r := &e.g.rules[fsa]
	rs := &e.rules[fsa]
	sh := &r.sh
	p := int64(len(sh.Prefix))
	// Incremental prefix compare while the stream is still inside it.
	if rs.prefixOK && sh.AnchorStart && base < p {
		for j := 0; j < len(chunk) && base+int64(j) < p; j++ {
			if chunk[j] != sh.Prefix[base+int64(j)] {
				rs.prefixOK = false
				break
			}
		}
	}
	if sh.AnchorStart && !sh.AnchorEnd {
		// `^lit`: its single event fires the moment the prefix completes.
		if rs.prefixOK && !rs.emitted && p > 0 && base+int64(len(chunk)) >= p {
			rs.emitted = true
			e.report(fsa, int(p)-1)
		}
		return
	}
	if !r.hasBad || !rs.prefixOK || rs.badBefore {
		return
	}
	// Hunt bytes the middle cannot consume, at absolute positions >= p. A
	// bad byte that can no longer land in the suffix window of any future
	// stream end kills the rule outright; the handful that still could are
	// kept and re-judged at the end. Previously kept positions age out the
	// same way.
	s := int64(len(sh.Suffix))
	newEnd := base + int64(len(chunk))
	for _, pos := range rs.recentBad {
		if pos+s < newEnd {
			rs.badBefore = true
			rs.recentBad = rs.recentBad[:0]
			return
		}
	}
	off := 0
	if base < p {
		off = int(min(p-base, int64(len(chunk))))
	}
	// chunk[off:cut] holds positions already decided (pos+s < newEnd).
	cut := len(chunk) - int(s)
	if cut > off {
		if j := r.bad.Index(chunk[off:cut]); j >= 0 {
			rs.badBefore = true
			rs.recentBad = rs.recentBad[:0]
			return
		}
		off = cut
	}
	h := chunk[off:]
	hb := base + int64(off)
	for {
		j := r.bad.Index(h)
		if j < 0 {
			break
		}
		rs.recentBad = append(rs.recentBad, hb+int64(j))
		h = h[j+1:]
		hb += int64(j) + 1
	}
}

// finish evaluates the suffix-bearing rules at the clean stream end. Runs at
// most once per scan; error-path ends never reach it (`$` was never
// observed).
func (e *anchExec) finish() {
	if e.finished {
		return
	}
	e.finished = true
	L := e.consumed
	for fsa := range e.g.rules {
		r := &e.g.rules[fsa]
		rs := &e.rules[fsa]
		sh := &r.sh
		p, s := int64(len(sh.Prefix)), int64(len(sh.Suffix))
		switch {
		case sh.AnchorStart && !sh.AnchorEnd:
			// `^lit` already emitted.
		case sh.AnchorStart && sh.AnchorEnd && !sh.HasMiddle:
			// `^lit$`: exact equality with the whole stream.
			if rs.prefixOK && L == p && p > 0 {
				e.report(fsa, int(L)-1)
			}
		case !sh.AnchorStart && sh.AnchorEnd:
			// `lit$`: one event at the last byte.
			if s > 0 && L >= s && e.tailEndsWith(sh.Suffix) {
				e.report(fsa, int(L)-1)
			}
		default:
			// `^prefix<set>{m,}suffix$`.
			if !rs.prefixOK || rs.badBefore || L < int64(r.minLen) || L == 0 {
				continue
			}
			if !e.tailEndsWith(sh.Suffix) {
				continue
			}
			bad := false
			for _, pos := range rs.recentBad {
				if pos+s < L {
					bad = true
					break
				}
			}
			if !bad {
				e.report(fsa, int(L)-1)
			}
		}
	}
}

// tailEndsWith reports whether the stream ends with lit (lit fits in the
// tail window by construction: it is at most maxSuffix long).
func (e *anchExec) tailEndsWith(lit []byte) bool {
	return len(e.tail) >= len(lit) && bytes.Equal(e.tail[len(e.tail)-len(lit):], lit)
}

func (e *anchExec) flushHeld() {}

func (e *anchExec) end() error {
	e.done = true
	return nil
}

func (e *anchExec) totals() execTotals {
	return execTotals{strat: StrategyAnchored, scans: b2i(e.done), bytes: e.consumed,
		matches: e.matches, perFSA: e.perFSA}
}
