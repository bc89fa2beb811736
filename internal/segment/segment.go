// Package segment implements segment-parallel scanning of a single input
// buffer: the input is cut into P contiguous segments, each scanned by its
// own worker, and the segment boundaries are stitched exactly so the emitted
// event set is byte-identical to a serial scan.
//
// The construction rests on the union-linearity of the iMFAnt update: per
// transition, Jnew = (J(q1) ∪ inits(q1)) ∩ bel(t) distributes over unions of
// activation vectors, and both the emitted set Jnew ∩ F ∩ endGate and the
// Eq. 5 pop survivor Jnew &^ (F ∩ endGate) are masked by J-independent
// masks, so they distribute too. The serial vector at any point of segment k
// therefore decomposes into a *local* component — activations born at or
// after the segment start, exactly what a fresh worker starting there
// computes — and a *carry* component — activations alive at the boundary,
// propagated without ever re-initializing. Serial events over segment k are
// the union of the two components' events.
//
// Workers run the local component of every segment in parallel (segment 0's
// local component is the whole serial scan of segment 0, since its carry is
// empty). A sequential stitch pass then replays only the carry components:
// at each boundary, a carry-only runner (engine Config.NoInits) is resumed
// from the merged boundary frontier and run until its vector dies — on
// match-sparse inputs that is a few bytes. Events the carry produces that
// the local worker also produced are deduplicated by recomputing the local
// event set over exactly the bytes the carry run traversed.
package segment

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/ahocorasick"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/lazydfa"
)

// Event is one match event: the merged-FSA identifier and the absolute end
// offset of the match (inclusive).
type Event struct {
	FSA int
	End int
}

// Group describes one automaton group to scan segment-parallel.
type Group struct {
	// Automaton is the group's index in its ruleset, used to attribute
	// worker panics (engine.WorkerPanicError.Automaton).
	Automaton int
	// Program is the group's compiled MFSA.
	Program *engine.Program
	// Lazy, when non-nil, runs the segment workers on the lazy-DFA engine
	// (configured by LazyCfg) instead of the iMFAnt engine. Stitch runners
	// always use the iMFAnt engine — their windows are short and the event
	// sets of the two engines are identical.
	Lazy    *lazydfa.Matcher
	LazyCfg lazydfa.Config
	// Cfg configures the iMFAnt workers and the stitch runners. OnMatch is
	// ignored — events surface through Scan's emit callback.
	Cfg engine.Config
	// MaxFrontier, when > 0, is the speculative-frontier budget: a boundary
	// carry with more active states marks the scan FellBack. The scan still
	// completes exactly — the budget is a planning signal (pin the group
	// serial for future scans), not a correctness limit.
	MaxFrontier int
}

// Result aggregates one segment-parallel group scan.
type Result struct {
	// Matches is the number of distinct (FSA, end offset) events — exactly
	// what a serial scan of the group would report.
	Matches int64
	// PerFSA counts events per merged-FSA identifier.
	PerFSA []int64
	// Segments is the number of segments executed.
	Segments int
	// ParallelBytes is the number of input bytes scanned inside the segment
	// workers; the segments partition the input, so this equals the input
	// length.
	ParallelBytes int64
	// StitchBytes is the number of bytes re-scanned by boundary stitching:
	// the carry runners' traversals plus the local recomputation windows.
	// On match-sparse inputs carries die within a few bytes and this stays
	// near zero.
	StitchBytes int64
	// AccelBytes counts bytes jumped by byte-skipping acceleration across
	// workers and stitch recomputation.
	AccelBytes int64
	// MaxFrontier is the largest boundary carry observed, in active states.
	MaxFrontier int
	// FellBack reports that some boundary carry exceeded Group.MaxFrontier.
	// The scan's results are still exact; the flag advises the caller to
	// run this group serially on future scans.
	FellBack bool

	// Lazy-DFA worker counters, summed across workers (zero for iMFAnt
	// groups).
	CacheHits, CacheMisses int64
	Flushes                int64
	Thrashes               int64
	// CachedStates and AccelStates are the largest worker transition cache
	// built, and its accelerable states (gauges, like the lazy engine's).
	CachedStates, AccelStates int
}

// Boundaries cuts n bytes into parts near-equal contiguous segments and
// returns the parts+1 cut offsets (first 0, last n). parts is clamped to
// [1, max(n, 1)] so every segment is non-empty.
func Boundaries(n, parts int) []int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		return []int{0, n} // n == 0
	}
	bounds := make([]int, parts+1)
	base, rem := n/parts, n%parts
	off := 0
	for i := 0; i < parts; i++ {
		bounds[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	bounds[parts] = n
	return bounds
}

// workerOut is the per-segment worker result collected before stitching.
type workerOut struct {
	events   []Event
	symbols  int
	accel    int64
	frontier []engine.Activation

	hits, misses        int64
	flushes             int
	thrashed            bool
	cached, accelStates int

	err error
}

// Scan runs one group over input segment-parallel: one worker per segment
// (bounds as produced by Boundaries), then a sequential stitch pass over the
// boundaries. emit, when non-nil, receives every event; events are grouped
// by segment but not globally sorted. The emitted set is byte-identical to a
// serial scan of the group under the same Config.
//
// A worker panic is contained and surfaces as *engine.WorkerPanicError; a
// Checkpoint cancellation surfaces as its error. On error no events are
// emitted, but the byte counters still reflect the work performed.
func Scan(g Group, input []byte, bounds []int, emit func(fsa, end int)) (Result, error) {
	res := Result{PerFSA: make([]int64, g.Program.NumFSAs())}
	if err := checkBounds(bounds, len(input)); err != nil {
		return res, err
	}
	parts := len(bounds) - 1
	res.Segments = parts

	outs := make([]workerOut, parts)
	if parts == 1 {
		outs[0] = g.runWorker(input, bounds[0], bounds[1], true)
	} else {
		var wg sync.WaitGroup
		wg.Add(parts)
		for k := 0; k < parts; k++ {
			go func(k int) {
				defer wg.Done()
				outs[k] = g.runWorker(input, bounds[k], bounds[k+1], k == parts-1)
			}(k)
		}
		wg.Wait()
	}
	var errs []error
	for k := range outs {
		res.ParallelBytes += int64(outs[k].symbols)
		res.AccelBytes += outs[k].accel
		res.CacheHits += outs[k].hits
		res.CacheMisses += outs[k].misses
		res.Flushes += int64(outs[k].flushes)
		if outs[k].thrashed {
			res.Thrashes++
		}
		res.CachedStates = max(res.CachedStates, outs[k].cached)
		res.AccelStates = max(res.AccelStates, outs[k].accelStates)
		if outs[k].err != nil {
			errs = append(errs, outs[k].err)
		}
	}
	if len(errs) > 0 {
		return res, joinErrs(errs)
	}

	deliver := func(events []Event) {
		for _, e := range events {
			res.Matches++
			res.PerFSA[e.FSA]++
			if emit != nil {
				emit(e.FSA, e.End)
			}
		}
	}

	deliver(outs[0].events)
	// prev carries the stitch survivors of the previous boundary into the
	// next one: the serial carry component crosses every boundary it
	// outlives, so boundary k's carry is the union of worker k-1's local
	// frontier and the previous stitch run's own frontier.
	var prev []engine.Activation
	for k := 1; k < parts; k++ {
		carry := mergeActivations(prev, outs[k-1].frontier, g.Program.Words())
		prev = nil
		if len(carry) > res.MaxFrontier {
			res.MaxFrontier = len(carry)
		}
		if g.MaxFrontier > 0 && len(carry) > g.MaxFrontier {
			res.FellBack = true
		}
		if len(carry) > 0 {
			st, err := g.stitch(carry, input, bounds[k], bounds[k+1], k == parts-1)
			res.StitchBytes += st.bytes
			res.AccelBytes += st.accel
			if err != nil {
				return res, err
			}
			deliver(st.events)
			prev = st.frontier
		}
		deliver(outs[k].events)
	}
	return res, nil
}

func checkBounds(bounds []int, n int) error {
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != n {
		return fmt.Errorf("segment: bounds %v do not cover [0, %d)", bounds, n)
	}
	if n == 0 {
		if len(bounds) != 2 {
			return fmt.Errorf("segment: bounds %v for empty input, want [0 0]", bounds)
		}
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return fmt.Errorf("segment: bounds %v not strictly increasing", bounds)
		}
	}
	return nil
}

// runWorker scans the local component of one segment: a fresh scan starting
// at the segment's first byte, with the stream-start (^) inits suppressed
// automatically by the non-zero resume offset (segment 0 resumes at offset
// 0, where they apply — its local component is the full serial prefix).
func (g *Group) runWorker(input []byte, start, end int, final bool) (out workerOut) {
	defer func() {
		if v := recover(); v != nil {
			out.err = &engine.WorkerPanicError{Automaton: g.Automaton, Value: v, Stack: debug.Stack()}
		}
	}()
	if f := g.faults(); f != nil && f.Hit(faultpoint.WorkerPanic) {
		panic("faultpoint: injected worker panic (segment)")
	}
	collect := func(fsa, endOff int) { out.events = append(out.events, Event{FSA: fsa, End: endOff}) }
	if g.Lazy != nil {
		r := lazydfa.NewRunner(g.Lazy)
		cfg := g.LazyCfg
		cfg.OnMatch = collect
		r.BeginAt(cfg, start)
		r.Feed(input[start:end], final)
		if !final {
			r.FlushHeld()
			out.frontier = r.Frontier()
		}
		res := r.End()
		out.symbols, out.accel = res.Symbols, res.AccelBytes
		out.hits, out.misses = res.CacheHits, res.CacheMisses
		out.flushes, out.thrashed = res.Flushes, res.Thrashed
		out.cached, out.accelStates = res.CachedStates, res.AccelStates
		out.err = r.Err()
		return out
	}
	r := engine.NewRunner(g.Program)
	cfg := g.Cfg
	cfg.OnMatch = collect
	r.Resume(cfg, nil, start)
	r.Feed(input[start:end], final)
	if !final {
		r.FlushHeld()
		out.frontier = r.Frontier()
	}
	res := r.End()
	out.symbols, out.accel = res.Symbols, res.AccelBytes
	out.err = r.Err()
	return out
}

func (g *Group) faults() *faultpoint.Injector {
	if g.Lazy != nil {
		return g.LazyCfg.Faults
	}
	return g.Cfg.Faults
}

// stitchOut is the result of stitching one boundary.
type stitchOut struct {
	// events are the carried-in events the local worker could not have
	// produced — exactly the serial events missing from the worker pass.
	events []Event
	// frontier is the carry's surviving activations at the segment end
	// (empty when the carry died mid-segment).
	frontier []engine.Activation
	// bytes is the stitch cost: the carry traversal plus, when the carry
	// matched, the local recomputation window.
	bytes int64
	accel int64
}

// stitch replays the carry component of one boundary. A carry-only runner
// (NoInits) resumed from the merged frontier reports every event the carry
// can still produce and dies as soon as its vector empties — Symbols then
// counts exactly the traversed window. If it emitted nothing, every worker
// event stands and stitching this boundary is done (the match-sparse fast
// path). Otherwise the local event set over exactly that window is recomputed
// with a fresh runner and subtracted, leaving the carried-in events the
// serial scan would have reported but the worker could not.
func (g *Group) stitch(carry []engine.Activation, input []byte, segStart, segEnd int, final bool) (out stitchOut, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &engine.WorkerPanicError{Automaton: g.Automaton, Value: v, Stack: debug.Stack()}
		}
	}()
	win := input[segStart:segEnd]

	acfg := g.Cfg
	acfg.NoInits = true
	var aEvents []Event
	acfg.OnMatch = func(fsa, end int) { aEvents = append(aEvents, Event{FSA: fsa, End: end}) }
	ra := engine.NewRunner(g.Program)
	ra.Resume(acfg, carry, segStart)
	ra.Feed(win, final)
	ra.FlushHeld()
	front := ra.Frontier()
	ares := ra.End()
	out.bytes = int64(ares.Symbols)
	if err := ra.Err(); err != nil {
		return out, err
	}
	// window: the bytes the carry actually traversed. Beyond it the carry
	// is provably dead, so its frontier is empty and no event needs
	// deduplication past segStart+window.
	window := ares.Symbols
	out.frontier = front
	if len(aEvents) == 0 {
		return out, nil
	}

	bcfg := g.Cfg
	bcfg.NoInits = false
	local := make(map[Event]struct{}, len(aEvents))
	bcfg.OnMatch = func(fsa, end int) { local[Event{FSA: fsa, End: end}] = struct{}{} }
	rb := engine.NewRunner(g.Program)
	rb.Resume(bcfg, nil, segStart)
	// The local recomputation sees the true stream end only if this is the
	// last segment and the carry survived to it — the same $-gate the
	// worker applied at these positions.
	bFinal := final && window == len(win)
	rb.Feed(win[:window], bFinal)
	if !bFinal {
		rb.FlushHeld()
	}
	bres := rb.End()
	out.bytes += int64(bres.Symbols)
	out.accel = bres.AccelBytes
	if err := rb.Err(); err != nil {
		return out, err
	}
	for _, e := range aEvents {
		if _, dup := local[e]; !dup {
			out.events = append(out.events, e)
		}
	}
	return out, nil
}

// mergeActivations unions two canonical activation vectors (sorted by state,
// as produced by Frontier), OR-ing the J sets of shared states.
func mergeActivations(a, b []engine.Activation, words int) []engine.Activation {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]engine.Activation, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].State < b[j].State:
			out = append(out, a[i])
			i++
		case a[i].State > b[j].State:
			out = append(out, b[j])
			j++
		default:
			J := make([]uint64, words)
			copy(J, a[i].J)
			for w := 0; w < words && w < len(b[j].J); w++ {
				J[w] |= b[j].J[w]
			}
			out = append(out, engine.Activation{State: a[i].State, J: J})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// SortEvents orders events by (end offset, FSA) in place — the order a
// single left-to-right serial scan reports them in.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].End != events[j].End {
			return events[i].End < events[j].End
		}
		return events[i].FSA < events[j].FSA
	})
}

// ACResult aggregates one segment-parallel Aho–Corasick scan.
type ACResult struct {
	// Matches is the number of pattern occurrences, identical to a serial
	// Matcher.Scan.
	Matches int64
	// PerPattern counts occurrences per pattern id.
	PerPattern []int64
	// ScannedBytes is the total bytes scanned across workers inside their
	// own segments — the input length once every worker finished. The
	// overlap windows (at most MaxPatternLen-1 bytes of left context per
	// boundary) only rebuild the automaton state, report nothing, and are
	// not counted, so a segmented scan books the bytes a serial one does.
	ScannedBytes int64
	// SkippedBytes counts in-segment bytes jumped by root-state
	// acceleration.
	SkippedBytes int64
}

// ScanAC runs an Aho–Corasick matcher segment-parallel. AC needs no
// stitching: a match ending in segment k starts at most MaxPatternLen-1
// bytes earlier, so worker k scans its segment plus that much left context
// from a reset automaton and reports only matches ending inside its own
// segment — exact by the suffix-closure of the AC state. check, when
// non-nil, is polled between blocks of every bytes (≤ 0 selects the engine
// checkpoint default) on each worker and must be safe for concurrent use.
func ScanAC(m *ahocorasick.Matcher, input []byte, bounds []int, accel bool,
	check func() error, every int, emit func(pattern, end int)) (ACResult, error) {
	res := ACResult{PerPattern: make([]int64, m.NumPatterns())}
	if err := checkBounds(bounds, len(input)); err != nil {
		return res, err
	}
	parts := len(bounds) - 1
	if every <= 0 {
		every = engine.DefaultCheckpointEvery
	}
	overlap := m.MaxPatternLen() - 1

	type acOut struct {
		events  []Event // FSA field holds the pattern id
		scanned int64
		skipped int64
		err     error
	}
	outs := make([]acOut, parts)
	run := func(k int) (out acOut) {
		defer func() {
			if v := recover(); v != nil {
				out.err = &engine.WorkerPanicError{Automaton: -1, Value: v, Stack: debug.Stack()}
			}
		}()
		lo, hi := bounds[k], bounds[k+1]
		wstart := lo - overlap
		if wstart < 0 {
			wstart = 0
		}
		s := m.NewStreamScanner()
		s.SetAccel(accel)
		// Left context: every match ending here belongs to segment k-1.
		s.Scan(input[wstart:lo], func(int, int) {})
		ctxSkipped := s.Skipped()
		for off := lo; off < hi; off += every {
			if check != nil {
				if err := check(); err != nil {
					out.err = err
					return out
				}
			}
			stop := off + every
			if stop > hi {
				stop = hi
			}
			base := off
			s.Scan(input[off:stop], func(pat, end int) {
				out.events = append(out.events, Event{FSA: pat, End: base + end})
			})
			out.scanned += int64(stop - off)
		}
		out.skipped = s.Skipped() - ctxSkipped
		return out
	}
	if parts == 1 {
		outs[0] = run(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(parts)
		for k := 0; k < parts; k++ {
			go func(k int) {
				defer wg.Done()
				outs[k] = run(k)
			}(k)
		}
		wg.Wait()
	}
	var errs []error
	for k := range outs {
		res.ScannedBytes += outs[k].scanned
		res.SkippedBytes += outs[k].skipped
		if outs[k].err != nil {
			errs = append(errs, outs[k].err)
			continue
		}
	}
	if len(errs) > 0 {
		return res, joinErrs(errs)
	}
	for k := range outs {
		for _, e := range outs[k].events {
			res.Matches++
			res.PerPattern[e.FSA]++
			if emit != nil {
				emit(e.FSA, e.End)
			}
		}
	}
	return res, nil
}
