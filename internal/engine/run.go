package engine

import (
	"math/bits"

	"repro/internal/faultpoint"
)

// Config tunes a Run. The zero value reproduces the paper's semantics.
type Config struct {
	// KeepOnMatch disables the Eq. 5 pop: after emitting a match for FSA
	// j at state q2, j stays active so longer matches of the same path
	// are also reported. The paper pops (zero value).
	KeepOnMatch bool
	// Stats enables the per-symbol active-FSA accounting of Table II at
	// a modest traversal overhead.
	Stats bool
	// Accel enables the empty-vector start-byte skip: whenever the
	// traversal vector is empty past stream offset 0 and the program's
	// start-byte set is small (Program.StartBytes), the scan jumps with a
	// bytescan kernel to the next byte that can begin a match instead of
	// stepping dead bytes one at a time. Results are byte-identical with
	// the skip on or off — a dead byte fires no transition, so skipping it
	// cannot lose activations or match events.
	Accel bool
	// NoInits runs the scan carry-only: no FSA is ever (re)activated from
	// an initial state, so the traversal propagates exactly the activations
	// seeded through Resume and dies permanently once the vector empties.
	// This is the boundary-stitching mode of segmented scanning: a runner
	// resumed from a segment-boundary carry reports precisely the events
	// that carry can still produce, and Feed returns as soon as the vector
	// is dead (Result.Symbols then counts only the bytes actually
	// traversed). Accel is ignored under NoInits — an empty vector is a
	// terminal state, not a skippable gap.
	NoInits bool
	// OnMatch, when non-nil, is invoked for every match with the FSA
	// identifier and the end offset of the match (inclusive). Each
	// (FSA, end offset) pair is reported exactly once, even when several
	// accepting states or transitions witness it on the same symbol.
	OnMatch func(fsa, end int)
	// Checkpoint, when non-nil, is polled about every CheckpointEvery
	// bytes during Feed. A non-nil return cancels the scan: the runner
	// stops consuming input, records the error (Runner.Err), and every
	// further Feed is a no-op. Wiring a context's Err here makes scans of
	// adversarial multi-megabyte inputs cancellable without slowing the
	// per-byte hot loop.
	Checkpoint func() error
	// CheckpointEvery is the polling granularity of Checkpoint in bytes;
	// 0 selects DefaultCheckpointEvery.
	CheckpointEvery int
	// Profile, when non-nil, enables the sampling state profiler: every
	// Profile.Stride() input symbols the live activation vector is folded
	// into the shared Profile. Sampling happens at stride-block
	// boundaries outside the per-byte loop; a nil Profile costs one
	// branch per fed chunk.
	Profile *Profile
	// ProfileFor, when non-nil, supplies RunParallel workers with the
	// per-automaton Profile (Profile itself is per-program). Ignored by
	// single-runner execution — set Profile directly there.
	ProfileFor func(automaton int) *Profile
	// Faults, when non-nil, arms the fault-injection sites of this
	// execution (stalled chunks here; worker panics in RunParallel) — the
	// chaos-testing substrate. Like Profile, a nil Faults costs one
	// predictable branch per fed chunk and nothing per byte. Injected
	// faults only force degradations the engine already implements
	// exactly; they never corrupt results.
	Faults *faultpoint.Injector
}

// DefaultCheckpointEvery is the default Checkpoint polling granularity. At
// iMFAnt's typical few-hundred-MB/s throughput, 4 KiB blocks bound the
// cancellation latency to tens of microseconds while keeping the poll cost
// far below one branch per byte.
const DefaultCheckpointEvery = 4096

// Result aggregates one Run.
type Result struct {
	// Matches is the total number of distinct (FSA, end-offset) match
	// events.
	Matches int64
	// PerFSA counts matches per merged-FSA identifier.
	PerFSA []int64
	// Symbols is the number of input bytes processed.
	Symbols int
	// AccelBytes counts the input bytes the start-byte skip jumped over
	// instead of stepping (Config.Accel). Skipped bytes still count in
	// Symbols — they were matched against, just in bulk.
	AccelBytes int64

	// ActivePairsTotal sums, over all input symbols, the number of
	// (active state, active FSA) pairs in the state vector — the paper's
	// "total number of active FSAs during MFSA traversal" (Table II).
	ActivePairsTotal int64
	// MaxActiveFSAs is the largest number of distinct FSAs
	// simultaneously active after any single symbol.
	MaxActiveFSAs int
}

// AvgActive returns the average number of active (state, FSA) pairs per
// input symbol, the Avg row of Table II.
func (r Result) AvgActive() float64 {
	if r.Symbols == 0 {
		return 0
	}
	return float64(r.ActivePairsTotal) / float64(r.Symbols)
}

// vector is a reusable iMFAnt state vector: the per-state activation sets
// J(q) plus the dirty list that lets two buffers swap without full clears.
type vector struct {
	j      []uint64 // numStates × words
	dirty  []int32  // states with any bit set
	member []bool   // member[q]: q is in dirty
}

func newVector(states, words int) *vector {
	return &vector{
		j:      make([]uint64, states*words),
		member: make([]bool, states),
		dirty:  make([]int32, 0, 64),
	}
}

func (v *vector) reset(words int) {
	for _, q := range v.dirty {
		base := int(q) * words
		for w := 0; w < words; w++ {
			v.j[base+w] = 0
		}
		v.member[q] = false
	}
	v.dirty = v.dirty[:0]
}

// Totals are cumulative counters over every scan a Runner has executed,
// including the one in progress. They are the engine-level feed of the
// telemetry layer: folded at scan granularity (End), never touched by the
// per-byte hot loop.
type Totals struct {
	// Scans counts completed scans (End calls).
	Scans int64
	// Symbols is the total number of input bytes processed.
	Symbols int64
	// Matches is the total number of match events.
	Matches int64
	// AccelBytes is the total number of input bytes jumped over by the
	// start-byte skip (Config.Accel), a subset of Symbols.
	AccelBytes int64
}

// Runner holds the reusable buffers for repeated executions of one Program.
// It is not safe for concurrent use; create one Runner per goroutine.
type Runner struct {
	p        *Program
	cur, nxt *vector
	tmp      []uint64
	emitted  []uint64
	// seen is the per-symbol dedup mask: FSAs already reported at the
	// current position. Several transitions can reach distinct accepting
	// states for the same FSA on one symbol; without the mask each arrival
	// would emit its own event for the same (FSA, end) pair. Cleared
	// lazily — only on positions that actually match.
	seen []uint64

	// Chunked-scan state (Begin/Feed/End).
	cfg    Config
	res    Result
	offset int
	stop   error // non-nil: scan cancelled by a Checkpoint failure

	// The runner owns the stream-end responsibility: the most recent byte
	// of every non-final Feed is held back so that, whenever the stream
	// end is announced — Feed(..., true) with or without new data, or End
	// without a final Feed — some byte is still available to carry the
	// $-anchored accepts of the true last position.
	held    [1]byte
	hasHeld bool

	ended    bool // End already folded this scan into totals
	profFill int  // symbols fed since the last profiler sample
	totals   Totals

	// noInit is the all-zero init vector selected under Config.NoInits,
	// allocated once on the first NoInits Begin.
	noInit []uint64
}

// NewRunner returns an execution context for p.
func NewRunner(p *Program) *Runner {
	r := new(Runner)
	r.Init(p)
	return r
}

// Init makes r a fresh execution context for p, for callers that hold a
// Runner by value.
func (r *Runner) Init(p *Program) {
	*r = Runner{
		p:       p,
		cur:     newVector(p.numStates, p.words),
		nxt:     newVector(p.numStates, p.words),
		tmp:     make([]uint64, p.words),
		emitted: make([]uint64, p.words),
		seen:    make([]uint64, p.words),
	}
}

// Run executes the iMFAnt algorithm over input (§V): for every input
// character, every transition enabled by that character is evaluated; a
// move is performed when the transition leaves an initial or active state
// and the activation-function update Jnew = (J(q1) ∪ inits(q1)) ∩ bel(t)
// (Eqs. 4 and 6) is non-empty; reaching a state final for an FSA in Jnew
// emits a match for it (Eq. 5). When no valid transition fires, the active
// paths die and matching restarts at the next character, as in iNFAnt.
func (r *Runner) Run(input []byte, cfg Config) Result {
	r.Begin(cfg)
	r.Feed(input, true)
	return r.End()
}

// Begin starts a (possibly chunked) scan, resetting all traversal state.
// Follow with any number of Feed calls and one End.
func (r *Runner) Begin(cfg Config) {
	W := r.p.words
	r.cfg = cfg
	r.res = Result{PerFSA: make([]int64, r.p.numFSAs)}
	r.offset = 0
	r.stop = nil
	r.hasHeld = false
	r.ended = false
	r.profFill = 0
	r.cur.reset(W)
	r.nxt.reset(W)
	if cfg.NoInits && r.noInit == nil {
		r.noInit = make([]uint64, r.p.numStates*W)
	}
}

// Feed consumes the next chunk of the stream. Set final on the last chunk
// so that $-anchored rules can match at the true stream end. Match offsets
// reported through Config.OnMatch are absolute stream offsets. Active paths
// carry across chunk boundaries, so splitting a stream into chunks never
// changes the reported matches.
//
// The runner holds back the most recent byte of every non-final Feed, so
// the stream end may be announced after the fact: Feed(nil, true) — or End
// with no final Feed at all — flushes that byte as the true last one, and
// $-anchored accepts on it are reported rather than silently lost.
//
// When Config.Checkpoint is set, Feed polls it between blocks of
// CheckpointEvery bytes; once it fails, the remaining input is dropped and
// Err returns the cause.
func (r *Runner) Feed(chunk []byte, final bool) {
	if r.stop != nil {
		return
	}
	if r.hasHeld && (len(chunk) > 0 || final) {
		r.hasHeld = false
		r.feedSplit(r.held[:], final && len(chunk) == 0)
		if r.stop != nil || (final && len(chunk) == 0) {
			return
		}
	}
	if len(chunk) == 0 {
		if final {
			r.feedSplit(nil, true)
		}
		return
	}
	if final {
		r.feedSplit(chunk, true)
		return
	}
	r.feedSplit(chunk[:len(chunk)-1], false)
	if r.stop == nil {
		r.held[0] = chunk[len(chunk)-1]
		r.hasHeld = true
	}
}

// FlushHeld feeds the held-back byte as ordinary (non-final) data. It is
// the cancellation-path companion of the held-byte contract: a caller that
// reported the byte as consumed but will never deliver a stream end (the
// scan is being abandoned mid-stream) flushes it so every consumed byte was
// actually matched against. $-anchored accepts do not fire — the true
// stream end was never observed.
func (r *Runner) FlushHeld() {
	if r.stop != nil || !r.hasHeld {
		return
	}
	r.hasHeld = false
	r.feedSplit(r.held[:], false)
}

// feedSplit runs chunk through feedChunk in Checkpoint-sized blocks.
func (r *Runner) feedSplit(chunk []byte, final bool) {
	if r.cfg.Checkpoint == nil {
		r.feedChunk(chunk, final)
		return
	}
	every := r.cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	for off := 0; ; off += every {
		if err := r.cfg.Checkpoint(); err != nil {
			r.stop = err
			return
		}
		end := off + every
		if end >= len(chunk) {
			r.feedChunk(chunk[off:], final)
			return
		}
		r.feedChunk(chunk[off:end], false)
	}
}

// Err returns the Checkpoint error that cancelled the scan, if any.
func (r *Runner) Err() error { return r.stop }

// feedChunk is the uninterruptible Feed body. Profiled scans route through
// feedProfiled, which replays the same body in stride-sized blocks; with
// profiling off this is one predictable branch per chunk, leaving the
// per-byte loops untouched.
func (r *Runner) feedChunk(chunk []byte, final bool) {
	if r.cfg.Faults != nil {
		r.cfg.Faults.Stall()
	}
	if r.cfg.Profile != nil {
		r.feedProfiled(chunk, final)
		return
	}
	r.feedBody(chunk, final)
}

// feedBody dispatches to the word-width-specialized traversal loop.
func (r *Runner) feedBody(chunk []byte, final bool) {
	p := r.p
	W := p.words
	if W == 1 {
		r.feedW1(chunk, final)
		return
	}
	cfg := r.cfg
	res := &r.res
	last := len(chunk) - 1
	noInits := cfg.NoInits
	accel := cfg.Accel && p.startAccel && !noInits
	// processed is the number of bytes this call actually traversed: the
	// whole chunk, unless a NoInits scan's vector dies mid-chunk — the
	// remaining bytes provably produce nothing and are not consumed.
	processed := len(chunk)

	for pos := 0; pos < len(chunk); pos++ {
		if noInits && len(r.cur.dirty) == 0 {
			processed = pos
			break
		}
		if accel && len(r.cur.dirty) == 0 && r.offset+pos > 0 {
			// Empty vector mid-stream: only a start byte does anything.
			// Jump to the next one; every skipped byte provably fires no
			// transition and so cannot activate or emit — even at the
			// stream end.
			j := p.startFinder.Index(chunk[pos:])
			if j < 0 {
				res.AccelBytes += int64(len(chunk) - pos)
				break
			}
			res.AccelBytes += int64(j)
			pos += j
		}
		c := chunk[pos]
		cur, nxt := r.cur, r.nxt
		atEnd := final && pos == last
		seenHere := false // r.seen holds a stale position until cleared
		// The ^-anchored inits participate only in the stream's first
		// step; selecting the init vector here keeps the branch out of
		// the inner transition loop. NoInits scans select the all-zero
		// vector: activations carry, nothing restarts.
		init := p.initAlways
		if noInits {
			init = r.noInit
		} else if r.offset == 0 && pos == 0 {
			init = p.initAll
		}
		for _, ti := range p.lists[c] {
			t := &p.trans[ti]
			srcBase := int(t.from) * W
			belBase := int(ti) * W

			// Jnew = (J(q1) ∪ inits(q1)) ∩ bel(t).
			any := uint64(0)
			for w := 0; w < W; w++ {
				v := (cur.j[srcBase+w] | init[srcBase+w]) & p.bel[belBase+w]
				r.tmp[w] = v
				any |= v
			}
			if any == 0 {
				continue
			}

			dstBase := int(t.to) * W
			// Matches: FSAs in Jnew for which q2 is final, honoring
			// the $ anchor.
			matched := uint64(0)
			for w := 0; w < W; w++ {
				m := r.tmp[w] & p.finalMask[dstBase+w]
				if !atEnd {
					m &^= p.endAnchored[w]
				}
				r.emitted[w] = m
				matched |= m
			}
			if matched != 0 {
				if !seenHere {
					seenHere = true
					for w := 0; w < W; w++ {
						r.seen[w] = 0
					}
				}
				for w := 0; w < W; w++ {
					// Emit only FSAs not yet reported at this
					// position; the pop below still applies to every
					// accepting arrival.
					m := r.emitted[w] &^ r.seen[w]
					r.seen[w] |= r.emitted[w]
					for m != 0 {
						bit := m & (-m)
						fsa := w*64 + trailingZeros(bit)
						res.Matches++
						res.PerFSA[fsa]++
						if cfg.OnMatch != nil {
							cfg.OnMatch(fsa, r.offset+pos)
						}
						m &= m - 1
					}
					if !cfg.KeepOnMatch {
						r.tmp[w] &^= r.emitted[w] // Eq. 5 pop
					}
				}
			}

			// Activate q2 with the surviving set.
			any = 0
			for w := 0; w < W; w++ {
				any |= r.tmp[w]
			}
			if any == 0 {
				continue
			}
			if !nxt.member[t.to] {
				nxt.member[t.to] = true
				nxt.dirty = append(nxt.dirty, t.to)
			}
			for w := 0; w < W; w++ {
				nxt.j[dstBase+w] |= r.tmp[w]
			}
		}

		if cfg.Stats {
			var union [8]uint64 // enough for words ≤ 8, i.e. ≤ 512 FSAs
			var un []uint64
			if W > len(union) {
				un = make([]uint64, W)
			} else {
				un = union[:W:W]
			}
			pairs := int64(0)
			for _, q := range nxt.dirty {
				base := int(q) * W
				for w := 0; w < W; w++ {
					v := nxt.j[base+w]
					pairs += int64(popcount(v))
					un[w] |= v
				}
			}
			res.ActivePairsTotal += pairs
			distinct := 0
			for w := 0; w < W; w++ {
				distinct += popcount(un[w])
			}
			if distinct > res.MaxActiveFSAs {
				res.MaxActiveFSAs = distinct
			}
		}

		cur.reset(W)
		r.cur, r.nxt = nxt, cur
	}
	res.Symbols += processed
	r.offset += processed
}

// End finishes a chunked scan and returns the accumulated result. If no
// Feed announced the stream end, End flushes the held-back byte as the
// final one, so $-anchored accepts on the last byte fed are reported. End
// also folds the scan into the runner's cumulative Totals; calling it again
// before the next Begin is idempotent.
func (r *Runner) End() Result {
	if r.hasHeld && r.stop == nil {
		r.hasHeld = false
		r.feedSplit(r.held[:], true)
	}
	if !r.ended {
		r.ended = true
		r.totals.Scans++
		r.totals.Symbols += int64(r.res.Symbols)
		r.totals.Matches += r.res.Matches
		r.totals.AccelBytes += r.res.AccelBytes
	}
	return r.res
}

// Progress returns the current scan's result so far: the live counters of
// a scan in progress (bytes of completed blocks, matches already
// delivered), or the result of the scan End finished.
func (r *Runner) Progress() Result { return r.res }

// Totals returns the runner's cumulative counters: every finished scan plus
// the live state of an in-progress one. Reading them costs nothing on the
// scan path — folding happens at End, never per byte.
func (r *Runner) Totals() Totals {
	t := r.totals
	if !r.ended {
		t.Symbols += int64(r.res.Symbols)
		t.Matches += r.res.Matches
		t.AccelBytes += r.res.AccelBytes
	}
	return t
}

// Run is the convenience single-shot entry point; it allocates a fresh
// Runner. Hot paths should reuse a Runner.
func Run(p *Program, input []byte, cfg Config) Result {
	return NewRunner(p).Run(input, cfg)
}

// Matches runs p over input and returns every (FSA id, end offset) match
// pair in traversal order. Intended for tests and examples on small inputs.
func Matches(p *Program, input []byte, cfg Config) []MatchEvent {
	var out []MatchEvent
	cfg.OnMatch = func(fsa, end int) {
		out = append(out, MatchEvent{FSA: fsa, End: end})
	}
	Run(p, input, cfg)
	return out
}

// MatchEvent is one match: FSA is the merged-FSA identifier within its
// MFSA; End is the offset of the last matched byte.
type MatchEvent struct {
	FSA int
	End int
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

func popcount(x uint64) int { return bits.OnesCount64(x) }
