package imfant

import (
	"bytes"
	"reflect"
	"testing"
)

// Every API path drives the same per-group executors, so every path must run
// the engine the planner assigned each group (engine identity) and book the
// same Stats() for the same input (accounting parity). These tests run each
// path on a fresh Ruleset, so Stats() deltas are the path's own and no
// prefilter gate has been disabled by the effectiveness tracker yet.

// pathFixture is one ruleset under test plus an input that exercises it.
type pathFixture struct {
	name     string
	patterns []string
	opts     Options
	input    []byte
}

// pathFixtures covers a KeepOnMatch ruleset (lazy-DFA default engine), a
// planner-mixed ruleset (AC + anchored + eager DFA + a lazy-DFA default
// group), the paper's pop semantics (iMFAnt default engine), and one group
// per rule over an input without the "needle" factor, so that with the
// prefilter on the needle group is skipped.
func pathFixtures() []pathFixture {
	mixed := append(append([]string(nil), plannerPatterns...), "x[0-9]{200}y")
	noNeedle := bytes.ReplaceAll(chaosInput(), []byte("needle"), []byte("noodle"))
	return []pathFixture{
		{"keep-lazy", chaosPatterns, Options{KeepOnMatch: true}, quietMiddle(chaosInput())},
		{"planner-mixed", mixed, Options{KeepOnMatch: true, MergeFactor: 2},
			quietMiddle(plannerTraffic(48<<10, 5))},
		{"pop-imfant", chaosPatterns, Options{}, quietMiddle(chaosInput())},
		{"gated-skip", chaosPatterns, Options{KeepOnMatch: true, MergeFactor: 1}, quietMiddle(noNeedle)},
	}
}

// quietMiddle overwrites the bytes around the input's midpoint — the cut of
// a two-worker segmented scan — with filler no rule can match or carry
// across. Boundary stitching then re-scans nothing: stitch re-scans count in
// BytesScanned by design (Stats().Segment partitions it), so a live boundary
// would make the segmented paths book more bytes than a serial scan.
func quietMiddle(in []byte) []byte {
	out := append([]byte(nil), in...)
	mid := len(out) / 2
	copy(out[mid-64:mid+64], bytes.Repeat([]byte{'.'}, 128))
	return out
}

// scanPath is one public API path over a whole input; it returns the match
// count the path reported.
type scanPath struct {
	name string
	// segmented paths compile with SegmentOn and two workers.
	segmented bool
	run       func(t *testing.T, rs *Ruleset, input []byte) int64
}

// scanPaths lists the paths under test. The stream writes chunk-byte
// pieces.
func scanPaths(chunk int) []scanPath {
	parallel := func(threads int) func(*testing.T, *Ruleset, []byte) int64 {
		return func(t *testing.T, rs *Ruleset, in []byte) int64 {
			n, err := rs.CountParallel(in, threads)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	findAll := func(t *testing.T, rs *Ruleset, in []byte) int64 { return int64(len(rs.FindAll(in))) }
	return []scanPath{
		{"Scanner.Count", false, func(t *testing.T, rs *Ruleset, in []byte) int64 {
			return rs.NewScanner().Count(in)
		}},
		{"Ruleset.Count", false, func(t *testing.T, rs *Ruleset, in []byte) int64 { return rs.Count(in) }},
		{"FindAll", false, findAll},
		{"CountParallel-1", false, parallel(1)},
		{"CountParallel-2", false, parallel(2)},
		{"segmented-CountParallel", true, parallel(2)},
		{"segmented-FindAll", true, findAll},
		{"stream", false, func(t *testing.T, rs *Ruleset, in []byte) int64 {
			sm := rs.NewStreamMatcher(nil)
			for rest := in; len(rest) > 0; {
				n := min(chunk, len(rest))
				if _, err := sm.Write(rest[:n]); err != nil {
					t.Fatal(err)
				}
				rest = rest[n:]
			}
			if err := sm.Close(); err != nil {
				t.Fatal(err)
			}
			return sm.Matches()
		}},
	}
}

// runPath compiles fx for path p and runs it once, returning the ruleset's
// Stats() before and after, and the reported match count.
func runPath(t *testing.T, fx pathFixture, opts Options, p scanPath) (rs *Ruleset, before, after Stats, n int64) {
	t.Helper()
	if p.segmented {
		opts.Segment, opts.SegmentWorkers = SegmentOn, 2
	}
	rs = MustCompile(fx.patterns, opts)
	before = rs.Stats()
	n = p.run(t, rs, fx.input)
	after = rs.Stats()
	if p.segmented {
		seg := after.Segment
		if seg == nil || seg.SegmentedScans == 0 {
			t.Fatalf("%s: the scan was not segmented: %+v", p.name, seg)
		}
		if seg.StitchBytes != 0 {
			t.Fatalf("bad fixture: %s stitched %d bytes across a quiet boundary", p.name, seg.StitchBytes)
		}
	}
	return rs, before, after, n
}

// strategyBytes maps each strategy row of a snapshot to its byte count.
func strategyBytes(st Stats) map[string]int64 {
	out := make(map[string]int64)
	for _, g := range st.Strategy.Groups {
		out[g.Strategy] = g.Bytes
	}
	return out
}

// TestEngineIdentity checks that every path runs the engine the planner
// assigned each group: with the prefilter off every group scans the whole
// input once, so each strategy's byte row moves by exactly its group count
// times the input length, and a path that runs a lazy-DFA group on the lazy
// engine moves the cache counters.
func TestEngineIdentity(t *testing.T) {
	for _, fx := range pathFixtures() {
		opts := fx.opts
		opts.Prefilter = PrefilterOff
		probe := MustCompile(fx.patterns, opts)
		groups := make(map[string]int64)
		for _, s := range probe.Strategies() {
			groups[s.String()]++
		}
		for _, p := range scanPaths(777) {
			t.Run(fx.name+"/"+p.name, func(t *testing.T) {
				rs, before, after, _ := runPath(t, fx, opts, p)
				if !reflect.DeepEqual(rs.Strategies(), probe.Strategies()) {
					t.Fatalf("plan differs from the probe's: %v vs %v", rs.Strategies(), probe.Strategies())
				}
				b0, b1 := strategyBytes(before), strategyBytes(after)
				var rows int64
				for name, n := range b1 {
					moved := n - b0[name]
					rows += moved
					if want := groups[name] * int64(len(fx.input)); moved != want {
						t.Errorf("strategy %s moved %d bytes, want %d (%d groups)", name, moved, want, groups[name])
					}
				}
				if total := after.BytesScanned - before.BytesScanned; rows != total {
					t.Errorf("strategy rows moved %d bytes, BytesScanned %d", rows, total)
				}
				if groups[StrategyLazyDFA.String()] > 0 {
					lookups := func(st Stats) int64 { return st.Lazy.Hits + st.Lazy.Misses }
					if lookups(after) == lookups(before) {
						t.Errorf("lazy-DFA groups scanned without a lazy-DFA cache lookup: %+v", after.Lazy)
					}
				}
			})
		}
	}
}

// parityView is the path-independent part of a Stats() delta: everything but
// the cache-warmth counters (Lazy hits, misses and cached states) and the
// path-specific Segment section.
type parityView struct {
	Scans, Bytes, Matches int64
	RuleHits              []int64
	Strategy              map[string]int64
	AccelSkipped          int64
}

func parityDelta(before, after Stats) parityView {
	v := parityView{
		Scans:    after.Scans - before.Scans,
		Bytes:    after.BytesScanned - before.BytesScanned,
		Matches:  after.Matches - before.Matches,
		RuleHits: make([]int64, len(after.RuleHits)),
		Strategy: strategyBytes(after),
	}
	for i := range v.RuleHits {
		v.RuleHits[i] = after.RuleHits[i]
		if i < len(before.RuleHits) {
			v.RuleHits[i] -= before.RuleHits[i]
		}
	}
	for name, n := range strategyBytes(before) {
		v.Strategy[name] -= n
	}
	if after.Accel != nil {
		v.AccelSkipped = after.Accel.BytesSkipped - before.Accel.BytesSkipped
	}
	return v
}

// TestStatsPathParity checks that one input books the same ruleset-scope
// Stats() on every path, with the prefilter off and on. With the prefilter
// on the stream writes the input in one piece: a gated group still asleep at
// a stream's second Write wakes by replaying the first chunk (see
// StreamMatcher), so only a single-Write stream skips exactly what a block
// scan skips.
func TestStatsPathParity(t *testing.T) {
	var skipped int64
	for _, fx := range pathFixtures() {
		for _, pm := range []struct {
			name  string
			mode  PrefilterMode
			chunk int
		}{{"pf-off", PrefilterOff, 777}, {"pf-on", PrefilterOn, len(fx.input)}} {
			opts := fx.opts
			opts.Prefilter = pm.mode
			var want parityView
			var wantN int64
			for k, p := range scanPaths(pm.chunk) {
				_, before, after, n := runPath(t, fx, opts, p)
				got := parityDelta(before, after)
				if k == 0 {
					want, wantN = got, n
					if got.Matches == 0 || got.Bytes == 0 {
						t.Fatalf("%s/%s: bad fixture, nothing scanned or matched: %+v", fx.name, pm.name, got)
					}
					if after.Prefilter != nil {
						skipped += after.Prefilter.GroupsSkipped
					}
					continue
				}
				if n != wantN {
					t.Errorf("%s/%s/%s: %d matches, %s reported %d", fx.name, pm.name, p.name, n, scanPaths(0)[0].name, wantN)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%s: stats delta\n%+v\nwant (%s)\n%+v", fx.name, pm.name, p.name, got, scanPaths(0)[0].name, want)
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("bad fixture: no prefilter-on scan skipped a group")
	}
	t.Run("lazy-trace-events", testLazyTraceParity)
}

// testLazyTraceParity compares the multiset of lazy-DFA trace events
// (flush, fallback, pin) and match events that Scanner.Count and a
// one-worker CountParallel record for the same input on a tiny, thrashing
// cache.
func testLazyTraceParity(t *testing.T) {
	opts := Options{KeepOnMatch: true, LazyDFAMaxStates: 3, TraceCapacity: 4096, Prefilter: PrefilterOff}
	input := chaosInput()
	kinds := func(run func(rs *Ruleset)) map[string]int {
		rs := MustCompile(chaosPatterns, opts)
		run(rs)
		out := make(map[string]int)
		for _, ev := range rs.TraceEvents() {
			switch ev.Kind {
			case "lazy_flush", "lazy_fallback", "lazy_pin", "match":
				out[ev.Kind]++
			}
		}
		return out
	}
	want := kinds(func(rs *Ruleset) { rs.NewScanner().Count(input) })
	if want["lazy_flush"] == 0 || want["match"] == 0 {
		t.Fatalf("bad fixture: Scanner.Count recorded %v on a tiny cache", want)
	}
	got := kinds(func(rs *Ruleset) {
		if _, err := rs.CountParallel(input, 1); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CountParallel lazy events %v, Scanner.Count %v", got, want)
	}
}
