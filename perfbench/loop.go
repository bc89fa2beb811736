package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	imfant "repro"
)

// spans aggregates the benchmark's own in-memory spans: every op, and — in
// a traced phase — the stream open and close calls inside flow ops.
type spans struct {
	opNS, openNS, closeNS int64
	opens, closes         int64
}

// flowSlot is one open flow of the flows client.
type flowSlot struct {
	sm      *imfant.StreamMatcher
	unit    int
	pkt     int
	got     digest
	onMatch func(imfant.Match)
}

// client is the closed-loop caller. Its state persists from warm-up into
// the measured phase: open flows stay open and the schedule continues.
type client struct {
	e        *env
	scanners []*imfant.Scanner // per ruleset; nil where the mix has no Scanner cell
	slots    []flowSlot
	flows    int // flows opened so far
	pos      int // schedule position (block workloads)
	// corrupted marks the test hook's corruption as done.
	corrupted bool
	// seen holds the last observed result per (unit, API), for the check
	// that the traced run reproduces the untraced run's outputs.
	seen   []digest
	seenOK []bool

	// Per-phase results, reset by beginPhase.
	lat       []int64 // per-op latency, ns
	ops, bad  int64
	bytes     int64
	sp        spans
	cellNS    []int64
	cellBytes []int64
	firstFail string
	// winBytes buckets submitted bytes by the window (a tenth of the
	// measured phase) in which each op completed.
	start    time.Time
	winLen   time.Duration
	winBytes [maxWindows]int64
}

// numWindows splits a measured phase for the windowed throughput median;
// maxWindows bounds the buckets past the deadline a cycle can overrun into.
const (
	numWindows = 10
	maxWindows = 64
)

// env is one ruleset set with its client: the untraced set, or the traced
// set compiled with Options.Latency.
type env struct {
	w      *workload
	sets   []*imfant.Ruleset
	c      *client
	nproc  int
	traced bool
	// corruptOp, when positive, corrupts the observed result of the
	// corruptOp-th op of the measured phase: the benchmark's own test uses
	// it to prove a wrong output fails the run.
	corruptOp int64
	measuring bool
}

func newEnv(w *workload, sets []*imfant.Ruleset, scanners []*imfant.Scanner, nproc int, traced bool) *env {
	e := &env{w: w, sets: sets, nproc: nproc, traced: traced}
	c := &client{e: e, scanners: scanners,
		seen: make([]digest, len(w.units)*int(numAPIs)), seenOK: make([]bool, len(w.units)*int(numAPIs))}
	c.slots = make([]flowSlot, w.flowSlots)
	for i := range c.slots {
		s := &c.slots[i]
		s.onMatch = func(m imfant.Match) { s.got.add(m.Rule, m.End) }
	}
	e.c = c
	return e
}

// newScanners creates the client's warm Scanner for every ruleset the mix
// drives through Scanner.Count.
func newScanners(w *workload, sets []*imfant.Ruleset) []*imfant.Scanner {
	out := make([]*imfant.Scanner, len(sets))
	for _, cell := range w.cells {
		if cell.api == apiScanner && out[cell.rs] == nil {
			out[cell.rs] = sets[cell.rs].NewScanner()
		}
	}
	return out
}

// nextFlow opens the client's next flow into slot s: rulesets alternate,
// and each walks its own pool in order.
func (c *client) nextFlow(s *flowSlot) {
	w := c.e.w
	nrs := len(w.rulesets)
	per := len(w.units) / nrs
	k := c.flows
	c.flows++
	rs := k % nrs
	s.unit = rs*per + (k/nrs)%per
	s.pkt = 0
	s.got = digest{}
	t0 := time.Now()
	s.sm = c.e.sets[rs].NewStreamMatcher(s.onMatch)
	if c.e.traced {
		c.sp.openNS += time.Since(t0).Nanoseconds()
		c.sp.opens++
	}
}

// flowOp writes the next packet of one open flow; the flow's first packet
// includes NewStreamMatcher and its last includes Close and the check.
func (c *client) flowOp(i int) (bytes int64, cell int, ok bool) {
	s := &c.slots[i%len(c.slots)]
	if s.sm == nil {
		c.nextFlow(s)
	}
	u := &c.e.w.units[s.unit]
	pkt := u.packets[s.pkt]
	n, err := s.sm.Write(pkt)
	s.pkt++
	ok = err == nil && n == len(pkt)
	if s.pkt == len(u.packets) {
		t0 := time.Now()
		err := s.sm.Close()
		if c.e.traced {
			c.sp.closeNS += time.Since(t0).Nanoseconds()
			c.sp.closes++
		}
		got := s.got
		c.observe(s.unit, apiStream, got)
		if c.corrupt() {
			got.h ^= 1
		}
		ok = ok && err == nil && got == u.want
		s.sm = nil
	}
	return int64(len(pkt)), u.rs, ok
}

// blockOp runs one scheduled block call and checks it against the oracle:
// event multisets for FindAll, counts for the count APIs.
func (c *client) blockOp(o op) bool {
	u := &c.e.w.units[o.unit]
	rs := c.e.sets[o.rs]
	var got digest
	var err error
	switch o.api {
	case apiCount:
		got.n = rs.Count(u.data)
	case apiFindAll:
		got = digestOf(rs.FindAll(u.data))
	case apiCountParallel:
		got.n, err = rs.CountParallel(u.data, c.e.nproc)
	case apiScanner:
		got.n = c.scanners[o.rs].Count(u.data)
	}
	c.observe(o.unit, o.api, got)
	if c.corrupt() {
		got.n++
	}
	if o.api != apiFindAll {
		got.h = u.want.h
	}
	return err == nil && got == u.want
}

// corrupt reports whether this op's observed result is to be corrupted:
// the first checked op at or after the test hook's op number.
func (c *client) corrupt() bool {
	if !c.e.measuring || c.e.corruptOp <= 0 || c.corrupted || c.ops+1 < c.e.corruptOp {
		return false
	}
	c.corrupted = true
	return true
}

// observe records an op's result for the traced/untraced comparison.
func (c *client) observe(unit int, a api, got digest) {
	i := unit*int(numAPIs) + int(a)
	c.seen[i], c.seenOK[i] = got, true
}

// outputs returns the observed results; ok marks observed slots.
func (e *env) outputs() (seen []digest, ok []bool) { return e.c.seen, e.c.seenOK }

func (c *client) beginPhase(latCap int) {
	c.lat = make([]int64, 0, latCap)
	c.ops, c.bad, c.bytes = 0, 0, 0
	c.sp = spans{}
	c.cellNS = make([]int64, len(c.e.w.cells))
	c.cellBytes = make([]int64, len(c.e.w.cells))
	c.firstFail = ""
	c.winBytes = [maxWindows]int64{}
}

// run is the closed loop: ops back to back until the stop condition holds
// at a mix-cycle boundary. A deadline stops it at the boundary nearest the
// deadline: once less than half the last cycle's time is left. A phase of
// bulk's ~12 s cycles thus runs the same number of cycles on hosts that
// are somewhat faster or slower. Nothing in it allocates.
func (c *client) run(maxOps int64, deadline time.Time) {
	w := c.e.w
	cycleStart := time.Now()
	for i := 0; ; i++ {
		if i%w.roundLen == 0 {
			now := time.Now()
			if (maxOps > 0 && c.ops >= maxOps) || (!deadline.IsZero() && !now.Add(now.Sub(cycleStart)/2).Before(deadline)) {
				return
			}
			cycleStart = now
		}
		var bytes int64
		var cell int
		var ok bool
		t0 := time.Now()
		if w.sched == nil {
			bytes, cell, ok = c.flowOp(i)
		} else {
			o := w.sched[c.pos%len(w.sched)]
			c.pos++
			ok = c.blockOp(o)
			bytes, cell = int64(len(w.units[o.unit].data)), cellOf(w, o)
		}
		end := time.Now()
		d := end.Sub(t0).Nanoseconds()
		if c.winLen > 0 {
			c.winBytes[min(int(end.Sub(c.start)/c.winLen), maxWindows-1)] += bytes
		}
		if len(c.lat) < cap(c.lat) {
			c.lat = append(c.lat, d)
		}
		c.ops++
		c.bytes += bytes
		c.sp.opNS += d
		c.cellNS[cell] += d
		c.cellBytes[cell] += bytes
		if !ok {
			c.bad++
			if c.firstFail == "" {
				c.firstFail = fmt.Sprintf("op %d (cell %d) disagrees with the oracle", c.ops, cell)
			}
		}
	}
}

func cellOf(w *workload, o op) int {
	for i, cell := range w.cells {
		if cell.rs == o.rs && cell.api == o.api {
			return i
		}
	}
	return 0
}

// phase is one measured (or warm-up) closed-loop phase.
type phase struct {
	wall      time.Duration
	windows   []float64 // bytes/s per window of the measured phase; nil if unwindowed
	cpu       time.Duration
	ops, bad  int64
	bytes     int64
	lat       []int64
	sp        spans
	mallocs   uint64
	allocB    uint64
	gcPause   uint64
	cellNS    []int64
	cellBytes []int64
	before    []counters
	after     []counters
	failure   string
}

// runPhase runs the client until it has done maxOps ops or the deadline d
// has passed (whichever is set), at cycle boundaries.
func (e *env) runPhase(maxOps int64, d time.Duration, latCap int, measure bool) *phase {
	p := &phase{}
	c := e.c
	c.beginPhase(latCap)
	e.measuring = measure
	if measure {
		p.before = snapshotAll(e.sets)
		runtime.GC()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	var deadline time.Time
	if d > 0 {
		deadline = start.Add(d)
	}
	c.start, c.winLen = start, 0
	if measure && e.w.windowed {
		c.winLen = d / numWindows
	}
	c.run(maxOps, deadline)
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	e.measuring = false
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
	if c.winLen > 0 {
		for k := 0; k < numWindows; k++ {
			p.windows = append(p.windows, float64(c.winBytes[k])/c.winLen.Seconds())
		}
	}
	p.ops, p.bad, p.bytes = c.ops, c.bad, c.bytes
	p.lat, c.lat = c.lat, nil
	p.sp = c.sp
	p.cellNS, p.cellBytes = c.cellNS, c.cellBytes
	p.failure = c.firstFail
	if measure {
		p.after = snapshotAll(e.sets)
	}
	return p
}

// warmUp runs every (ruleset, API) cell at least once, then keeps going
// until each gated ruleset has made trackerWindow sweep decisions, so the
// prefilter tracker has left its first window before counters are read.
// Where the mix sweeps too rarely, each ruleset is topped up with its warm
// op, the rulesets concurrently (warm-up is not measured).
func (e *env) warmUp() (ops, bad int64, failure string) {
	w := e.w
	first := int64(w.roundLen)
	if w.sched == nil {
		first = 256 // flows: several whole flows per slot and ruleset
	}
	tally := func(p *phase) {
		ops += p.ops
		bad += p.bad
		if failure == "" {
			failure = p.failure
		}
	}
	tally(e.runPhase(first, 0, 0, false))
	if w.warm == nil {
		for iter := 0; iter < 64 && e.anyShortOfWindow(); iter++ {
			tally(e.runPhase(first, 0, 0, false))
		}
		return ops, bad, failure
	}
	n := make([]int64, len(e.sets))
	nbad := make([]int64, len(e.sets))
	var wg sync.WaitGroup
	for i := range e.sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The rulesets touch disjoint scanners, units and result
			// slots.
			for k := 0; k < 64 && shortOfWindow(e.sets[i]); k++ {
				n[i]++
				if !e.c.blockOp(w.warm[i]) {
					nbad[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range n {
		ops += n[i]
		bad += nbad[i]
	}
	return ops, bad, failure
}

func (e *env) anyShortOfWindow() bool {
	for _, rs := range e.sets {
		if shortOfWindow(rs) {
			return true
		}
	}
	return false
}

// shortOfWindow reports whether rs's prefilter tracker has yet to see a
// full window of sweep decisions.
func shortOfWindow(rs *imfant.Ruleset) bool {
	if !rs.PrefilterActive() {
		return false
	}
	s := rs.Stats()
	return s.Prefilter != nil && s.Prefilter.Sweeps+s.Strategy.SweepsDisabled < trackerWindow
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
