package main

import (
	"fmt"
	"math"
	"math/rand"

	imfant "repro"
	"repro/internal/dataset"
	"repro/internal/rex"
)

// api names one public entry point the benchmark drives.
type api int

const (
	apiStream        api = iota // NewStreamMatcher / Write / Close
	apiCount                    // Ruleset.Count
	apiFindAll                  // Ruleset.FindAll
	apiCountParallel            // Ruleset.CountParallel(input, nproc)
	apiScanner                  // warm per-client Scanner.Count
	numAPIs
)

func (a api) String() string {
	return [...]string{"stream", "count", "findall", "countparallel", "scanner"}[a]
}

// rulesetSpec is one compiled ruleset of a workload.
type rulesetSpec struct {
	abbr string
	opts imfant.Options
}

// oracleOpts is the conformance oracle's configuration for spec: the forced
// engine the semantics default to, same MergeFactor/KeepOnMatch, with the
// prefilter, acceleration and segmentation off.
func (s rulesetSpec) oracleOpts() imfant.Options {
	eng := imfant.EngineIMFAnt
	if s.opts.KeepOnMatch {
		eng = imfant.EngineLazyDFA
	}
	return imfant.Options{
		MergeFactor: s.opts.MergeFactor,
		KeepOnMatch: s.opts.KeepOnMatch,
		Engine:      eng,
		Prefilter:   imfant.PrefilterOff,
		Accel:       imfant.AccelOff,
		Segment:     imfant.SegmentOff,
	}
}

// unit is one distinct input with its oracle result: a flow's packets, a
// message, or a bulk buffer. Units are cycled, so the oracle runs once each.
type unit struct {
	rs      int
	data    []byte   // the whole unit (a flow's concatenated bytes)
	packets [][]byte // flows only: data cut into packets
	want    digest
}

// op is one scheduled block call: a (ruleset, API) cell over a unit.
type op struct {
	rs, unit int
	api      api
}

// workload is one fully generated benchmark workload.
type workload struct {
	name     string
	rulesets []rulesetSpec
	units    []unit
	// cells lists the (ruleset, API) cells, for warm-up coverage and the
	// per-cell breakdown.
	cells []op
	// sched is the client's op schedule for block workloads, a whole
	// number of mix cycles; the deadline is checked at cycle boundaries so
	// every measured phase runs whole cycles of the fixed mix. Empty for
	// flows.
	sched []op
	// roundLen is the number of ops in one mix cycle.
	roundLen int
	// warm, per ruleset, is the op that tops up the prefilter tracker's
	// window after the warm-up round when the mix alone sweeps too rarely;
	// nil when the mix itself suffices.
	warm []op
	// flowSlots is how many flows the client keeps open (flows only).
	flowSlots int
	// windowed reports ops are short enough for windowed throughput.
	windowed bool
}

const (
	kib = 1 << 10
	mib = 1 << 20
	// trackerWindow is the prefilter effectiveness tracker's window in
	// sweeps; warm-up passes it before any counter is read.
	trackerWindow = 16
)

// sizes scales the workload shapes; the test runs a short mode.
type sizes struct {
	flowsPerRuleset int
	msgsPerRuleset  int
	msgMin, msgMax  int
	bulkScale       int // divides bulk buffer sizes and SegmentMinBytes
}

var fullSizes = sizes{flowsPerRuleset: 64, msgsPerRuleset: 128, msgMin: 256, msgMax: 64 * kib, bulkScale: 1}

var shortSizes = sizes{flowsPerRuleset: 12, msgsPerRuleset: 16, msgMin: 256, msgMax: 16 * kib, bulkScale: 16}

var workloadNames = []string{"flows", "requests", "bulk"}

// planter synthesizes benign background in a dataset's stream alphabet with
// samples of the dataset's own rules planted at seeded gaps.
type planter struct {
	alphabet []byte
	asts     []*rex.Node
}

func newPlanter(spec dataset.Spec) planter {
	p := planter{alphabet: spec.StreamAlphabet}
	for _, pat := range spec.Patterns() {
		ast, err := rex.Parse(pat)
		if err != nil {
			continue
		}
		anchored := false
		ast.Walk(func(n *rex.Node) {
			if n.Op == rex.OpAnchor {
				anchored = true
			}
		})
		// Anchored samples only match at a scan boundary; planting them
		// mid-input would be wasted bytes.
		if !anchored {
			p.asts = append(p.asts, ast)
		}
	}
	return p
}

// fill returns size bytes with one planted sample every ~every bytes
// (gaps uniform in [every/2, 3*every/2), the first at a uniform offset).
func (p planter) fill(r *rand.Rand, size, every int) []byte {
	out := make([]byte, 0, size+256)
	next := r.Intn(every)
	for len(out) < size {
		if len(out) >= next {
			out = append(out, dataset.SampleString(r, p.asts[r.Intn(len(p.asts))])...)
			next = len(out) + every/2 + r.Intn(every)
			continue
		}
		out = append(out, p.alphabet[r.Intn(len(p.alphabet))])
	}
	return out[:size]
}

// stratified returns n log-uniform sizes in [lo, hi): the midpoint of each
// of n equal log-width strata. The sizes do not depend on the seed, which
// only varies the bytes. The few largest messages set requests' op_p99_ms:
// with a seeded draw inside each stratum it spread 0.13 (interquartile
// range over median) across ten seeds, against 0.05 with the fixed grid.
// n must be a power of two: strata are visited with an odd
// stride near n/φ, so any run of consecutive units spans the whole size
// range and a cell walking the pool sees a balanced size mix.
func stratified(n, lo, hi int) []int {
	out := make([]int, n)
	span := math.Log(float64(hi) / float64(lo))
	stride := int(float64(n)*0.618) | 1
	for j := range out {
		i := j * stride % n
		u := (float64(i) + 0.5) / float64(n)
		out[j] = int(float64(lo) * math.Exp(u*span))
	}
	return out
}

// imixSize draws an IMIX-like packet size in [64, 1500]: small, medium and
// full-MTU classes weighted 7:4:1. Each class spans its whole range up to
// the next, so sizes are continuous: with the textbook point sizes the
// median op would fall in the gap between the small and medium clusters
// and read noise as movement.
func imixSize(r *rand.Rand) int {
	switch k := r.Intn(12); {
	case k < 7:
		return 64 + r.Intn(236)
	case k < 11:
		return 300 + r.Intn(700)
	default:
		return 1000 + r.Intn(501)
	}
}

// buildWorkload generates workload name's rulesets and inputs from seed.
// Every workload runs one closed-loop client. CountParallel and segmented
// calls already run GOMAXPROCS workers, and a single caller leaves the
// other cores to the runtime and the host: with a client per core, one
// busy neighbour thread cut flows' throughput by 44% on 2 vCPUs, against
// 3% for requests with one client.
func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	w := &workload{name: name}
	keep := func(mf int) imfant.Options { return imfant.Options{MergeFactor: mf, KeepOnMatch: true} }
	switch name {
	case "flows":
		w.rulesets = []rulesetSpec{{"TCP", keep(10)}, {"PEN", keep(10)}}
		w.flowSlots, w.windowed = 4, true
	case "requests":
		w.rulesets = []rulesetSpec{{"PRO", keep(0)}, {"RG1", imfant.Options{}}}
		w.windowed = true
	case "bulk":
		w.rulesets = []rulesetSpec{{"RG1", imfant.Options{}}, {"DS9", keep(0)}}
		for i := range w.rulesets {
			w.rulesets[i].opts.SegmentMinBytes = imfant.DefaultSegmentMinBytes / sz.bulkScale
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	planters := make([]planter, len(w.rulesets))
	for i, s := range w.rulesets {
		spec, err := dataset.ByAbbr(s.abbr)
		if err != nil {
			return nil, err
		}
		planters[i] = newPlanter(spec)
	}
	r := rand.New(rand.NewSource(seed))
	switch name {
	case "flows":
		w.genFlows(r, planters, sz)
	case "requests":
		w.genRequests(r, planters, sz)
	case "bulk":
		w.genBulk(r, planters, sz)
	}
	return w, nil
}

// genFlows builds flowsPerRuleset flows per ruleset: 2-32 packets each
// (stratified over the pool), IMIX sizes, about one plant per 8 KiB of flow
// bytes so plants may straddle packets.
func (w *workload) genFlows(r *rand.Rand, planters []planter, sz sizes) {
	for rs := range w.rulesets {
		w.cells = append(w.cells, op{rs: rs, api: apiStream})
		n := sz.flowsPerRuleset
		counts := make([]int, n)
		for i := range counts {
			counts[i] = 2 + (i*31+r.Intn(31))/n
		}
		r.Shuffle(n, func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
		for _, np := range counts {
			lens := make([]int, np)
			total := 0
			for i := range lens {
				lens[i] = imixSize(r)
				total += lens[i]
			}
			u := unit{rs: rs, data: planters[rs].fill(r, total, 8*kib)}
			off := 0
			for _, l := range lens {
				u.packets = append(u.packets, u.data[off:off+l])
				off += l
			}
			w.units = append(w.units, u)
		}
	}
	w.roundLen = 1
}

// genRequests builds msgsPerRuleset log-uniform messages per ruleset and a
// fixed weighted cell mix; each client walks the mix, and each cell walks
// its ruleset's messages with its own cursor.
func (w *workload) genRequests(r *rand.Rand, planters []planter, sz sizes) {
	base := make([]int, len(w.rulesets))
	for rs := range w.rulesets {
		base[rs] = len(w.units)
		for _, size := range stratified(sz.msgsPerRuleset, sz.msgMin, sz.msgMax) {
			w.units = append(w.units, unit{rs: rs, data: planters[rs].fill(r, size, 4*kib)})
		}
	}
	// Weights keep every cell under about half the seed's op time:
	// CountParallel on PRO runs ~10x slower than Count (ROADMAP defect (a)).
	mix := []struct {
		rs     int
		api    api
		weight int
	}{
		{0, apiCount, 3}, {1, apiCount, 2},
		{0, apiFindAll, 3}, {1, apiFindAll, 2},
		{0, apiCountParallel, 1}, {1, apiCountParallel, 1},
	}
	var cycle []op
	for _, m := range mix {
		w.cells = append(w.cells, op{rs: m.rs, api: m.api})
	}
	for k := 0; ; k++ {
		added := false
		for _, m := range mix {
			if k < m.weight {
				cycle = append(cycle, op{rs: m.rs, api: m.api})
				added = true
			}
		}
		if !added {
			break
		}
	}
	w.roundLen = len(cycle)
	// Every cell walks its ruleset's pool with its own cursor; the
	// schedule covers every message of every cell several times.
	n := sz.msgsPerRuleset
	next := map[op]int{}
	for len(w.sched) < 4*n*len(cycle) {
		for _, o := range cycle {
			o.unit = base[o.rs] + next[o]%n
			next[op{rs: o.rs, api: o.api}]++
			w.sched = append(w.sched, o)
		}
	}
}

// genBulk builds the bulk buffers and a two-cycle schedule binding each
// cell to a buffer. The DS9 cells run on 1 MiB buffers: the stitch replays
// a whole segment at any size, and at ~4 s per MiB a larger buffer would
// take over the run; the warm Scanner control reads the same buffers.
// Whether a carried match also forces the stitch's local recomputation
// depends on the planted bytes, so the DS9 cells walk a pool of four
// buffers over two cycles, and DS9 plants one sample per 16 KiB (RG1 one
// per 64 KiB): at one per 64 KiB about one buffer in five skips the
// recomputation, which would swing a whole run. Sizes carry a seeded
// jitter under 64 KiB.
func (w *workload) genBulk(r *rand.Rand, planters []planter, sz sizes) {
	jit := func(base int) int { return (base + r.Intn(64*kib)) / sz.bulkScale }
	every := []int{64 * kib, 16 * kib}
	sizes := []int{jit(1 * mib), jit(2 * mib)} // RG1: Scanner; CountParallel, FindAll
	for range 4 {
		sizes = append(sizes, jit(1*mib)) // DS9
	}
	for i, size := range sizes {
		rs := min(i/2, 1)
		w.units = append(w.units, unit{rs: rs, data: planters[rs].fill(r, size, every[rs]/sz.bulkScale)})
	}
	var sched []op
	for k := 0; k < 2; k++ {
		sched = append(sched,
			op{rs: 0, api: apiCountParallel, unit: 1},
			op{rs: 0, api: apiFindAll, unit: 1},
			op{rs: 0, api: apiScanner, unit: 0},
			op{rs: 1, api: apiScanner, unit: 2 + 2*k},
			op{rs: 1, api: apiCountParallel, unit: 2 + 2*k},
			op{rs: 1, api: apiFindAll, unit: 3 + 2*k},
		)
	}
	w.roundLen = len(sched) / 2
	for _, o := range sched[:w.roundLen] {
		w.cells = append(w.cells, op{rs: o.rs, api: o.api})
	}
	w.sched = sched
	// The mix sweeps each ruleset three times a cycle; top up the tracker
	// window with each ruleset's cheapest full-size sweeping call.
	w.warm = []op{{rs: 0, api: apiFindAll, unit: 0}, {rs: 1, api: apiScanner, unit: 2}}
}
