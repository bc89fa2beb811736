// Command perfbench is the repository's benchmark: three closed-loop
// workloads (flows, requests, bulk) over the public scan API, every op
// checked against a forced-engine oracle, printing end-to-end metrics
// (--trace 0) or per-layer metrics from a traced run (--trace 1). The last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
//
// Run it from the repository root with perfbench/run.sh, which builds this
// module into .bench_build:
//
//	bash perfbench/run.sh --workload flows --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	imfant "repro"
	"repro/internal/dataset"
)

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	sizes     sizes
	setupReps int
	corruptOp int64 // test hook, see env.corruptOp
}

type report struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// info is the run's provenance and mix breakdown, printed before the result.
type info struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Clients    int     `json:"clients"`
	Units      int     `json:"units"`
	Ops        int64   `json:"ops"`
	WallS      float64 `json:"wall_s"`
	// CellShare is each (ruleset, API) cell's share of op time; CellMBps
	// its own throughput over its op time.
	CellShare map[string]float64 `json:"cell_time_share"`
	CellMBps  map[string]float64 `json:"cell_mbps"`
	// OpMs is the op latency distribution behind op_p50_ms.
	OpMs map[string]float64 `json:"op_ms,omitempty"`
	// WindowsMBps is the measured phase's throughput per window.
	WindowsMBps []float64 `json:"windows_mbps,omitempty"`
	Note        string    `json:"note,omitempty"`
	// StepsS times the run's steps: setup reps, oracle, warm-up, measured.
	StepsS  map[string]float64 `json:"steps_s"`
	Failure string             `json:"failure,omitempty"`
	// Rulesets splits the traced phase's counter ratios by ruleset, where
	// the per-layer metrics pool them.
	Rulesets map[string]map[string]float64 `json:"rulesets,omitempty"`
	// envs are the untraced and traced ruleset sets, for the test's
	// output comparison.
	envs [2]*env
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: flows, requests or bulk")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.sizes = fullSizes
	cfg.setupReps = 5
	rep, inf, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]*info{"info": inf}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs disagree with the oracle:", inf.Failure)
		os.Exit(1)
	}
}

// compileSet compiles the workload's rulesets, with latency attribution
// when traced.
func compileSet(w *workload, traced bool) ([]*imfant.Ruleset, error) {
	out := make([]*imfant.Ruleset, len(w.rulesets))
	for i, s := range w.rulesets {
		spec, err := dataset.ByAbbr(s.abbr)
		if err != nil {
			return nil, err
		}
		opts := s.opts
		opts.Latency = traced
		rs, err := imfant.Compile(spec.Patterns(), opts)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", s.abbr, err)
		}
		out[i] = rs
	}
	return out, nil
}

// setup times set-up — Compile of every ruleset plus scanner creation —
// reps times, returning the median, the median pipeline split, and the
// last rep's rulesets and scanners for the run.
func setup(w *workload, reps int) (float64, pipelineTimes, []*imfant.Ruleset, []*imfant.Scanner, error) {
	var walls []float64
	var stage [6][]float64
	var sets []*imfant.Ruleset
	var scanners []*imfant.Scanner
	for r := 0; r < reps; r++ {
		sets, scanners = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		sets, err = compileSet(w, false)
		if err != nil {
			return 0, pipelineTimes{}, nil, nil, err
		}
		scanners = newScanners(w, sets)
		walls = append(walls, time.Since(t0).Seconds())
		var st [6]float64
		for _, rs := range sets {
			ct := rs.CompileTimes()
			st[0] += ms(ct.FrontEnd)
			st[1] += ms(ct.ASTToFSA)
			st[2] += ms(ct.SingleFSAOpt)
			st[3] += ms(ct.Merging)
			st[4] += ms(ct.ANMLGen)
		}
		st[5] = walls[r]*1e3 - (st[0] + st[1] + st[2] + st[3] + st[4])
		for k := range st {
			stage[k] = append(stage[k], st[k])
		}
	}
	pipe := pipelineTimes{frontEnd: median(stage[0]), astToFSA: median(stage[1]),
		singleOpt: median(stage[2]), merging: median(stage[3]), anmlGen: median(stage[4]),
		unattributed: median(stage[5])}
	for _, rs := range sets {
		pipe.states += float64(rs.States())
		pipe.transitions += float64(rs.Transitions())
	}
	return median(walls), pipe, sets, scanners, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// measure warms env up and runs one measured phase of d.
func measure(e *env, d time.Duration, lap func(string)) (p *phase, warmOps, warmBad int64, warmFail string) {
	warmOps, warmBad, warmFail = e.warmUp()
	lap("warm_up")
	latCap := 1 << 20
	if e.w.sched != nil {
		latCap = 1 << 14
	}
	p = e.runPhase(0, d, latCap, true)
	lap("measured")
	return p, warmOps, warmBad, warmFail
}

func run(cfg config) (*report, *info, error) {
	if cfg.seconds <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	nproc := runtime.GOMAXPROCS(0)
	w, err := buildWorkload(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, nil, err
	}
	inf := &info{Workload: w.name, Seed: cfg.seed, CPUs: runtime.NumCPU(), GOMAXPROCS: nproc,
		Go: runtime.Version(), Clients: 1, Units: len(w.units)}
	if nproc < 2 {
		inf.Note = "single CPU: CountParallel and segment numbers carry no multi-core claim"
	}
	inf.StepsS = map[string]float64{}
	step := time.Now()
	lap := func(name string) {
		inf.StepsS[name] += time.Since(step).Seconds()
		step = time.Now()
	}
	setupS, pipe, sets, scanners, err := setup(w, cfg.setupReps)
	if err != nil {
		return nil, nil, err
	}
	oracles, err := compileOracles(w)
	if err != nil {
		return nil, nil, err
	}
	if err := computeOracle(w, oracles); err != nil {
		return nil, nil, err
	}
	oracles = nil
	lap("setup_and_oracle")

	rep := &report{Metrics: metrics{}}
	tally := func(p *phase, wOps, wBad int64, wFail string) {
		rep.Attempted += p.ops + wOps
		rep.Failed += p.bad + wBad
		for _, f := range []string{wFail, p.failure} {
			if inf.Failure == "" && f != "" {
				inf.Failure = f
			}
		}
	}

	e := newEnv(w, sets, scanners, nproc, false)
	e.corruptOp = cfg.corruptOp
	// A traced run splits --seconds between its untraced and traced phases.
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	p, wOps, wBad, wFail := measure(e, d, lap)
	tally(p, wOps, wBad, wFail)
	inf.Ops, inf.WallS = p.ops, p.wall.Seconds()
	for _, b := range p.windows {
		inf.WindowsMBps = append(inf.WindowsMBps, b/1e6)
	}
	inf.CellShare, inf.CellMBps = map[string]float64{}, map[string]float64{}
	var opNS int64
	for _, ns := range p.cellNS {
		opNS += ns
	}
	for i, cell := range w.cells {
		name := w.rulesets[cell.rs].abbr + "/" + cell.api.String()
		inf.CellShare[name] = ratio(float64(p.cellNS[i]), float64(opNS))
		inf.CellMBps[name] = ratio(float64(p.cellBytes[i])*1e3, float64(p.cellNS[i]))
	}
	inf.envs[0] = e

	if !cfg.trace {
		endToEnd(rep.Metrics, p, setupS)
		inf.OpMs = map[string]float64{}
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			inf.OpMs[fmt.Sprintf("p%g", q*100)] = float64(percentile(p.lat, q)) / 1e6
		}
		// Heap after the run: drop the op records, keep rulesets, scanners
		// and inputs alive, and force a GC.
		p.lat = nil
		runtime.GC()
		var msx runtime.MemStats
		runtime.ReadMemStats(&msx)
		runtime.KeepAlive(e)
		rep.Metrics.set("heap_live_mib", float64(msx.HeapAlloc)/mib, "MiB")
	} else {
		tsets, err := compileSet(w, true)
		if err != nil {
			return nil, nil, err
		}
		te := newEnv(w, tsets, newScanners(w, tsets), nproc, true)
		tp, tOps, tBad, tFail := measure(te, d, lap)
		tally(tp, tOps, tBad, tFail)
		inf.envs[1] = te
		perLayer(rep.Metrics, tp, p, pipe, ratio(float64(rep.Failed), float64(rep.Attempted)))
		inf.Rulesets = map[string]map[string]float64{}
		for i, s := range w.rulesets {
			inf.Rulesets[s.abbr] = rulesetRatios(delta(tp.before[i:i+1], tp.after[i:i+1]))
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, inf, nil
}
