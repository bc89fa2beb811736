package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	imfant "repro"
	"repro/internal/dataset"
)

// shortConfig is the seconds-long short mode of workload: small input
// pools, bulk buffers and SegmentMinBytes scaled down together so the
// segment path still runs, one set-up rep.
func shortConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, sizes: shortSizes, setupReps: 1}
}

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkNames(t *testing.T, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s printed but not declared in BENCHMARK.json", name)
		}
	}
}

func TestShortWorkloads(t *testing.T) {
	e2e, layer := contract(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			rep, _, err := run(shortConfig(wl, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
			}
			checkNames(t, rep.Metrics, e2e)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			rep, inf, err := run(shortConfig(wl, true))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d (%s)", rep.Correct, rep.Failed, inf.Failure)
			}
			checkNames(t, rep.Metrics, layer)

			// Layer shares plus the unattributed remainder partition op time.
			sum := 0.0
			for _, name := range layerShareNames() {
				v := rep.Metrics[name].Value
				if v < -1e-9 {
					t.Errorf("share %s = %v < 0", name, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("layer shares sum to %v, want 1", sum)
			}

			// The traced run reproduces the untraced run's outputs.
			u, uok := inf.envs[0].outputs()
			tr, tok := inf.envs[1].outputs()
			common := 0
			for i := range u {
				if uok[i] && tok[i] {
					common++
					if u[i] != tr[i] {
						t.Errorf("unit/api slot %d: untraced %+v, traced %+v", i, u[i], tr[i])
					}
				}
			}
			if common == 0 {
				t.Error("traced and untraced runs share no observed output")
			}
		})
	}
}

func TestCorruptedResultFails(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			cfg := shortConfig(wl, false)
			cfg.corruptOp = 3
			rep, inf, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed != 1 || inf.Failure == "" {
				t.Fatalf("corrupted run: correct=%v failed=%d failure=%q, want one failure", rep.Correct, rep.Failed, inf.Failure)
			}
		})
	}
}

// TestOracleEnginesAgree checks the oracle against the other forced engine
// on every short-mode unit: the two engines share no execution path, so a
// wrong reference would have to be wrong the same way twice.
func TestOracleEnginesAgree(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			w, err := buildWorkload(wl, 7, shortSizes)
			if err != nil {
				t.Fatal(err)
			}
			oracles, err := compileOracles(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := computeOracle(w, oracles); err != nil {
				t.Fatal(err)
			}
			others := make([]*imfant.Scanner, len(w.rulesets))
			for i, s := range w.rulesets {
				opts := s.oracleOpts()
				if opts.Engine == imfant.EngineIMFAnt {
					opts.Engine = imfant.EngineLazyDFA
				} else {
					opts.Engine = imfant.EngineIMFAnt
				}
				spec, err := dataset.ByAbbr(s.abbr)
				if err != nil {
					t.Fatal(err)
				}
				others[i] = imfant.MustCompile(spec.Patterns(), opts).NewScanner()
			}
			matched := 0
			for i, u := range w.units {
				ms, err := others[u.rs].FindAllContext(context.Background(), u.data)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestOf(ms); got != u.want {
					t.Errorf("unit %d: engines disagree: %+v vs %+v", i, got, u.want)
				}
				if u.want.n > 0 {
					matched++
				}
			}
			if matched == 0 {
				t.Error("no unit has a match: the plants do not exercise the oracle")
			}
		})
	}
}

func TestDigestIsOrderFreeMultiset(t *testing.T) {
	a := []imfant.Match{{Rule: 1, End: 5}, {Rule: 2, End: 5}, {Rule: 1, End: 9}}
	b := []imfant.Match{a[2], a[0], a[1]}
	if digestOf(a) != digestOf(b) {
		t.Error("digest depends on event order")
	}
	for _, c := range [][]imfant.Match{a[:2], append(a[:3:3], a[0]), {{Rule: 1, End: 5}, {Rule: 2, End: 5}, {Rule: 1, End: 8}}} {
		if digestOf(c) == digestOf(a) {
			t.Errorf("digest misses a changed multiset: %v", c)
		}
	}
}

func TestStratifiedSpansRangeInEveryWindow(t *testing.T) {
	sizes := stratified(128, 256, 64<<10)
	for start := 0; start+16 <= len(sizes); start += 16 {
		win := append([]int(nil), sizes[start:start+16]...)
		sort.Ints(win)
		if win[0] > 1024 || win[15] < 16<<10 {
			t.Errorf("window at %d covers only [%d, %d]", start, win[0], win[15])
		}
	}
}
