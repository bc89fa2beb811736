package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	imfant "repro"
	"repro/internal/dataset"
)

// digest is an order-independent fingerprint of a match-event multiset:
// the event count plus the wrapping sum of a 64-bit mix of each
// (rule, end) pair. Folding is allocation-free, so the measured loop can
// check every op.
type digest struct {
	n int64
	h uint64
}

func (d *digest) add(rule, end int) {
	x := uint64(rule)<<40 ^ uint64(end)
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	d.n++
	d.h += x
}

func digestOf(ms []imfant.Match) digest {
	var d digest
	for _, m := range ms {
		d.add(m.Rule, m.End)
	}
	return d
}

// compileOracles compiles each ruleset's oracle configuration.
func compileOracles(w *workload) ([]*imfant.Ruleset, error) {
	out := make([]*imfant.Ruleset, len(w.rulesets))
	for i, s := range w.rulesets {
		spec, err := dataset.ByAbbr(s.abbr)
		if err != nil {
			return nil, err
		}
		rs, err := imfant.Compile(spec.Patterns(), s.oracleOpts())
		if err != nil {
			return nil, fmt.Errorf("compile oracle %s: %w", s.abbr, err)
		}
		out[i] = rs
	}
	return out, nil
}

// computeOracle fills every unit's reference result: the forced-engine
// scan of the unit's whole bytes. A flow is one scan of its concatenated
// packets, never a sum of per-packet scans — ^ and $ anchor to each scan's
// boundaries and matches straddle packets.
func computeOracle(w *workload, oracles []*imfant.Ruleset) error {
	// One goroutine per ruleset: set-up time, not measured.
	errs := make([]error, len(oracles))
	var wg sync.WaitGroup
	for rs, o := range oracles {
		wg.Add(1)
		go func(rs int, sc *imfant.Scanner) {
			defer wg.Done()
			for i := range w.units {
				u := &w.units[i]
				if u.rs != rs {
					continue
				}
				ms, err := sc.FindAllContext(context.Background(), u.data)
				if err != nil {
					errs[rs] = fmt.Errorf("oracle scan of unit %d: %w", i, err)
					return
				}
				u.want = digestOf(ms)
			}
		}(rs, o.NewScanner())
	}
	wg.Wait()
	return errors.Join(errs...)
}
