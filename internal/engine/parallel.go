package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/faultpoint"
)

// WorkerPanicError reports a panic recovered inside a RunParallel worker:
// the automaton being executed, the recovered value, and the worker's stack
// at the point of the panic. The panic is contained to the failing
// automaton — the other workers finish their automata normally.
type WorkerPanicError struct {
	// Automaton is the index of the program whose execution panicked.
	Automaton int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack trace at the panic.
	Stack []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("engine: worker panic on automaton %d: %v", e.Automaton, e.Value)
}

// RunParallel executes a pool of programs over the same input using the
// multi-threaded scheme of §VI-C2: a fixed pool of `threads` workers, each
// taking one automaton at a time from the remaining ones until all are
// executed. The returned results are indexed like programs; the caller
// measures wall-clock latency around this call, which corresponds to the
// paper's "latency to compute all the REs of a benchmark".
//
// Fault containment is Parallel's: a panic inside a worker (e.g. from a
// user-supplied OnMatch callback) surfaces as a *WorkerPanicError, the
// automaton's Result slot keeps the partial result accumulated before the
// panic — every match already delivered through OnMatch and every byte of a
// completed checkpoint block stays visible, so aggregate telemetry remains
// consistent with what callers observed — and the remaining automata still
// execute. Checkpoint cancellations (Config.Checkpoint) surface the same
// way, one error per cancelled automaton. All failures are joined into the
// returned error.
func RunParallel(programs []*Program, input []byte, threads int, cfg Config) ([]Result, error) {
	if len(programs) == 0 {
		return nil, nil
	}
	runners := make([]*Runner, len(programs))
	err := Parallel(len(programs), threads, cfg.Faults, cfg.Checkpoint, func(i int, check func() error) error {
		c := cfg
		c.Checkpoint = check
		if cfg.ProfileFor != nil {
			c.Profile = cfg.ProfileFor(i)
		}
		runners[i] = NewRunner(programs[i])
		runners[i].Run(input, c)
		return runners[i].Err()
	})
	results := make([]Result, len(programs))
	for i, r := range runners {
		if r != nil {
			results[i] = r.Progress()
		}
	}
	return results, err
}

// Parallel is the engine-agnostic worker pool behind the §VI-C2 scheme: a
// fixed pool of `threads` workers, each taking the next of the n jobs from
// a lock-free queue until none remain. job(i, check) runs job i and returns
// its failure; check is the Checkpoint it must poll (the caller's, armed
// with the WorkerPanic fault site when faults is non-nil). Every job runs
// under a pprof label carrying its index, so CPU profiles of a parallel
// scan attribute samples to the automaton that consumed them.
//
// A panic inside a job is recovered and converted into a *WorkerPanicError
// instead of aborting the process; the other jobs still run. Whatever
// partial state the job built before the panic is the caller's to roll
// forward. All failures are joined into the returned error.
//
// threads ≤ 0 selects min(n, GOMAXPROCS) workers: one worker per job,
// capped at the scheduler's parallelism — a 10k-automaton ruleset must not
// launch 10k goroutines for a CPU-bound scan.
func Parallel(n, threads int, faults *faultpoint.Injector, check func() error,
	job func(i int, check func() error) error) error {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > n {
		threads = n
	}
	errs := make([]error, n)
	if threads <= 1 {
		for i := range errs {
			errs[i] = runJob(i, faults, check, job)
		}
		return errors.Join(errs...)
	}
	// Lock-free work queue: a single atomic counter hands out job indices,
	// so workers never contend on a mutex between executions.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runJob(i, faults, check, job)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runJob executes job i with panic containment under its pprof label. With
// a fault injector armed, the WorkerPanic site fires once at the job's
// start and again at every checkpoint poll, so a panic scheduled past the
// first hit fires inside the traversal with partial state to salvage.
func runJob(i int, faults *faultpoint.Injector, check func() error,
	job func(i int, check func() error) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &WorkerPanicError{Automaton: i, Value: v, Stack: debug.Stack()}
		}
	}()
	if faults != nil {
		if faults.Hit(faultpoint.WorkerPanic) {
			panic("faultpoint: injected worker panic")
		}
		inner := check
		check = func() error {
			if faults.Hit(faultpoint.WorkerPanic) {
				panic("faultpoint: injected worker panic (mid-scan)")
			}
			if inner != nil {
				return inner()
			}
			return nil
		}
	}
	pprof.Do(context.Background(), pprof.Labels("mfsa_automaton", strconv.Itoa(i)), func(context.Context) {
		err = job(i, check)
	})
	return err
}

// TotalMatches sums the match counts of a result set.
func TotalMatches(results []Result) int64 {
	var t int64
	for _, r := range results {
		t += r.Matches
	}
	return t
}
