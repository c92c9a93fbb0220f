// Package parallel provides the bounded worker pool behind Coconut's
// parallel query engine. Every search path that fans out over independent
// sub-scans — CLSM runs, stream time-partitions, CTree leaf ranges, external
// sort buffers — schedules its work through a Pool, so the degree of
// concurrency is a single knob (surfaced as coconut.Options.Parallelism and
// the server's build option) rather than an emergent property of each call
// site.
//
// # Determinism
//
// The pool makes no ordering promises: tasks run on whichever worker pulls
// them first. Callers that must produce deterministic answers therefore keep
// per-worker state (a page buffer and a result collector per worker slot)
// and combine the per-worker states with an order-independent merge — see
// index.Collector, whose contents are a pure function of the candidate set,
// not of insertion order. That division of labor is what lets the engine
// guarantee that parallel search returns byte-identical results to the
// serial path: parallelism changes wall-clock time, never answers.
//
// # Sizing
//
// A Pool with workers <= 0 sizes itself to runtime.GOMAXPROCS(0), the
// number of OS threads Go will actually run concurrently; asking for more
// workers than that only adds scheduling overhead for CPU-bound probing.
// A Pool of one worker runs every task inline on the calling goroutine,
// spawning nothing — so the serial path stays exactly as cheap as it was
// before the engine learned to fan out.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a Parallelism knob value to a concrete worker count:
// values <= 0 mean "one worker per available CPU" (GOMAXPROCS).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Pool is a bounded worker pool. The zero value is not ready for use;
// create pools with New. A nil *Pool is the serial pool: one worker, every
// task inline. A Pool is immutable and safe for concurrent use by any number
// of goroutines; it holds no goroutines of its own between calls.
type Pool struct {
	workers int
}

// New creates a pool with the given worker bound (<= 0 selects GOMAXPROCS).
func New(workers int) *Pool {
	return &Pool{workers: Resolve(workers)}
}

// Workers returns the pool's worker bound.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// WorkersFor returns how many workers a batch of n tasks will actually use:
// min(Workers, n), and never less than 1.
func (p *Pool) WorkersFor(n int) int {
	w := p.Workers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(worker, i) for every i in [0, n), distributing tasks
// dynamically over up to Workers goroutines. The worker argument is a dense
// slot index in [0, WorkersFor(n)): a task may run on any slot, but no two
// tasks run on the same slot at the same time, so callers can give each slot
// private scratch state (page buffers, collectors) without locking.
//
// With one worker the tasks run inline on the calling goroutine, in order.
// All tasks are attempted even if one fails; the error reported is the one
// from the lowest task index, which keeps error reporting deterministic
// under concurrency.
func (p *Pool) ForEach(n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.WorkersFor(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for worker := 0; worker < w; worker++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(worker, i)
			}
		}(worker)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
