package index

import "repro/internal/parallel"

// FanCollector is what a fan-out needs from a result collector: pooled
// per-worker clones that merge back order-independently, and the predicate
// deciding that a whole probe unit, lower-bounded by lbSq, cannot
// contribute. *Collector and *RangeCollector are the two implementations.
type FanCollector[C any] interface {
	PooledClone() C
	MergeRelease(C)
	SkipSq(lbSq float64) bool
	// tightens reports whether SkipSq's bound moves as results arrive
	// (k-NN) or is fixed for the whole query (range).
	tightens() bool
}

// FanOut is the one fan-out/merge scaffold every parallel search path uses:
// n independent scan tasks execute over the pool, collecting into col. With
// a single usable worker the tasks run serially, in order, directly into
// col as worker slot 0 — the exact serial path, sharing col's evolving
// pruning bound across tasks. Otherwise each worker slot scans into a
// pooled clone of col, and the per-slot collectors merge back into col.
// Because both Collector and RangeCollector are order-independent, the two
// routes return identical results; the parallel one merely evaluates a few
// extra candidates whose distances lose at the merge.
//
// scan receives its worker slot so callers can hand each slot private state
// (a Scratch from SearchCtx.Scratches, a SearchCtx per shard worker); slots
// are dense in [0, pool.WorkersFor(n)), and that state must be materialized
// on the coordinating goroutine before the call.
func FanOut[C FanCollector[C]](pool *parallel.Pool, n int, col C, scan func(i, worker int, col C) error) error {
	w := pool.WorkersFor(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := scan(i, 0, col); err != nil {
				return err
			}
		}
		return nil
	}
	cols := make([]C, w)
	for i := range cols {
		cols[i] = col.PooledClone()
	}
	err := pool.ForEach(n, func(worker, i int) error {
		return scan(i, worker, cols[worker])
	})
	// Merge even on error: the caller discards col then, but merging is
	// also what releases the pooled clones back to their pool.
	for _, c := range cols {
		col.MergeRelease(c)
	}
	return err
}
