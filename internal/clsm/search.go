package clsm

import (
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/run"
)

// Search in a CLSM fans out over the on-disk runs: every run is an
// independent sorted file, so run probes and run scans execute concurrently
// on the index's worker pool (Options.Parallelism). Each worker owns a
// scratch state and a deterministic top-k collector; merged per-worker
// results are identical to the serial scan's because the collector's
// contents are a pure function of the candidate set (see index.Collector).
// Probes run through the squared-space pruning pipeline (index.SearchCtx):
// per-query MINDIST tables, squared bounds, and early-abandoning
// verification straight from the page bytes, with all per-query state drawn
// from a shared pool.
//
// Every search pins one view — an immutable manifest plus a buffer
// snapshot — for its whole lifetime, so any number of searches may overlap
// with inserts, flushes, and background merges: a concurrent flush or merge
// swaps in a new view without disturbing pinned ones, and the collectors'
// order-independence makes the answer a pure function of the entry set,
// which every view of the same data shares.

// ApproxSearch answers an approximate k-NN query by probing each component:
// the in-memory buffer is scanned outright, and in every on-disk run a
// binary search over the run's resident page-first keys locates the query
// key's neighborhood, of which one page is read and examined. Cost grows with the number of runs — the read side
// of the LSM trade-off; concurrency over runs is what claws the latency
// back.
func (l *LSM) ApproxSearch(q index.Query, k int) ([]index.Result, error) {
	return index.Search(q, l.opts.Config, index.NewCollector(k), func(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
		return l.approx(nil, q, col, ctx, l.pool)
	})
}

// ApproxInto is ApproxSearch's core (index.Index).
func (l *LSM) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return l.approx(nil, q, col, ctx, index.SerialPool)
}

// approx is the approximate search against view v — the exact search's,
// which shares one view (and one context) across both phases — or, given
// nil, against a view of its own. Run probes fan out on the given pool.
func (l *LSM) approx(v *view, q index.Query, col *index.Collector, ctx *index.SearchCtx, pool *parallel.Pool) error {
	if v == nil {
		v = l.pinView()
		defer l.unpinView(v)
	}
	defer ctx.Trace.Start("approx").End()
	if err := index.ScanBuffer(v.buf, q, l.opts.Raw, col, ctx.Scratch0()); err != nil {
		return err
	}
	return forEachRun(l, v, q, ctx, col, pool, (*run.Store).Probe)
}

// ExactSearch returns the true k nearest neighbors: the approximate phase
// seeds the best-so-far bound, then every run is scanned with per-entry
// squared lower-bound pruning, runs concurrently, each leaving the stretches
// of pages its envelopes rule out unread (run.Store.Scan). The buffer was
// already fully evaluated by the approximate phase (deduplication by ID
// makes re-offering it a no-op), so only the runs need the full pass.
func (l *LSM) ExactSearch(q index.Query, k int) ([]index.Result, error) {
	return index.Search(q, l.opts.Config, index.NewCollector(k), func(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
		return l.exact(q, col, ctx, l.pool)
	})
}

// ExactInto is ExactSearch's core (index.Index): serial, the caller owning
// the parallelism at a coarser grain.
func (l *LSM) ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return l.exact(q, col, ctx, index.SerialPool)
}

// exact is the exact search: approximate phase to seed the bound, then the
// full pruned run scans, both against one pinned view over the given pool.
func (l *LSM) exact(q index.Query, col *index.Collector, ctx *index.SearchCtx, pool *parallel.Pool) error {
	v := l.pinView()
	defer l.unpinView(v)
	if err := l.approx(v, q, col, ctx, pool); err != nil {
		return err
	}
	defer ctx.Trace.Start("scan").End()
	return forEachRun(l, v, q, ctx, col, pool, (*run.Store).ScanKNN)
}

// forEachRun applies scan (the run store's Probe, ScanKNN or ScanRange, as a
// method expression) to every run of view v through the planned-probe
// executor (index.ProbeUnits), each worker slot of pool with its own scratch
// of ctx. A run is bounded by its synopsis's envelope MINDIST, or by +Inf
// when its time range misses the query window. The planner that skips runs
// here is the one the store's scans skip pages by: skipped runs are counted
// as "run" units, skipped pages inside a scanned run as "page" units.
func forEachRun[C index.FanCollector[C]](l *LSM, v *view, q index.Query, ctx *index.SearchCtx, col C, pool *parallel.Pool, scan func(*run.Store, run.Run, index.Query, C, *index.Scratch) error) error {
	runs := allRuns(v.man)
	scs := ctx.Scratches(pool.WorkersFor(len(runs)))
	return index.ProbeUnits(index.ProbePlan{
		Planner: l.store.Planner, Pool: pool, Trace: ctx.Trace, Kind: "run", Units: ctx.PlanUnits(len(runs)),
	}, col, func(i int) float64 {
		return ctx.P.UnitBoundSq(q, runs[i].Syn)
	}, func(i, w int, col C) error {
		return scan(&l.store, runs[i], q, col, scs[w])
	})
}

// RangeSearch returns every indexed series within Euclidean distance eps
// of the query, scanning the buffer and every run with squared epsilon
// pruning. Runs scan concurrently; the epsilon bound is static, so
// per-worker range collectors merge into exactly the serial answer.
func (l *LSM) RangeSearch(q index.Query, eps float64) ([]index.Result, error) {
	return index.Search(q, l.opts.Config, index.NewRangeCollector(eps), func(q index.Query, col *index.RangeCollector, ctx *index.SearchCtx) error {
		return l.rangeScan(q, col, ctx, l.pool)
	})
}

// RangeInto is RangeSearch's core (index.Index).
func (l *LSM) RangeInto(q index.Query, col *index.RangeCollector, ctx *index.SearchCtx) error {
	return l.rangeScan(q, col, ctx, index.SerialPool)
}

// rangeScan is the range search against one pinned view, runs fanned out on
// the given pool.
func (l *LSM) rangeScan(q index.Query, col *index.RangeCollector, ctx *index.SearchCtx, pool *parallel.Pool) error {
	v := l.pinView()
	defer l.unpinView(v)
	if err := index.EvalPageRange(q, index.EntryPage(v.buf), l.opts.Raw, col, ctx.Scratch0()); err != nil {
		return err
	}
	defer ctx.Trace.Start("scan").End()
	return forEachRun(l, v, q, ctx, col, pool, (*run.Store).ScanRange)
}

var (
	_ index.Index    = (*LSM)(nil)
	_ index.Inserter = (*LSM)(nil)
)
