package clsm

import (
	"math"

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
	ctx := index.AcquireCtx(q, l.opts.Config)
	defer ctx.Release()
	v := l.pinView()
	defer l.unpinView(v)
	col := index.NewCollector(k)
	sp := ctx.Trace.Start("approx")
	if err := l.approxInto(v, q, col, ctx, l.pool); err != nil {
		return nil, err
	}
	sp.End()
	return col.Results(), nil
}

// approxInto runs the approximate phase into col with an already-acquired
// context, so ExactSearch shares one context (and one table fill) across
// both phases.
func (l *LSM) approxInto(v *view, q index.Query, col *index.Collector, ctx *index.SearchCtx, pool *parallel.Pool) error {
	if err := l.store.ScanBuffer(v.buf, q, col, ctx.Scratch0()); err != nil {
		return err
	}
	runs := allRuns(v.man)
	scs := ctx.Scratches(pool.WorkersFor(len(runs)))
	return forEachRun(l, runs, q, ctx, col, pool, func(i, w int, col *index.Collector) error {
		return l.store.Probe(runs[i], q, col, scs[w])
	})
}

// ExactSearch returns the true k nearest neighbors: the approximate phase
// seeds the best-so-far bound, then every run is scanned with per-entry
// squared lower-bound pruning, runs concurrently. The buffer was already
// fully evaluated by the approximate phase (deduplication by ID makes
// re-offering it a no-op), so only the runs need the full pass.
func (l *LSM) ExactSearch(q index.Query, k int) ([]index.Result, error) {
	ctx := index.AcquireCtx(q, l.opts.Config)
	defer ctx.Release()
	return l.exactCtx(q, k, ctx, l.pool)
}

// ExactSearchCtx answers an exact k-NN query with a caller-managed context
// (already filled for q — see index.SearchCtx.Refill) and a serial scan.
// Batch executors and sharded probes use it to own the parallelism at a
// coarser grain: across queries, or across shards, instead of within one
// scan. Results are byte-identical to ExactSearch.
func (l *LSM) ExactSearchCtx(q index.Query, k int, ctx *index.SearchCtx) ([]index.Result, error) {
	return l.exactCtx(q, k, ctx, index.SerialPool)
}

// ExactSearchColl is ExactSearchCtx returning the collector itself, exact
// squared sums intact, for the sharded merge (see index.CollSearcher).
func (l *LSM) ExactSearchColl(q index.Query, k int, ctx *index.SearchCtx) (*index.Collector, error) {
	return l.exactColl(q, k, ctx, index.SerialPool)
}

// ExactSearchBatch answers one exact k-NN query per element of qs, pipelined
// over the LSM's worker pool: each worker slot reuses one search context
// (tables refilled per query, scratch buffers persistent) for every query it
// executes. out[i] is byte-identical to ExactSearch(qs[i], k).
func (l *LSM) ExactSearchBatch(qs []index.Query, k int) ([][]index.Result, error) {
	return index.Batch(l.pool, l.opts.Config, qs, func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error) {
		return l.ExactSearchCtx(q, k, ctx)
	})
}

// exactCtx is the exact-search core: approximate phase to seed the bound,
// then the full pruned run scans, both over the given pool.
func (l *LSM) exactCtx(q index.Query, k int, ctx *index.SearchCtx, pool *parallel.Pool) ([]index.Result, error) {
	col, err := l.exactColl(q, k, ctx, pool)
	if err != nil {
		return nil, err
	}
	return col.Results(), nil
}

// exactColl runs the exact search and returns the filled collector.
func (l *LSM) exactColl(q index.Query, k int, ctx *index.SearchCtx, pool *parallel.Pool) (*index.Collector, error) {
	v := l.pinView()
	defer l.unpinView(v)
	col := index.NewCollector(k)
	sp := ctx.Trace.Start("approx")
	if err := l.approxInto(v, q, col, ctx, pool); err != nil {
		return nil, err
	}
	sp.End()
	sp = ctx.Trace.Start("scan")
	runs := allRuns(v.man)
	scs := ctx.Scratches(pool.WorkersFor(len(runs)))
	err := forEachRun(l, runs, q, ctx, col, pool, func(i, w int, col *index.Collector) error {
		return l.store.ScanKNN(runs[i], q, col, scs[w])
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return col, nil
}

// forEachRun probes every run through the planned-probe executor
// (index.ProbeUnits). A run is bounded by its synopsis's envelope MINDIST,
// or by +Inf when its time range misses the query window; probe(i, worker,
// col) searches runs[i] as worker slot worker of pool.
func forEachRun[C index.FanCollector[C]](l *LSM, runs []run.Run, q index.Query, ctx *index.SearchCtx, col C, pool *parallel.Pool, probe func(i, worker int, col C) error) error {
	return index.ProbeUnits(index.ProbePlan{
		Planner: l.opts.Planner, Pool: pool, Trace: ctx.Trace, Kind: "run", Units: ctx.PlanUnits(len(runs)),
	}, col, func(i int) float64 {
		syn := runs[i].Syn
		if q.Windowed && syn != nil && !syn.IntersectsWindow(q.MinTS, q.MaxTS) {
			return math.Inf(1)
		}
		return ctx.P.SynopsisBoundSq(syn)
	}, probe)
}

// RangeSearch returns every indexed series within Euclidean distance eps
// of the query, scanning the buffer and every run with squared epsilon
// pruning. Runs scan concurrently; the epsilon bound is static, so
// per-worker range collectors merge into exactly the serial answer.
func (l *LSM) RangeSearch(q index.Query, eps float64) ([]index.Result, error) {
	ctx := index.AcquireCtx(q, l.opts.Config)
	defer ctx.Release()
	v := l.pinView()
	defer l.unpinView(v)
	col := index.NewRangeCollector(eps)
	if err := index.EvalPageRange(q, index.EntryPage(v.buf), l.opts.Raw, col, ctx.Scratch0()); err != nil {
		return nil, err
	}
	runs := allRuns(v.man)
	scs := ctx.Scratches(l.pool.WorkersFor(len(runs)))
	sp := ctx.Trace.Start("scan")
	err := forEachRun(l, runs, q, ctx, col, l.pool, func(i, w int, col *index.RangeCollector) error {
		return l.store.ScanRange(runs[i], q, col, scs[w])
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return col.Results(), nil
}

var (
	_ index.Index         = (*LSM)(nil)
	_ index.Inserter      = (*LSM)(nil)
	_ index.RangeSearcher = (*LSM)(nil)
	_ index.CtxSearcher   = (*LSM)(nil)
	_ index.CollSearcher  = (*LSM)(nil)
	_ index.BatchSearcher = (*LSM)(nil)
)
