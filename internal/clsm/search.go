package clsm

import (
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/run"
)

// Search in a CLSM fans out over the on-disk runs: every run is an
// independent sorted file, so run probes and run scans execute concurrently
// on the worker pool the search context carries. Each worker owns a scratch
// state and a deterministic top-k collector; merged per-worker results are
// identical to the serial scan's because the collector's contents are a pure
// function of the candidate set (see index.Collector). Probes run through the
// squared-space pruning pipeline (index.SearchCtx): per-query MINDIST tables,
// squared bounds, and early-abandoning verification straight from the page
// bytes, with all per-query state drawn from a shared pool.
//
// Every search pins one view — an immutable manifest plus a buffer
// snapshot — for its whole lifetime, so any number of searches may overlap
// with inserts, flushes, and background merges: a concurrent flush or merge
// swaps in a new view without disturbing pinned ones, and the collectors'
// order-independence makes the answer a pure function of the entry set,
// which every view of the same data shares.

// ApproxInto is the approximate search (index.Index): the in-memory buffer
// is evaluated outright, as one page of entries bounded from its symbol
// column (index.Buffer.Page, index.EvalPage), and in
// every on-disk run a binary search over the run's resident page-first keys
// locates the query key's neighborhood, of which one page is read and
// examined. Cost grows with the number of runs —
// the read side of the LSM trade-off; concurrency over runs is what claws
// the latency back.
func (l *LSM) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return l.approx(nil, q, col, ctx)
}

// approx is the approximate search against view v — the exact search's,
// which shares one view (and one context) across both phases — or, given
// nil, against a view of its own.
func (l *LSM) approx(v *view, q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	if v == nil {
		v = l.pinView()
		defer l.unpinView(v)
	}
	defer ctx.Trace.Start("approx").End()
	pg := v.buf.Page(&q)
	if _, err := index.EvalPage(&q, &pg, l.opts.Raw, col, ctx.Scratch0()); err != nil {
		return err
	}
	return forEachRun(l, v, q, ctx, col, (*run.Store).Probe)
}

// ExactInto is the exact search (index.Index): the approximate phase seeds
// the best-so-far bound, then every run is scanned with per-entry squared
// lower-bound pruning, each leaving the stretches of pages its envelopes
// rule out unread (run.Store.Scan), both phases against one pinned view. The
// buffer was already fully evaluated by the approximate phase (deduplication
// by ID makes re-offering it a no-op), so only the runs need the full pass.
func (l *LSM) ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	v := l.pinView()
	defer l.unpinView(v)
	if err := l.approx(v, q, col, ctx); err != nil {
		return err
	}
	defer ctx.Trace.Start("scan").End()
	return forEachRun(l, v, q, ctx, col, (*run.Store).ScanRun)
}

// forEachRun applies scan (the run store's Probe or ScanRun, as a
// method expression) to every run of view v through the planned-probe
// executor (index.ProbeUnits), each worker slot of ctx's pool with its own
// scratch. A run is bounded by its synopsis's envelope MINDIST, or by +Inf
// when its time range misses the query window. The context's planner skips
// runs here and pages in the store's scans: skipped runs are counted as
// "run" units, skipped pages inside a scanned run as "page" units.
func forEachRun(l *LSM, v *view, q index.Query, ctx *index.SearchCtx, col *index.Collector, scan func(*run.Store, run.Run, index.Query, *index.Collector, *index.Scratch) error) error {
	runs := allRuns(v.man)
	scs := ctx.Scratches(ctx.Pool.WorkersFor(len(runs)))
	return index.ProbeUnits(ctx, obs.RunUnit, ctx.PlanUnits(len(runs)), col, func(i int) float64 {
		return ctx.P.UnitBoundSq(q, runs[i].Syn)
	}, func(i, w int, col *index.Collector) error {
		return scan(&l.store, runs[i], q, col, scs[w])
	})
}

// RangeInto is the range search (index.Index): the buffer and every run of
// one pinned view scanned with pruning against the range collector's fixed
// limit, so per-worker collectors merge into exactly the serial answer.
func (l *LSM) RangeInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	v := l.pinView()
	defer l.unpinView(v)
	pg := v.buf.Page(&q)
	if _, err := index.EvalPage(&q, &pg, l.opts.Raw, col, ctx.Scratch0()); err != nil {
		return err
	}
	defer ctx.Trace.Start("scan").End()
	return forEachRun(l, v, q, ctx, col, (*run.Store).ScanRun)
}

var (
	_ index.Index    = (*LSM)(nil)
	_ index.Inserter = (*LSM)(nil)
)
