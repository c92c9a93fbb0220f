package ctree

import (
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/series"
)

// Search in a CTree fans out over contiguous leaf ranges: exact and range
// searches split the leaf file into one chunk per worker and scan the chunks
// concurrently, each worker with its own scratch state and deterministic
// collector, so merged results are the serial scan's (index.Collector). Any
// number of searches may run concurrently against one tree; only inserts
// require external serialization against searches.

// ApproxSearch answers an approximate k-NN query by descending to the leaf
// that covers the query's sortable key and scanning it (plus neighboring
// leaves until k candidates are seen). This is the cheap, no-guarantee
// search of the demo: one or two page reads, inherently navigational, so it
// stays serial at every parallelism setting.
func (t *Tree) ApproxSearch(q index.Query, k int) ([]index.Result, error) {
	return index.Search(q, t.opts.Config, index.NewCollector(k), t.ApproxInto)
}

// ApproxInto is the approximate search itself (index.Index): the covering
// leaf, found among the summary's fence keys, then alternating outward until
// k candidates have been evaluated (fill-factor slack or windows can leave
// leaves short).
func (t *Tree) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	leaves := t.Leaves()
	if leaves == 0 {
		return nil
	}
	defer ctx.Trace.Start("approx").End()
	sc := ctx.Scratch0()
	probe := func(li int) (int, error) {
		sc.Trace.NoteProbes("leaf", 1)
		return t.store.ProbePage(t.leaves, li, q, col, sc)
	}
	center := t.leaves.Sum.Find(q.Key)
	seen, err := probe(center)
	for lo, hi := center, center; err == nil && seen < col.K() && (lo > 0 || hi < leaves-1); {
		n := 0
		if lo > 0 {
			lo--
			n, err = probe(lo)
			seen += n
		}
		if err == nil && seen < col.K() && hi < leaves-1 {
			hi++
			n, err = probe(hi)
			seen += n
		}
	}
	return err
}

// ExactSearch returns the true k nearest neighbors. The approximate phase
// seeds the best-so-far bound, then the whole leaf file is scanned, and only
// entries whose squared lower bound survives pay for a true distance (from
// the inline payload bytes, or a raw-file fetch when non-materialized).
func (t *Tree) ExactSearch(q index.Query, k int) ([]index.Result, error) {
	return index.Search(q, t.opts.Config, index.NewCollector(k), func(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
		return t.exact(q, col, ctx, t.pool)
	})
}

// ExactInto is ExactSearch's core (index.Index): serial, the caller owning
// the parallelism at a coarser grain.
func (t *Tree) ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return t.exact(q, col, ctx, index.SerialPool)
}

// exact is the exact search: approximate phase to seed the bound, then the
// pruned scan of the leaf file striped across the given pool.
func (t *Tree) exact(q index.Query, col *index.Collector, ctx *index.SearchCtx, pool *parallel.Pool) error {
	if err := t.ApproxInto(q, col, ctx); err != nil {
		return err
	}
	return scanAll(t, q, col, ctx, pool, func(q index.Query, pg index.Page, raw series.RawStore, col *index.Collector, sc *index.Scratch) error {
		_, err := index.EvalPage(q, pg, raw, col, sc)
		return err
	})
}

// RangeSearch returns every indexed series within Euclidean distance eps
// of the query: one pruned scan of the leaf file, striped across the pool.
func (t *Tree) RangeSearch(q index.Query, eps float64) ([]index.Result, error) {
	return index.Search(q, t.opts.Config, index.NewRangeCollector(eps), func(q index.Query, col *index.RangeCollector, ctx *index.SearchCtx) error {
		return scanAll(t, q, col, ctx, t.pool, index.EvalPageRange)
	})
}

// RangeInto is RangeSearch's core (index.Index).
func (t *Tree) RangeInto(q index.Query, col *index.RangeCollector, ctx *index.SearchCtx) error {
	return scanAll(t, q, col, ctx, index.SerialPool, index.EvalPageRange)
}

// scanAll is the pruned scan of the whole leaf file, split into one
// contiguous leaf range per available worker of pool, so each worker keeps
// the sequential access pattern the compact layout buys within its own
// range; eval evaluates a page into the worker's collector, which is all the
// exact and the range search differ in. Each range is the summary's page loop
// (run.Store.Scan), which leaves dead leaves unread as the tree's planner
// allows — dropping work, never answers — and counts them as "leaf" units.
func scanAll[C interface {
	index.FanCollector[C]
	index.EnvelopeTester
}](t *Tree, q index.Query, col C, ctx *index.SearchCtx, pool *parallel.Pool, eval func(q index.Query, pg index.Page, raw series.RawStore, col C, sc *index.Scratch) error) error {
	defer ctx.Trace.Start("scan").End()
	n := t.Leaves()
	w := pool.WorkersFor(n)
	chunks := make([][2]int, 0, w)
	for i := 0; i < w; i++ {
		if lo, hi := i*n/w, (i+1)*n/w; lo < hi {
			chunks = append(chunks, [2]int{lo, hi})
		}
	}
	scs := ctx.Scratches(len(chunks))
	return index.FanOut(pool, len(chunks), col, func(i, w int, col C) error {
		sc := scs[w]
		return t.store.Scan(t.leaves, chunks[i][0], chunks[i][1], "leaf", q, sc, col, func(pg index.Page) error { return eval(q, pg, t.store.Raw, col, sc) })
	})
}

var (
	_ index.Index    = (*Tree)(nil)
	_ index.Inserter = (*Tree)(nil)
)
