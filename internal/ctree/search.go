package ctree

import (
	"repro/internal/index"
	"repro/internal/obs"
)

// Search in a CTree fans out over contiguous leaf ranges: exact and range
// searches split the leaf file into one chunk per worker of the context's
// pool and scan the chunks concurrently, each worker with its own scratch
// state and deterministic collector, so merged results are the serial scan's
// (index.Collector). Any number of searches may run concurrently against one
// tree; only inserts require external serialization against searches.

// ApproxInto is the approximate search (index.Index): the covering leaf,
// found among the summary's fence keys, then alternating outward until k
// candidates have been evaluated (fill-factor slack or windows can leave
// leaves short). One or two page reads, inherently navigational, so it stays
// serial whatever pool the context carries.
func (t *Tree) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	leaves := t.Leaves()
	if leaves == 0 {
		return nil
	}
	defer ctx.Trace.Start("approx").End()
	sc := ctx.Scratch0()
	probe := func(li int) (int, error) {
		sc.Tally.Note(obs.LeafUnit, 1, 0)
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

// ExactInto is the exact search (index.Index). The approximate phase seeds
// the best-so-far bound, then the whole leaf file is scanned (materialized,
// from the covering leaf: scanAll), and only entries whose squared lower
// bound survives pay for a true distance (from the inline payload bytes, or
// a raw-file fetch when non-materialized).
func (t *Tree) ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	if err := t.ApproxInto(q, col, ctx); err != nil {
		return err
	}
	return scanAll(t, q, col, ctx)
}

// RangeInto is the range search (index.Index): one pruned scan of the leaf
// file.
func (t *Tree) RangeInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return scanAll(t, q, col, ctx)
}

// scanAll is the pruned scan of the whole leaf file, split into one
// contiguous leaf range per available worker of the context's pool, so each
// worker keeps the sequential access pattern the compact layout buys within
// its own range; each page is evaluated into the worker's collector, whose
// bound is all the exact and the range search differ in. Each range is the
// summary's page loop (run.Store.Scan), which leaves dead leaves unread as
// the search's planner allows — dropping work, never answers — and counts
// them as "leaf" units.
//
// A k-NN search over materialized leaves starts the range that holds the
// query's covering leaf at that leaf and wraps once: similar series sit next
// to each other in the key order, so the leaves beside the query's key
// tighten the bound before the rest of the range is judged against it. Every
// other range, a range search (its bound cannot move) and a non-materialized
// tree read in file order: there a leaf's verification fetches raw series in
// leaf order, and reordering those fetches is not what this rule buys.
func scanAll(t *Tree, q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	defer ctx.Trace.Start("scan").End()
	n := t.Leaves()
	center := -1 // the leaf its range starts at; -1: every range starts at its first leaf
	if n > 0 && !col.BoundFixed() && t.opts.Config.Materialized {
		center = t.leaves.Sum.Find(q.Key)
	}
	w := ctx.Pool.WorkersFor(n)
	chunks := make([][3]int, 0, w)
	for i := 0; i < w; i++ {
		if lo, hi := i*n/w, (i+1)*n/w; lo < hi {
			start := lo
			if lo <= center && center < hi {
				start = center
			}
			chunks = append(chunks, [3]int{lo, start, hi})
		}
	}
	scs := ctx.Scratches(len(chunks))
	return index.FanOut(ctx.Pool, len(chunks), col, func(i, w int, col *index.Collector) error {
		sc, c := scs[w], chunks[i]
		return t.store.Scan(t.leaves, c[0], c[1], c[2], obs.LeafUnit, q, sc, col, func(q *index.Query, pg *index.Page) error {
			_, err := index.EvalPage(q, pg, t.store.Raw, col, sc)
			return err
		})
	})
}

var (
	_ index.Index    = (*Tree)(nil)
	_ index.Inserter = (*Tree)(nil)
)
