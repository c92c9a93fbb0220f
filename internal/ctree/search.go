package ctree

import "repro/internal/index"

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

// ExactInto is the exact search (index.Index). The approximate phase seeds
// the best-so-far bound, then the whole leaf file is scanned, and only
// entries whose squared lower bound survives pay for a true distance (from
// the inline payload bytes, or a raw-file fetch when non-materialized).
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
func scanAll(t *Tree, q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	defer ctx.Trace.Start("scan").End()
	n := t.Leaves()
	w := ctx.Pool.WorkersFor(n)
	chunks := make([][2]int, 0, w)
	for i := 0; i < w; i++ {
		if lo, hi := i*n/w, (i+1)*n/w; lo < hi {
			chunks = append(chunks, [2]int{lo, hi})
		}
	}
	scs := ctx.Scratches(len(chunks))
	return index.FanOut(ctx.Pool, len(chunks), col, func(i, w int, col *index.Collector) error {
		sc := scs[w]
		return t.store.Scan(t.leaves, chunks[i][0], chunks[i][1], "leaf", q, sc, col, func(q *index.Query, pg *index.Page) error {
			_, err := index.EvalPage(q, pg, t.store.Raw, col, sc)
			return err
		})
	})
}

var (
	_ index.Index    = (*Tree)(nil)
	_ index.Inserter = (*Tree)(nil)
)
