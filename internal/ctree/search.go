package ctree

import (
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Search in a CTree fans out over contiguous leaf ranges: the leaf file is
// one sorted sequence, so exact and range searches split it into one chunk
// per worker (Options.Parallelism) and scan the chunks concurrently, each
// worker with its own scratch state and deterministic collector. Merged
// per-worker results are identical to the serial scan's (see
// index.Collector). Every probe runs through the squared-space pruning
// pipeline (index.SearchCtx): per-query MINDIST tables, no per-candidate
// allocation, lower bounds from the tree's resident summaries (scanRange),
// early-abandoning squared verification straight from the page bytes.
// Searches draw their contexts from a shared pool, so any number of
// searches may run concurrently against one tree; only inserts require
// external serialization against searches.

// ApproxSearch answers an approximate k-NN query by descending to the leaf
// that covers the query's sortable key and scanning it (plus neighboring
// leaves until k candidates are seen). This is the cheap, no-guarantee
// search of the demo: one or two page reads, inherently navigational, so it
// stays serial at every parallelism setting.
func (t *Tree) ApproxSearch(q index.Query, k int) ([]index.Result, error) {
	return index.Search(q, t.opts.Config, index.NewCollector(k), t.ApproxInto)
}

// ApproxInto is the approximate search itself (index.Index): the covering
// leaf, then alternating outward until k candidates have been evaluated
// (fill-factor slack or windows can leave leaves short).
func (t *Tree) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	if len(t.leaves) == 0 {
		return nil
	}
	defer ctx.Trace.Start("approx").End()
	sc := ctx.Scratch0()
	center := t.findLeaf(q.Key)
	seen, err := t.scanLeafInto(center, q, col, sc)
	if err != nil {
		return err
	}
	lo, hi := center, center
	for k := col.K(); seen < k && (lo > 0 || hi < len(t.leaves)-1); {
		if lo > 0 {
			lo--
			n, err := t.scanLeafInto(lo, q, col, sc)
			if err != nil {
				return err
			}
			seen += n
		}
		if seen < k && hi < len(t.leaves)-1 {
			hi++
			n, err := t.scanLeafInto(hi, q, col, sc)
			if err != nil {
				return err
			}
			seen += n
		}
	}
	return nil
}

func (t *Tree) scanLeafInto(li int, q index.Query, col *index.Collector, sc *index.Scratch) (int, error) {
	h, err := t.opts.Reader.PinPage(t.leafFile, t.pageNum(li))
	if err != nil {
		return 0, err
	}
	n, err := index.EvalPage(q, t.leafPage(t.groupOf(li), li, h.Data()), t.opts.Raw, col, sc)
	h.Release()
	sc.Trace.NoteProbes("leaf", 1)
	return n, err
}

// pageKeyBounds is a test hook, not an option: when set, scans run as they
// did before the resident column and the group envelopes existed — every
// entry bounded from the key bytes on its page, every leaf envelope tested
// on its own. The equivalence suite holds the column scan to this one:
// same answers, same page accesses in the same order.
var pageKeyBounds bool

// leafPage describes leaf li (of group g), pinned as data, to the page
// evaluator, which takes the entries' symbols from the column and so reads
// data only for an entry that survives its bound.
func (t *Tree) leafPage(g, li int, data []byte) (pg index.Page) {
	if t.packed {
		pg = index.PackedPage(data, t.codec)
	} else {
		pg = index.FixedPage(data, t.leaves[li].count, t.codec)
	}
	if !pageKeyBounds {
		pg.UseSymbols(t.leafSyms(g, li), t.opts.Config.Segments)
	}
	return pg
}

// leafChunks splits the leaf directory into one contiguous range per
// available worker of the given pool, so each worker keeps the sequential
// access pattern the compact layout buys within its own range.
func (t *Tree) leafChunks(pool *parallel.Pool) [][2]int {
	n := len(t.leaves)
	w := pool.WorkersFor(n)
	chunks := make([][2]int, 0, w)
	for i := 0; i < w; i++ {
		lo := i * n / w
		hi := (i + 1) * n / w
		if lo < hi {
			chunks = append(chunks, [2]int{lo, hi})
		}
	}
	return chunks
}

// ExactSearch returns the true k nearest neighbors. The approximate phase
// seeds the best-so-far bound, then the entire leaf file is scanned,
// pruning every entry whose squared iSAX lower bound passes the squared
// bound; only survivors pay for a true distance (an early-abandoning
// squared accumulation over the inline payload bytes, or a random raw-file
// fetch into worker scratch when non-materialized). The scan splits into
// one contiguous leaf range per worker — the sequential access pattern of
// Coconut's sortable layout, striped across the pool.
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
	defer ctx.Trace.Start("scan").End()
	chunks := t.leafChunks(pool)
	scs := ctx.Scratches(len(chunks))
	return index.FanOut(pool, len(chunks), col, func(i, w int, col *index.Collector) error {
		sc := scs[w]
		return t.scanRange(chunks[i][0], chunks[i][1], q, sc, col, func(pg index.Page) error {
			_, err := index.EvalPage(q, pg, t.opts.Raw, col, sc)
			return err
		})
	})
}

// scanRange is the one sequential page loop of the tree: it pins the pages
// of leaves [lo, hi) through one storage cursor and hands each to eval. A
// scan descends three resident levels before it reads a byte of a page: the
// group envelope, the leaf envelope, and (inside the evaluation, through
// leafPage) the leaf's slice of the SAX column.
//
// With planning enabled the envelopes are zone maps: col reports whether an
// envelope's MINDIST bound already rules out every series inside it (dead). A
// dead leaf cannot contribute (the envelope bound is never larger than any
// member entry's bound, which the evaluation would prune anyway), so
// skipping it drops only work, never answers; skips are committed
// run-length-aware — see skipRuns. A dead group is a short cut and nothing
// else: a leaf's envelope lies inside its group's, so its bound is at least
// the group's, term by term in the same order, and the collector's bound
// only tightens — every leaf of a dead group is dead when its own turn
// comes. Which leaves are read is therefore what the leaf envelopes alone
// decide.
//
// A leaf that is read is pinned and released whether or not an entry of it
// can survive: the page is part of the sequential run the cost model
// charges for, and of the cache's contents. What a survivor-free page is
// spared is every touch of its bytes — and, when it is a dead leaf whose
// skip was declined (pruned), its entries' bounds too.
func (t *Tree) scanRange(lo, hi int, q index.Query, sc *index.Scratch, col index.EnvelopeTester, eval func(pg index.Page) error) error {
	from, to := t.pageSpan(lo, hi)
	cur := t.opts.Reader.Scan(t.leafFile, from, to)
	defer cur.Close()
	// Leaves are read in ascending order, so the group of the one being
	// read is a cursor that only moves forward.
	rg := t.groupOf(lo)
	readLeaf := func(li int, pruned bool) error {
		for li >= t.grpStart[rg+1] {
			rg++
		}
		data, err := cur.Pin(t.pageNum(li))
		if err != nil {
			return err
		}
		if pruned && !q.Windowed {
			// A window's seen count needs the page's timestamps, which the
			// tree does not keep: a windowed scan evaluates the page.
			sc.NoteDeadPage(int64(t.leaves[li].count))
			return nil
		}
		return eval(t.leafPage(rg, li, data))
	}
	if !t.opts.Planner.Enabled() || !t.hasEnv() {
		for li := lo; li < hi; li++ {
			if err := readLeaf(li, false); err != nil {
				return err
			}
		}
		sc.Trace.NoteProbes("leaf", int64(hi-lo))
		return nil
	}
	// skipRuns asks about each leaf of the range once, in order. The leaf at
	// next is the first of group g inside the range (the range may begin
	// mid-group); the group's verdict stands until the next group begins.
	g, next, groupDead := rg, lo, false
	return t.skipRuns(lo, hi, sc.Trace, readLeaf, func(li int) bool {
		if li == next {
			mn, mx := t.groupEnv(g)
			groupDead = !pageKeyBounds && col.DeadEnvelope(sc.P, mn, mx)
			g++
			next = t.grpStart[g]
		}
		if groupDead {
			return true
		}
		mn, mx := t.leafEnv(li)
		return col.DeadEnvelope(sc.P, mn, mx)
	})
}

// pageSpan returns the page range [from, to) that holds leaves [lo, hi):
// the leaves' own numbers until a split has appended a page out of order.
func (t *Tree) pageSpan(lo, hi int) (from, to int64) {
	if t.pageOf == nil {
		return int64(lo), int64(hi)
	}
	from, to = t.pageOf[lo], t.pageOf[lo]+1
	for _, p := range t.pageOf[lo+1 : hi] {
		from, to = min(from, p), max(to, p+1)
	}
	return from, to
}

// interiorSkipRun is the minimum length of an interior run of skippable
// leaves worth actually skipping. Leaves are read in ascending page order,
// so consecutive reads are sequential; skipping m pages mid-range saves m
// sequential reads but turns the next read into a random one (10x under the
// default cost model). Runs at the start or end of a worker's range are
// free to skip — the first read was random anyway, and after the last there
// is nothing to re-enter.
const interiorSkipRun = 12

// skipRuns drives one leaf range through run-length-aware zone-map
// skipping: skippable leaves accumulate into a pending run, committed as an
// actual skip only when the run is leading, trailing, or at least
// interiorSkipRun long — otherwise the pending leaves are read after all,
// in the same ascending order the plain scan uses, so the I/O pattern of a
// declined skip is identical to no planner at all. Deferral never changes
// answers: a leaf marked skippable stays answer-free forever (the
// collector's bound only tightens), and reading it anyway is the unplanned
// behaviour — which is also why read is told so (pruned): it owes such a
// leaf the page access and nothing more.
func (t *Tree) skipRuns(lo, hi int, tr *obs.QueryTrace, read func(li int, pruned bool) error, skippable func(li int) bool) error {
	pl := t.opts.Planner
	pendStart, pending := 0, 0
	started := false // a leaf in [lo,hi) has actually been read
	skipped := int64(0)
	probed := int64(0)
	defer func() {
		pl.NoteSkips(skipped)
		tr.NoteSkips("leaf", skipped)
		tr.NoteProbes("leaf", probed)
	}()
	for li := lo; li < hi; li++ {
		if skippable(li) {
			if pending == 0 {
				pendStart = li
			}
			pending++
			continue
		}
		if pending > 0 {
			if !started || pending >= interiorSkipRun {
				skipped += int64(pending)
			} else {
				for p := pendStart; p < pendStart+pending; p++ {
					if err := read(p, !pageKeyBounds); err != nil {
						return err
					}
					probed++
				}
			}
			pending = 0
		}
		if err := read(li, false); err != nil {
			return err
		}
		probed++
		started = true
	}
	skipped += int64(pending) // trailing run: nothing re-enters, free
	return nil
}

// RangeSearch returns every indexed series within Euclidean distance eps
// of the query: one pruned scan of the leaf file, striped across the pool
// in contiguous leaf ranges.
func (t *Tree) RangeSearch(q index.Query, eps float64) ([]index.Result, error) {
	return index.Search(q, t.opts.Config, index.NewRangeCollector(eps), func(q index.Query, col *index.RangeCollector, ctx *index.SearchCtx) error {
		return t.rangeScan(q, col, ctx, t.pool)
	})
}

// RangeInto is RangeSearch's core (index.Index).
func (t *Tree) RangeInto(q index.Query, col *index.RangeCollector, ctx *index.SearchCtx) error {
	return t.rangeScan(q, col, ctx, index.SerialPool)
}

// rangeScan is the range search: the leaf file scanned with squared epsilon
// pruning, striped across the given pool.
func (t *Tree) rangeScan(q index.Query, col *index.RangeCollector, ctx *index.SearchCtx, pool *parallel.Pool) error {
	defer ctx.Trace.Start("scan").End()
	chunks := t.leafChunks(pool)
	scs := ctx.Scratches(len(chunks))
	return index.FanOut(pool, len(chunks), col, func(i, w int, col *index.RangeCollector) error {
		sc := scs[w]
		return t.scanRange(chunks[i][0], chunks[i][1], q, sc, col, func(pg index.Page) error {
			return index.EvalPageRange(q, pg, t.opts.Raw, col, sc)
		})
	})
}

var (
	_ index.Index    = (*Tree)(nil)
	_ index.Inserter = (*Tree)(nil)
)
