package stream

import (
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/run"
	"repro/internal/series"
	"repro/internal/storage"
)

// btpPart is one temporal partition: a key-sorted run on disk covering the
// contiguous time range its synopsis records (every partition is written
// here, so the synopsis is never unknown). Parts are kept in time order
// (oldest first).
type btpPart struct {
	run.Run
	class int // size class; merging K class-c parts yields class c+1
}

// BTP implements Bounded Temporal Partitioning — the scheme the sortable
// summarization makes possible (Section 3). Buffer flushes create class-0
// partitions; whenever mergeFactor time-adjacent partitions of the same
// class accumulate, they are sort-merged into one partition of the next
// class. Newer data therefore lives in small partitions (cheap small-window
// queries, as TP) while older data consolidates into large contiguous runs
// (effective pruning and bounded partition counts for large windows, as PP).
type BTP struct {
	arrivals
	store  run.Store // writes, merges, probes and scans the partition files
	name   string
	parts  []btpPart
	seq    int
	merges int64
}

// mergeFactor is the number of same-class partitions that triggers a merge:
// pairs, the most aggressive bounding.
const mergeFactor = 2

// NewBTP builds a bounded-temporal-partitioning scheme over sorted runs.
// reader serves the partitions' page reads (typically a buffer pool over
// disk); nil selects the disk itself (uncached).
func NewBTP(disk storage.Backend, reader storage.PageReader, name string, cfg index.Config, bufferCap int, raw series.RawStore) (*BTP, error) {
	a, err := newArrivals(cfg, bufferCap)
	if err != nil {
		return nil, err
	}
	if disk == nil {
		return nil, fmt.Errorf("stream: Disk is required")
	}
	store := run.NewStore(disk, reader, cfg, raw)
	if _, err := store.Layout(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return &BTP{arrivals: a, store: store, name: name}, nil
}

// Name implements index.Index.
func (b *BTP) Name() string {
	if b.store.Config.Materialized {
		return "CLSMFull+BTP"
	}
	return "CLSM+BTP"
}

// Insert implements Scheme.
func (b *BTP) Insert(s series.Series, ts int64) error {
	if full, err := b.add(s, ts); err != nil || !full {
		return err
	}
	return b.Seal()
}

// Seal implements Scheme: flush the buffer into a class-0 partition and
// apply the bounding merges. It sorts a copy, so a failed write leaves the
// buffer in arrival order, its symbol column beside it.
func (b *BTP) Seal() error {
	if b.buffer.Len() == 0 {
		return nil
	}
	sorted := slices.Clone(b.buffer.Entries())
	record.Sort(sorted)
	sealed, err := b.store.Write(b.nextFile(), sorted)
	if err != nil {
		return err
	}
	b.parts = append(b.parts, btpPart{Run: sealed, class: 0})
	b.buffer.Drop(len(sorted))
	return b.bound()
}

func (b *BTP) nextFile() string {
	b.seq++
	return fmt.Sprintf("%s.btp.%06d", b.name, b.seq)
}

// bound sort-merges any run of mergeFactor time-adjacent same-class
// partitions into the next class, repeating until no such run exists.
// Because partitions are created in time order and merges preserve
// adjacency, time ranges across partitions stay disjoint and ordered.
func (b *BTP) bound() error {
	for {
		i := b.findMergeRun()
		if i < 0 {
			return nil
		}
		group := b.parts[i : i+mergeFactor]
		inputs := make([]run.Run, len(group))
		for j, p := range group {
			inputs[j] = p.Run
		}
		merged, err := b.store.Merge(inputs, b.nextFile())
		if err != nil {
			return err
		}
		// Publish the new list before removing the inputs: a failed Remove
		// then leaks a file, where the other order would leave b.parts
		// naming a deleted one.
		rest := append([]btpPart{}, b.parts[:i]...)
		rest = append(rest, btpPart{Run: merged, class: group[0].class + 1})
		b.parts = append(rest, b.parts[i+mergeFactor:]...)
		b.merges++
		for _, in := range inputs {
			if err := b.store.Disk.Remove(in.File); err != nil {
				return err
			}
		}
	}
}

// findMergeRun returns the index of the first run of mergeFactor
// consecutive partitions sharing a class, or -1.
func (b *BTP) findMergeRun() int {
	for i := 0; i+mergeFactor <= len(b.parts); i++ {
		c := b.parts[i].class
		ok := true
		for j := 1; j < mergeFactor; j++ {
			if b.parts[i+j].class != c {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// Partitions implements Scheme.
func (b *BTP) Partitions() int { return len(b.parts) }

// Merges returns the number of partition merges performed.
func (b *BTP) Merges() int64 { return b.merges }

// ApproxInto implements index.Index: the buffer is scanned and each
// intersecting partition is probed at the pages its resident summary ranks
// best for the query and its window (run.Store.RankedProbe), not at the
// query key's page, which for a window query mostly holds entries outside
// it. Partitions are independent sorted runs, so probes execute
// concurrently on ctx's pool. It is also the exact search's first phase on
// the same context (one table fill across both), so the pages it reads set
// the bound the scans prune by.
func (b *BTP) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return b.search(q, col, ctx, func(s *run.Store, r run.Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
		return s.RankedProbe(r, obs.PageUnit, q, col, sc)
	})
}

// ExactInto implements index.Index: the approximate phase seeds the bound,
// then a pruned scan of every intersecting partition, partitions scanning
// concurrently. The buffer was already fully evaluated by the approximate
// phase (deduplication by ID makes re-offering it a no-op), so only the
// partitions need the full pass. Partitions whose range falls outside the
// window are skipped wholesale — the bandwidth saving TP pioneered, here
// with a bounded partition count.
func (b *BTP) ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	if err := b.ApproxInto(q, col, ctx); err != nil {
		return err
	}
	return b.forEachPart(q, ctx, col, (*run.Store).ScanRun)
}

// RangeInto implements index.Index: the buffer, then a pruned scan of
// every intersecting partition. A range collector's bound is fixed, so no
// probe phase runs first.
func (b *BTP) RangeInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return b.search(q, col, ctx, (*run.Store).ScanRun)
}

// search evaluates the buffer as one page of entries bounded from its
// symbol column (index.Buffer.Page, index.EvalPage), then every partition
// with scan.
func (b *BTP) search(q index.Query, col *index.Collector, ctx *index.SearchCtx, scan func(*run.Store, run.Run, index.Query, *index.Collector, *index.Scratch) error) error {
	pg := b.buffer.Page(&q)
	if _, err := index.EvalPage(&q, &pg, b.store.Raw, col, ctx.Scratch0()); err != nil {
		return err
	}
	return b.forEachPart(q, ctx, col, scan)
}

// forEachPart applies scan (the run store's RankedProbe, counting pages, or
// ScanRun) to every partition through the planned-probe executor
// (index.ProbeUnits) — the same discipline as CLSM runs, with the same
// determinism guarantee. A partition is bounded by its synopsis's envelope
// MINDIST, or by +Inf, a skip, when its time range misses the window.
func (b *BTP) forEachPart(q index.Query, ctx *index.SearchCtx, col *index.Collector, scan func(*run.Store, run.Run, index.Query, *index.Collector, *index.Scratch) error) error {
	scs := ctx.Scratches(ctx.Pool.WorkersFor(len(b.parts)))
	return index.ProbeUnits(ctx, obs.PartitionUnit, ctx.PlanUnits(len(b.parts)), col, func(i int) float64 {
		return ctx.P.UnitBoundSq(q, b.parts[i].Syn)
	}, func(i, w int, col *index.Collector) error {
		return scan(&b.store, b.parts[i].Run, q, col, scs[w])
	})
}

var _ Scheme = (*BTP)(nil)
