package stream

import (
	"fmt"
	"slices"

	"repro/internal/adsplus"
	"repro/internal/ctree"
	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// PartitionFactory builds a searchable partition from one buffer's worth of
// entries. The name is unique per partition.
type PartitionFactory func(name string, entries []record.Entry) (index.Index, error)

// CTreeFactory returns a factory producing bulk-loaded CTree partitions
// (the paper's CTreeTP / CTreeFullTP). reader serves the partitions' page
// reads; nil selects the disk itself (uncached).
func CTreeFactory(disk storage.Backend, reader storage.PageReader, cfg index.Config, raw series.RawStore) PartitionFactory {
	return func(name string, entries []record.Entry) (index.Index, error) {
		sorted := slices.Clone(entries)
		record.Sort(sorted)
		// A partition's bulk load is one sorted write (Parallelism 1 sorts
		// nothing on workers).
		return ctree.BuildFromEntries(ctree.Options{Disk: disk, Reader: reader, Name: name, Config: cfg, Raw: raw, Parallelism: 1}, sorted)
	}
}

// ADSFactory returns a factory producing top-down ADS+ partitions (the
// paper's ADS+TP / ADSFullTP baseline). reader serves the partitions' page
// reads; nil selects the disk itself (uncached).
func ADSFactory(disk storage.Backend, reader storage.PageReader, cfg index.Config, raw series.RawStore) PartitionFactory {
	return func(name string, entries []record.Entry) (index.Index, error) {
		t, err := adsplus.New(adsplus.Options{Disk: disk, Reader: reader, Name: name, Config: cfg, Raw: raw})
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if err := t.InsertEntry(e); err != nil {
				return nil, err
			}
		}
		if err := t.FlushBuffers(); err != nil {
			return nil, err
		}
		return t, nil
	}
}

type tpPart struct {
	idx index.Index
	syn *zonestat.Synopsis // never nil: Seal builds it
}

// TP implements Temporal Partitioning: every buffer fill seals a new
// immutable partition tagged with its time range. Queries search only
// partitions whose range intersects the window — but nothing ever merges,
// so partitions accumulate linearly with stream length.
type TP struct {
	arrivals
	name    string
	raw     series.RawStore
	factory PartitionFactory
	parts   []tpPart
	seq     int
}

// NewTP builds a temporal-partitioning scheme whose partitions factory
// makes. base names the index they are (e.g. "CTree"), and so the scheme
// ("CTree+TP"); partition files are named "tp.part.N"; bufferCap is the
// partition size in entries; raw serves non-materialized distance
// evaluation of buffered entries.
func NewTP(base string, cfg index.Config, factory PartitionFactory, bufferCap int, raw series.RawStore) (*TP, error) {
	a, err := newArrivals(cfg, bufferCap)
	if err != nil {
		return nil, err
	}
	return &TP{arrivals: a, name: base + "+TP", raw: raw, factory: factory}, nil
}

// Name implements index.Index: "<base>+TP".
func (t *TP) Name() string { return t.name }

// Insert implements Scheme.
func (t *TP) Insert(s series.Series, ts int64) error {
	if full, err := t.add(s, ts); err != nil || !full {
		return err
	}
	return t.Seal()
}

// Seal implements Scheme: the buffered entries become a new partition.
func (t *TP) Seal() error {
	if len(t.buffer) == 0 {
		return nil
	}
	syn := zonestat.New(t.cfg.Segments, t.cfg.Bits)
	for _, e := range t.buffer {
		syn.Add(e.Key, e.TS)
	}
	t.seq++
	name := fmt.Sprintf("tp.part.%04d", t.seq)
	idx, err := t.factory(name, t.buffer)
	if err != nil {
		return err
	}
	t.parts = append(t.parts, tpPart{idx: idx, syn: syn})
	t.buffer = nil
	return nil
}

// Partitions implements Scheme.
func (t *TP) Partitions() int { return len(t.parts) }

// intersects reports whether a partition's time range, read from its
// synopsis, meets the query window.
func intersects(q index.Query, syn *zonestat.Synopsis) bool {
	return !q.Windowed || syn.IntersectsWindow(q.MinTS, q.MaxTS)
}

// ApproxInto implements index.Index: probe each intersecting partition and
// the buffer.
func (t *TP) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return t.search(q, col, ctx, index.Index.ApproxInto)
}

// ExactInto implements index.Index.
func (t *TP) ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return t.search(q, col, ctx, index.Index.ExactInto)
}

// RangeInto implements index.Index.
func (t *TP) RangeInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return t.search(q, col, ctx, index.Index.RangeInto)
}

// search scans the in-memory buffer, then searches every partition whose
// time range intersects the window (a filter outside the planner's count)
// through core — index.Index's ApproxInto, ExactInto or RangeInto —
// straight into the collector: partition IDs are already global, and the
// bound earlier partitions left in col prunes later ones. Partitions go through the
// planned-probe executor on ctx's pool under ctx's planner, bounded by their
// synopsis's envelope MINDIST, each worker slot with a serial context of its
// own under the same planner (the partition plan in ctx's outer buffer, a
// partition's own in its context's primary);
// per-worker collectors merge on their exact squared sums, giving the same
// answer as the serial, unplanned loop — and as PP and BTP over the same
// stream.
func (t *TP) search(q index.Query, col *index.Collector, ctx *index.SearchCtx, core func(index.Index, index.Query, *index.Collector, *index.SearchCtx) error) error {
	var active []tpPart
	for _, p := range t.parts {
		if intersects(q, p.syn) {
			active = append(active, p)
		}
	}
	if err := index.ScanBuffer(t.buffer, q, t.raw, col, ctx.Scratch0()); err != nil {
		return err
	}
	return ctx.Parts(q, t.cfg, len(active), func(ctxs index.Ctxs) error {
		return index.ProbeUnits(ctx, "partition", ctx.OuterPlanUnits(len(active)), col, func(i int) float64 {
			return ctx.P.SynopsisBoundSq(active[i].syn)
		}, func(i, w int, col *index.Collector) error {
			return core(active[i].idx, q, col, ctxs[w])
		})
	})
}

var _ Scheme = (*TP)(nil)
