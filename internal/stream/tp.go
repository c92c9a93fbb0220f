package stream

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/adsplus"
	"repro/internal/ctree"
	"repro/internal/index"
	"repro/internal/parallel"
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
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		// Partitions stay serial internally (Parallelism 1): the scheme's
		// pool fans out across partitions, and nesting another fan-out
		// inside each small partition would only oversubscribe the pool.
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
	baseName  string
	sum       summarizer
	raw       series.RawStore
	factory   PartitionFactory
	bufferCap int
	buffer    []record.Entry
	parts     []tpPart
	seq       int
	count     int64
	pool      *parallel.Pool
	planner   *index.Planner
}

// NewTP builds a temporal-partitioning scheme. baseName names partition
// files ("<baseName>.part.N..."); bufferCap is the partition size in
// entries; raw serves non-materialized distance evaluation of buffered
// entries.
func NewTP(baseName string, cfg index.Config, factory PartitionFactory, bufferCap int, raw series.RawStore) (*TP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if bufferCap < 1 {
		return nil, fmt.Errorf("stream: bufferCap must be positive, got %d", bufferCap)
	}
	return &TP{
		baseName:  baseName,
		sum:       summarizer{cfg: cfg},
		raw:       raw,
		factory:   factory,
		bufferCap: bufferCap,
		pool:      parallel.New(0),
	}, nil
}

// SetParallelism bounds the worker goroutines one query uses to search
// intersecting partitions concurrently (n <= 0 selects GOMAXPROCS). Results
// are identical at every setting. Call before querying; the setting is not
// synchronized with in-flight searches.
func (t *TP) SetParallelism(n int) { t.pool = parallel.New(n) }

// SetPlanner installs the query planner that orders partition probes by
// their synopsis envelope bound and skips partitions that cannot improve
// the current answer. nil (the default) plans with default settings; a
// planner with Disabled set restores the unplanned probe order. Call
// before querying; the setting is not synchronized with in-flight
// searches.
func (t *TP) SetPlanner(pl *index.Planner) { t.planner = pl }

// Name implements Scheme: "<base>+TP" after the first partition exists, or
// the generic "TP" before.
func (t *TP) Name() string {
	if len(t.parts) > 0 {
		return t.parts[0].idx.Name() + "+TP"
	}
	return "TP"
}

// Ingest implements Scheme.
func (t *TP) Ingest(s series.Series, ts int64) (int64, error) {
	e, err := t.sum.entry(s, ts)
	if err != nil {
		return 0, err
	}
	t.buffer = append(t.buffer, e)
	t.count++
	if len(t.buffer) >= t.bufferCap {
		return e.ID, t.Seal()
	}
	return e.ID, nil
}

// Seal implements Scheme: the buffered entries become a new partition.
func (t *TP) Seal() error {
	if len(t.buffer) == 0 {
		return nil
	}
	syn := zonestat.New(t.sum.cfg.Segments, t.sum.cfg.Bits)
	for _, e := range t.buffer {
		syn.Add(e.Key, e.TS)
	}
	t.seq++
	name := fmt.Sprintf("%s.part.%04d", t.baseName, t.seq)
	idx, err := t.factory(name, t.buffer)
	if err != nil {
		return err
	}
	t.parts = append(t.parts, tpPart{idx: idx, syn: syn})
	t.buffer = nil
	return nil
}

// Count implements Scheme.
func (t *TP) Count() int64 { return t.count }

// Partitions implements Scheme.
func (t *TP) Partitions() int { return len(t.parts) }

// intersects reports whether a partition's time range, read from its
// synopsis, meets the query window.
func intersects(q index.Query, syn *zonestat.Synopsis) bool {
	return !q.Windowed || syn.IntersectsWindow(q.MinTS, q.MaxTS)
}

// ApproxSearch implements Scheme: probe each intersecting partition and the
// buffer.
func (t *TP) ApproxSearch(q index.Query, k int) ([]index.Result, error) {
	return index.Rendered(t.search(q, index.NewCollector(k), index.Index.ApproxInto))
}

// ExactSearch implements Scheme.
func (t *TP) ExactSearch(q index.Query, k int) ([]index.Result, error) {
	return index.Rendered(t.search(q, index.NewCollector(k), index.Index.ExactInto))
}

// search scans the in-memory buffer, then searches every partition whose
// time range intersects the window (a filter outside the planner's count)
// through core — index.Index's ApproxInto or ExactInto — straight into the
// collector: partition IDs are already global, and the bound earlier
// partitions left in col prunes later ones. Partitions go through the
// planned-probe executor on the worker pool, bounded by their synopsis's
// envelope MINDIST, with one pooled context per worker slot (the partition
// plan in the first one's outer buffer, a partition's own in the primary);
// per-worker collectors merge on their exact squared sums, giving the same
// answer as the serial, unplanned loop — and as PP and BTP over the same
// stream.
func (t *TP) search(q index.Query, col *index.Collector, core func(index.Index, index.Query, *index.Collector, *index.SearchCtx) error) (*index.Collector, error) {
	var active []tpPart
	for _, p := range t.parts {
		if intersects(q, p.syn) {
			active = append(active, p)
		}
	}
	ctxs := index.AcquireCtxs(q, t.sum.cfg, t.pool.WorkersFor(len(active)))
	defer ctxs.Release()
	if err := index.ScanBuffer(t.buffer, q, t.raw, col, ctxs[0].Scratch0()); err != nil {
		return nil, err
	}
	return col, index.ProbeUnits(index.ProbePlan{
		Planner: t.planner, Pool: t.pool, Trace: q.Trace, Kind: "partition", Units: ctxs[0].OuterPlanUnits(len(active)),
	}, col, func(i int) float64 {
		return ctxs[0].P.SynopsisBoundSq(active[i].syn)
	}, func(i, w int, col *index.Collector) error {
		return core(active[i].idx, q, col, ctxs[w])
	})
}

var _ Scheme = (*TP)(nil)
