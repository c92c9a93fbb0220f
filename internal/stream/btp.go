package stream

import (
	"fmt"
	"sort"

	"repro/internal/extsort"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// btpPart is one temporal partition: a key-sorted run on disk covering a
// contiguous time range. Parts are kept in time order (oldest first).
type btpPart struct {
	file         string
	count        int64
	minTS, maxTS int64
	class        int // size class; merging K class-c parts yields class c+1
	syn          *zonestat.Synopsis
}

// BTP implements Bounded Temporal Partitioning — the scheme the sortable
// summarization makes possible (Section 3). Buffer flushes create class-0
// partitions; whenever MergeFactor time-adjacent partitions of the same
// class accumulate, they are sort-merged into one partition of the next
// class. Newer data therefore lives in small partitions (cheap small-window
// queries, as TP) while older data consolidates into large contiguous runs
// (effective pruning and bounded partition counts for large windows, as PP).
type BTP struct {
	disk        storage.Backend
	reader      storage.PageReader
	name        string
	cfg         index.Config
	codec       record.Codec
	raw         series.RawStore
	sum         summarizer
	bufferCap   int
	mergeFactor int
	buffer      []record.Entry
	parts       []btpPart
	seq         int
	count       int64
	merges      int64
	pool        *parallel.Pool
	planner     *index.Planner
}

// NewBTP builds a bounded-temporal-partitioning scheme over sorted runs.
// mergeFactor is the number of same-class partitions that triggers a merge
// (default 2, the most aggressive bounding).
func NewBTP(disk storage.Backend, name string, cfg index.Config, bufferCap, mergeFactor int, raw series.RawStore) (*BTP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if disk == nil {
		return nil, fmt.Errorf("stream: Disk is required")
	}
	if bufferCap < 1 {
		return nil, fmt.Errorf("stream: bufferCap must be positive, got %d", bufferCap)
	}
	if mergeFactor == 0 {
		mergeFactor = 2
	}
	if mergeFactor < 2 {
		return nil, fmt.Errorf("stream: mergeFactor must be >= 2, got %d", mergeFactor)
	}
	codec := cfg.Codec()
	if codec.Size() > disk.PageSize() {
		return nil, fmt.Errorf("stream: entry size %d exceeds page size %d", codec.Size(), disk.PageSize())
	}
	return &BTP{
		disk:        disk,
		reader:      disk,
		name:        name,
		cfg:         cfg,
		codec:       codec,
		raw:         raw,
		sum:         summarizer{cfg: cfg},
		bufferCap:   bufferCap,
		mergeFactor: mergeFactor,
		pool:        parallel.New(0),
	}, nil
}

// SetParallelism bounds the worker goroutines one query uses to probe
// intersecting partitions concurrently (n <= 0 selects GOMAXPROCS). Results
// are identical at every setting. Call before querying; the setting is not
// synchronized with in-flight searches.
func (b *BTP) SetParallelism(n int) { b.pool = parallel.New(n) }

// SetPlanner installs the query planner that orders partition probes by
// their synopsis envelope bound and skips partitions that cannot improve
// the current answer. nil (the default) plans with default settings; a
// planner with Disabled set restores the unplanned probe order. Call
// before querying; the setting is not synchronized with in-flight
// searches.
func (b *BTP) SetPlanner(pl *index.Planner) { b.planner = pl }

// UseReader routes partition page reads through r (typically a buffer pool
// over the scheme's disk); nil restores the uncached disk. Call before
// querying; the setting is not synchronized with in-flight searches.
func (b *BTP) UseReader(r storage.PageReader) {
	if r == nil {
		r = b.disk
	}
	b.reader = r
}

// Name implements Scheme.
func (b *BTP) Name() string {
	if b.cfg.Materialized {
		return "CLSMFull+BTP"
	}
	return "CLSM+BTP"
}

// Ingest implements Scheme.
func (b *BTP) Ingest(s series.Series, ts int64) (int64, error) {
	e, err := b.sum.entry(s, ts)
	if err != nil {
		return 0, err
	}
	b.buffer = append(b.buffer, e)
	b.count++
	if len(b.buffer) >= b.bufferCap {
		return e.ID, b.Seal()
	}
	return e.ID, nil
}

// Seal implements Scheme: flush the buffer into a class-0 partition and
// apply the bounding merges.
func (b *BTP) Seal() error {
	if len(b.buffer) == 0 {
		return nil
	}
	syn := zonestat.New(b.cfg.Segments, b.cfg.Bits)
	for _, e := range b.buffer {
		syn.Add(e.Key, e.TS)
	}
	sort.Slice(b.buffer, func(i, j int) bool { return b.buffer[i].Less(b.buffer[j]) })
	b.seq++
	file := fmt.Sprintf("%s.btp.%06d", b.name, b.seq)
	w, err := storage.NewRecordWriter(b.disk, file, b.codec.Size())
	if err != nil {
		return err
	}
	buf := make([]byte, 0, b.codec.Size())
	for _, e := range b.buffer {
		buf = buf[:0]
		if buf, err = b.codec.Append(buf, e); err != nil {
			return err
		}
		if err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	b.parts = append(b.parts, btpPart{file: file, count: int64(len(b.buffer)), minTS: syn.MinTS, maxTS: syn.MaxTS, class: 0, syn: syn})
	b.buffer = nil
	return b.bound()
}

// bound sort-merges any run of mergeFactor time-adjacent same-class
// partitions into the next class, repeating until no such run exists.
// Because partitions are created in time order and merges preserve
// adjacency, time ranges across partitions stay disjoint and ordered.
func (b *BTP) bound() error {
	sorter := &extsort.Sorter{Disk: b.disk, Codec: b.codec, MemBudget: 1 << 20, TmpPrefix: b.name + ".btpmerge"}
	for {
		i := b.findMergeRun()
		if i < 0 {
			return nil
		}
		group := b.parts[i : i+b.mergeFactor]
		names := make([]string, len(group))
		counts := make([]int64, len(group))
		minTS, maxTS := group[0].minTS, group[0].maxTS
		// The merged partition's synopsis is the exact union of its inputs'
		// — every recorded statistic is a monotone envelope, so no re-scan
		// of the merged run is needed. An unknown input poisons the union:
		// treating it as empty would produce a too-tight (wrong) bound.
		msyn := zonestat.New(b.cfg.Segments, b.cfg.Bits)
		for j, p := range group {
			names[j] = p.file
			counts[j] = p.count
			if p.minTS < minTS {
				minTS = p.minTS
			}
			if p.maxTS > maxTS {
				maxTS = p.maxTS
			}
			if msyn != nil {
				if p.syn == nil {
					msyn = nil
				} else {
					msyn.Union(p.syn)
				}
			}
		}
		b.seq++
		merged := fmt.Sprintf("%s.btp.%06d", b.name, b.seq)
		total, err := sorter.MergeSorted(names, counts, merged)
		if err != nil {
			return err
		}
		for _, p := range group {
			if err := b.disk.Remove(p.file); err != nil {
				return err
			}
		}
		newPart := btpPart{file: merged, count: total, minTS: minTS, maxTS: maxTS, class: group[0].class + 1, syn: msyn}
		rest := append([]btpPart{}, b.parts[:i]...)
		rest = append(rest, newPart)
		rest = append(rest, b.parts[i+b.mergeFactor:]...)
		b.parts = rest
		b.merges++
	}
}

// findMergeRun returns the index of the first run of mergeFactor
// consecutive partitions sharing a class, or -1.
func (b *BTP) findMergeRun() int {
	for i := 0; i+b.mergeFactor <= len(b.parts); i++ {
		c := b.parts[i].class
		ok := true
		for j := 1; j < b.mergeFactor; j++ {
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

// Count implements Scheme.
func (b *BTP) Count() int64 { return b.count }

// Partitions implements Scheme.
func (b *BTP) Partitions() int { return len(b.parts) }

// Merges returns the number of partition merges performed.
func (b *BTP) Merges() int64 { return b.merges }

// ApproxSearch implements Scheme: the buffer is scanned and each
// intersecting partition is probed at the query key's page. Partitions are
// independent sorted runs, so probes execute concurrently on the worker
// pool.
func (b *BTP) ApproxSearch(q index.Query, k int) ([]index.Result, error) {
	ctx := index.AcquireCtx(q, b.cfg)
	defer ctx.Release()
	col := index.NewCollector(k)
	if err := b.approxInto(q, col, ctx); err != nil {
		return nil, err
	}
	return col.Results(), nil
}

// approxInto runs the approximate phase into col with an already-acquired
// context, so ExactSearch shares one context (and one table fill) across
// both phases.
func (b *BTP) approxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	if err := b.scanBuffer(q, col, ctx.Scratch0()); err != nil {
		return err
	}
	return b.forEachPart(q, ctx, col, (*BTP).probePart)
}

// ExactSearch implements Scheme: the approximate phase seeds the bound,
// then a pruned scan of every intersecting partition, partitions scanning
// concurrently. The buffer was already fully evaluated by the approximate
// phase (deduplication by ID makes re-offering it a no-op), so only the
// partitions need the full pass. Partitions whose range falls outside the
// window are skipped wholesale — the bandwidth saving TP pioneered, here
// with a bounded partition count.
func (b *BTP) ExactSearch(q index.Query, k int) ([]index.Result, error) {
	ctx := index.AcquireCtx(q, b.cfg)
	defer ctx.Release()
	col := index.NewCollector(k)
	if err := b.approxInto(q, col, ctx); err != nil {
		return nil, err
	}
	if err := b.forEachPart(q, ctx, col, (*BTP).scanPart); err != nil {
		return nil, err
	}
	return col.Results(), nil
}

// forEachPart applies scan (probePart or scanPart, as a method expression)
// to every partition intersecting the query window through the planned-probe executor (index.ProbeUnits) — the same
// discipline as CLSM runs, with the same determinism guarantee. A partition
// is bounded by its synopsis's envelope MINDIST; window filtering happens
// here, outside the planner's skip count.
func (b *BTP) forEachPart(q index.Query, ctx *index.SearchCtx, col *index.Collector, scan func(*BTP, btpPart, index.Query, *index.Collector, *index.Scratch) error) error {
	var active []btpPart
	for _, p := range b.parts {
		if intersects(q, p.minTS, p.maxTS) {
			active = append(active, p)
		}
	}
	scs := ctx.Scratches(b.pool.WorkersFor(len(active)))
	return index.ProbeUnits(index.ProbePlan{
		Planner: b.planner, Pool: b.pool, Trace: ctx.Trace, Kind: "partition", Units: ctx.PlanUnits(len(active)),
	}, col, func(i int) float64 {
		return ctx.P.SynopsisBoundSq(active[i].syn)
	}, func(i, w int, col *index.Collector) error {
		return scan(b, active[i], q, col, scs[w])
	})
}

func (b *BTP) scanBuffer(q index.Query, col *index.Collector, sc *index.Scratch) error {
	for _, e := range b.buffer {
		if !q.InWindow(e.TS) {
			continue
		}
		if col.SkipSq(sc.P.MinDistSqKey(e.Key)) {
			continue
		}
		dSq, err := index.TrueDistSq(q, e, b.raw, col.WorstSq(), sc)
		if err != nil {
			return err
		}
		col.AddSq(e.ID, e.TS, dSq)
	}
	return nil
}

func (b *BTP) perPage() int { return b.disk.PageSize() / b.codec.Size() }

// probePart binary-searches a partition's pages for the query key and
// evaluates the covering page.
func (b *BTP) probePart(p btpPart, q index.Query, col *index.Collector, sc *index.Scratch) error {
	perPage := b.perPage()
	pages := int((p.count + int64(perPage) - 1) / int64(perPage))
	if pages == 0 {
		return nil
	}
	lo, hi := 0, pages-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		h, err := b.reader.PinPage(p.file, int64(mid))
		if err != nil {
			return err
		}
		less := q.Key.Less(record.DecodeKeyOnly(h.Data()))
		h.Release()
		if less {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	return b.evalPage(p, lo, q, col, sc)
}

// scanPart scans a partition sequentially with squared lower-bound pruning:
// every page, in order, through one storage cursor.
func (b *BTP) scanPart(p btpPart, q index.Query, col *index.Collector, sc *index.Scratch) error {
	perPage := b.perPage()
	pages := int((p.count + int64(perPage) - 1) / int64(perPage))
	cur := b.reader.Scan(p.file, 0, int64(pages))
	defer cur.Close()
	for pg := 0; pg < pages; pg++ {
		data, err := cur.Pin(int64(pg))
		if err != nil {
			return err
		}
		if _, err := index.EvalPage(q, b.pageOf(p, pg, data), b.raw, col, sc); err != nil {
			return err
		}
	}
	return nil
}

// pageOf describes page pg of partition p, pinned as data, to the page
// evaluator.
func (b *BTP) pageOf(p btpPart, pg int, data []byte) index.Page {
	perPage := b.perPage()
	n := perPage
	if rem := p.count - int64(pg)*int64(perPage); rem < int64(n) {
		n = int(rem)
	}
	return index.FixedPage(data, n, b.codec)
}

// evalPage evaluates the page probePart settled on straight from the page
// bytes through the squared-space pipeline: window filter and lower bound on
// the encoded header, early-abandoning squared verification on survivors.
func (b *BTP) evalPage(p btpPart, page int, q index.Query, col *index.Collector, sc *index.Scratch) error {
	h, err := b.reader.PinPage(p.file, int64(page))
	if err != nil {
		return err
	}
	_, err = index.EvalPage(q, b.pageOf(p, page, h.Data()), b.raw, col, sc)
	h.Release()
	return err
}

var _ Scheme = (*BTP)(nil)
