// Package ctree implements CoconutTree (CTree), the read-optimized index of
// the Coconut infrastructure: a compact and contiguous B+-tree over sortable
// summarizations, bulk-loaded bottom-up with two-pass external sorting.
// Leaves live contiguously in a single file in key order, so index
// construction and exact-search scans are sequential I/O. A configurable
// leaf fill factor leaves slack for later inserts, trading space and scan
// length for cheaper updates — the read/write knob the demo exposes.
//
// The leaf file is the sort's output: the bulk load describes its pages to
// internal/extsort (encoding, fill factor) and takes their resident summary
// — internal/run's, the one every sorted run keeps — from the observer of
// the pass that writes them. The package assembles a page itself only where
// it rewrites one: the insert path's encodePage.
package ctree

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/extsort"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/record"
	"repro/internal/run"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// Options configures a CTree build.
type Options struct {
	Disk   storage.Backend
	Name   string       // file name prefix on the disk
	Config index.Config // summarization shape; Materialized selects CTreeFull
	// FillFactor is the fraction of each leaf page populated at build time,
	// in (0,1]; the remainder is slack for inserts. Default 1.0 (fully
	// packed, the read-optimal layout).
	FillFactor float64
	// MemBudget is the working memory for external sorting, in bytes.
	// Default 1 MiB.
	MemBudget int
	// Raw is consulted by non-materialized searches to fetch original
	// (z-normalized) series. Required unless Config.Materialized. When
	// Parallelism exceeds 1, Raw must be safe for concurrent Get calls.
	Raw series.RawStore
	// Reader serves every page read of the tree (leaf scans, probes, and
	// the insert path's read-modify-write). nil selects the Disk itself —
	// the uncached behaviour; pass a buffer pool over the same disk to
	// serve hot leaf pages from memory. Writes always go to Disk, which
	// invalidates through any attached pool.
	Reader storage.PageReader
	// Parallelism bounds the worker goroutines used per operation: exact
	// and range searches scan leaf ranges concurrently, and construction's
	// external sort sorts in-memory runs on workers. 1 keeps the serial
	// paths; values <= 0 select GOMAXPROCS. Search results and the built
	// index are identical at every setting.
	Parallelism int
	// Planner carries the query planner's switch and skip counter. nil
	// plans with defaults (zone-map leaf skipping on); it may be shared
	// across many indexes.
	Planner *index.Planner
	// Compress selects the packed page encoding for leaf pages
	// (delta/bit-packed keys, frame-of-reference IDs and timestamps): each
	// leaf holds as many entries as its compressed bytes allow instead of a
	// fixed record count. The encoding is a per-tree build-time property
	// recorded in the metadata; searches and inserts are answer-identical
	// either way.
	Compress bool
}

func (o *Options) setDefaults() error {
	if o.Disk == nil {
		return fmt.Errorf("ctree: Disk is required")
	}
	if o.Name == "" {
		o.Name = "ctree"
	}
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.FillFactor == 0 {
		o.FillFactor = 1.0
	}
	if o.FillFactor <= 0 || o.FillFactor > 1 {
		return fmt.Errorf("ctree: FillFactor %v out of (0,1]", o.FillFactor)
	}
	if o.MemBudget <= 0 {
		o.MemBudget = 1 << 20
	}
	if o.Parallelism <= 0 {
		o.Parallelism = parallel.Resolve(o.Parallelism)
	}
	return nil
}

// Tree is a built CoconutTree. Its leaf level keeps a sorted run's resident
// summary (run.Summary), which plays the role of the B+-tree's internal
// levels: it always fits in memory, as in the paper's implementation.
type Tree struct {
	opts     Options
	store    run.Store // the leaf file's reader, planner, entry codec and raw store
	leaves   run.Run   // the leaf file: count, synopsis, encoding and summary
	capacity int       // max entries per leaf page (fixed-size layout)
	nextID64 int64     // next auto-assigned insert ID
	// Insert-path scratch, one of each per tree because inserts are
	// externally serialized: the page a leaf is read into and re-encoded
	// into (both backends copy what they are handed to write), and, for a
	// packed tree, the builder whose trial fit is also the encoding.
	pageBuf []byte
	pb      *record.PageBuilder
	pool    *parallel.Pool
}

// PlanSynopses implements zonestat.Provider for shard-level planning: the
// whole tree is one probe unit, summarized by one synopsis. complete is
// false for trees opened from pre-statistics metadata.
func (t *Tree) PlanSynopses() ([]*zonestat.Synopsis, bool) {
	if t.leaves.Syn == nil {
		return nil, false
	}
	return []*zonestat.Synopsis{t.leaves.Syn}, true
}

var _ zonestat.Provider = (*Tree)(nil)

// Name implements index.Index; "CTree" or "CTreeFull" when materialized.
func (t *Tree) Name() string {
	if t.opts.Config.Materialized {
		return "CTreeFull"
	}
	return "CTree"
}

// Count returns the number of indexed series.
func (t *Tree) Count() int64 { return t.leaves.Count }

// Config returns the summarization configuration the tree was built with.
func (t *Tree) Config() index.Config { return t.opts.Config }

// Leaves returns the number of leaf pages (the index footprint in pages).
func (t *Tree) Leaves() int { return t.leaves.Sum.Pages() }

// SetParallelism re-sizes the search worker pool (n <= 0 selects
// GOMAXPROCS; 1 is serial). Parallelism is not persisted, so reopened
// trees default to GOMAXPROCS — call this after Open to restore a serial
// configuration. Call only while no search is in flight.
func (t *Tree) SetParallelism(n int) { t.pool = parallel.New(n) }

// Build constructs a CTree over all series in src, assigning IDs 0..n-1 in
// source order and timestamp ts to every entry. Construction is bottom-up:
// summarize sequentially, then external-sort — and the sort's output is the
// leaf level.
func Build(opts Options, src series.RawStore, ts int64) (*Tree, error) {
	return BuildTS(opts, src, func(int) int64 { return ts })
}

// BuildTS is Build with a per-ID timestamp function (used by the streaming
// schemes to stamp entries with arrival time). A failed build leaves no file
// behind (removed best effort; the first error is returned).
func BuildTS(opts Options, src series.RawStore, tsOf func(id int) int64) (*Tree, error) {
	n := src.Count()
	return bulkLoad(opts, int64(n), func(t *Tree, sorter *extsort.Sorter) (err error) {
		// Pass 0: summarize every series into an unsorted entry file
		// (sequential read of the source, sequential write of entries).
		disk, unsorted, codec := t.opts.Disk, t.opts.Name+".unsorted", t.store.Codec()
		w, err := storage.NewRecordWriter(disk, unsorted, codec.Size())
		if err != nil {
			return err
		}
		defer func() {
			if err != nil {
				_ = disk.Remove(unsorted) // best effort: err is what the caller must see
				_ = disk.Remove(t.leaves.File)
			}
		}()
		buf := make([]byte, 0, codec.Size())
		for id := 0; id < n; id++ {
			s, err := src.Get(id)
			if err != nil {
				return err
			}
			key, z := t.opts.Config.Summarize(s)
			e := record.Entry{Key: key, ID: int64(id), TS: tsOf(id)}
			if t.opts.Config.Materialized {
				e.Payload = z
			}
			if buf, err = codec.Append(buf[:0], e); err != nil {
				return err
			}
			if err := w.Write(buf); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		// Passes 1..2: two-pass external sort; in-memory runs sort on the
		// worker pool while completed runs stream to disk, and the final
		// merge writes the leaves at the fill factor.
		if _, err := sorter.Sort(unsorted, int64(n), t.leaves.File); err != nil {
			return err
		}
		return disk.Remove(unsorted)
	})
}

// BuildFromEntries bulk-loads a tree from entries already in (Key, ID) order
// (used by the streaming partitions, whose flushes are sorted in memory): one
// sequential write of the leaf file.
func BuildFromEntries(opts Options, sorted []record.Entry) (*Tree, error) {
	return bulkLoad(opts, int64(len(sorted)), func(t *Tree, sorter *extsort.Sorter) error {
		return sorter.WriteRun(t.leaves.File, sorted)
	})
}

// bulkLoad returns the tree over the n entries write puts into the leaf file
// through sorter, whose output is described as the tree's leaf level: its
// encoding, its fill factor, and the summary builder as its observer, which
// takes the leaf summary and the synopsis from the pass that writes the
// pages.
func bulkLoad(opts Options, n int64, write func(t *Tree, sorter *extsort.Sorter) error) (*Tree, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	t := newTree(opts)
	if err := t.initLayout(); err != nil {
		return nil, err
	}
	b := run.NewBuilder(opts.Config, n, t.target(), zonestat.New(opts.Config.Segments, opts.Config.Bits))
	sorter := &extsort.Sorter{
		Disk: opts.Disk, Codec: t.store.Codec(), MemBudget: opts.MemBudget,
		TmpPrefix: opts.Name + ".sort", Parallelism: opts.Parallelism,
		Output: extsort.Output{Packed: t.leaves.Packed, Fill: opts.FillFactor, Observer: b.Observe},
	}
	if err := write(t, sorter); err != nil {
		return nil, err
	}
	t.leaves = b.Run(t.leaves.File, t.leaves.Packed)
	t.nextID64 = n
	return t, nil
}

// newTree returns the tree of opts, its leaf file named but not described.
func newTree(opts Options) *Tree {
	return &Tree{
		opts:    opts,
		store:   run.NewStore(opts.Disk, opts.Reader, opts.Planner, opts.Config, opts.Raw),
		leaves:  run.Run{File: opts.Name + ".leaves"},
		pageBuf: make([]byte, opts.Disk.PageSize()),
		pool:    parallel.New(opts.Parallelism),
	}
}

// initLayout derives the per-leaf capacities from the page size and the
// selected encoding. Fixed-size leaves hold a fixed record count; packed
// leaves hold whatever their compressed bytes allow, so only the worst-case
// single-entry shape is validated up front.
func (t *Tree) initLayout() error {
	pageSize, codec := t.opts.Disk.PageSize(), t.store.Codec()
	if t.opts.Compress {
		if !record.PackedFits(codec, pageSize) {
			return fmt.Errorf("ctree: packed entry shape exceeds page size %d", pageSize)
		}
		t.leaves.Packed = true
		var err error
		if t.pb, err = record.NewPageBuilder(codec, pageSize); err != nil {
			return err
		}
	}
	perPage := pageSize / codec.Size()
	if perPage < 1 && !t.leaves.Packed {
		return fmt.Errorf("ctree: entry size %d exceeds page size %d", codec.Size(), pageSize)
	}
	t.capacity = perPage
	return nil
}

// target is how many entries a fixed-size leaf holds when built: the fill
// factor's share of a page, and at least one.
func (t *Tree) target() int { return max(1, int(float64(t.capacity)*t.opts.FillFactor)) }

// readLeaf decodes all live entries of leaf li into the insert-path page
// buffer. The returned entries share no storage with the page buffer.
func (t *Tree) readLeaf(li int) ([]record.Entry, error) {
	buf, codec := t.pageBuf, t.store.Codec()
	if _, err := t.store.Reader.ReadPage(t.leaves.File, t.leaves.Sum.Phys(li), buf); err != nil {
		return nil, err
	}
	entry := func(i int) (record.Entry, error) { return codec.Decode(buf[i*codec.Size() : (i+1)*codec.Size()]) }
	if t.leaves.Packed {
		v, err := codec.ViewPacked(buf)
		if err != nil {
			return nil, err
		}
		entry = func(i int) (record.Entry, error) { return v.Entry(i, codec) }
	}
	out := make([]record.Entry, t.leaves.Sum.Entries(li))
	for i := range out {
		var err error
		if out[i], err = entry(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Insert adds one series top-down: locate the target leaf by key, insert in
// place if the fill-factor slack allows, otherwise split the leaf. Splits
// append the new page at the end of the file, eroding contiguity — exactly
// the degradation the fill-factor knob trades against.
func (t *Tree) Insert(s series.Series, ts int64) error {
	key, z := t.opts.Config.Summarize(s)
	e := record.Entry{Key: key, ID: t.nextID64, TS: ts}
	if t.opts.Config.Materialized {
		e.Payload = z
	}
	return t.InsertEntry(e)
}

// InsertEntry adds a pre-summarized entry with caller-controlled ID — used
// by the streaming schemes, which summarize once and own global IDs.
func (t *Tree) InsertEntry(e record.Entry) error {
	if e.ID >= t.nextID64 {
		t.nextID64 = e.ID + 1
	}
	// Widening the synopsis before the write can only leave it too wide on a
	// failed insert — safe; too narrow would be a wrong bound.
	if t.leaves.Syn != nil {
		t.leaves.Syn.Add(e.Key, e.TS)
	}
	m := t.leaves.Sum
	li := m.Find(e.Key) // 0 in an empty tree, whose first insert writes leaf 0
	var entries []record.Entry
	if m.Pages() > 0 {
		var err error
		if entries, err = t.readLeaf(li); err != nil {
			return err
		}
	}
	pos := sort.Search(len(entries), func(i int) bool { return e.Less(entries[i]) })
	entries = slices.Insert(entries, pos, e)

	page, fits, err := t.encodePage(entries)
	if err != nil {
		return err
	}
	lo := entries
	if !fits {
		// Split: the low half stays in place; the high half becomes a new
		// leaf appended at the end of the file. The leaves stay in key
		// order, so the page map diverges from the identity mapping here.
		lo = entries[:len(entries)/2]
		if page, err = t.encodeFitting(lo); err != nil {
			return err
		}
	}
	if err := t.opts.Disk.WritePage(t.leaves.File, m.Phys(li), page); err != nil {
		return err
	}
	var newPage int64
	if !fits {
		if page, err = t.encodeFitting(entries[len(lo):]); err != nil {
			return err
		}
		if newPage, err = t.opts.Disk.AppendPage(t.leaves.File, page); err != nil {
			return err
		}
	}
	// The summary follows the pages: each envelope is exact, so widening
	// it by the one new entry is what recomputing it would give.
	t.leaves.Count++
	m.Insert(li, pos, e)
	if !fits {
		m.Split(li, len(lo), newPage)
	}
	return nil
}

// encodePage renders entries as one leaf page in the insert-path page
// buffer, or reports that they do not fit one: a record count against the
// capacity for the fixed layout, a trial fit for the packed one (compressed
// size is data-dependent) — and the builder that has taken every entry is
// the one that encodes them. The returned page aliases the buffer and is
// valid until the next call.
func (t *Tree) encodePage(entries []record.Entry) (page []byte, fits bool, err error) {
	if !t.leaves.Packed {
		if len(entries) > t.capacity {
			return nil, false, nil
		}
		page = t.pageBuf[:0]
		for _, e := range entries {
			if page, err = t.store.Codec().Append(page, e); err != nil {
				return nil, false, err
			}
		}
		return page, true, nil
	}
	t.pb.Reset()
	for _, e := range entries {
		ok, err := t.pb.TryAdd(e)
		if err != nil || !ok {
			return nil, false, err
		}
	}
	if _, err := t.pb.Encode(t.pageBuf); err != nil {
		return nil, false, err
	}
	return t.pageBuf, true, nil
}

// encodeFitting is encodePage for entries that must fit: half of a leaf
// that overflowed by one entry, or a single entry.
func (t *Tree) encodeFitting(entries []record.Entry) ([]byte, error) {
	page, fits, err := t.encodePage(entries)
	if err == nil && !fits {
		err = fmt.Errorf("ctree: %d entries overflow a leaf page", len(entries))
	}
	return page, err
}
