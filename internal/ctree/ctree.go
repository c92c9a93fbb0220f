// Package ctree implements CoconutTree (CTree), the read-optimized index of
// the Coconut infrastructure: a compact and contiguous B+-tree over sortable
// summarizations, bulk-loaded bottom-up with two-pass external sorting.
// Leaves live contiguously in a single file in key order, so index
// construction and exact-search scans are sequential I/O. A configurable
// leaf fill factor leaves slack for later inserts, trading space and scan
// length for cheaper updates — the read/write knob the demo exposes.
package ctree

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/extsort"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/sortable"
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
	if o.Reader == nil {
		o.Reader = o.Disk
	}
	return nil
}

// leaf is the in-memory directory entry for one on-disk leaf page. The
// directory plays the role of the B+-tree's internal levels; with thousands
// of entries per page the internal levels always fit in memory, as in the
// paper's implementation.
type leaf struct {
	minKey sortable.Key // smallest key in the leaf
	count  int          // live entries in the page
}

// Tree is a built CoconutTree.
type Tree struct {
	opts     Options
	codec    record.Codec
	leafFile string
	leaves   []leaf
	// pageOf maps directory position (key order) to physical page number.
	// It is nil while the bulk-loaded identity mapping holds and is
	// materialized by the first split, whose appended page breaks it.
	pageOf   []int64
	packed   bool   // leaf pages use the packed codec
	capacity int    // max entries per leaf page (fixed-size layout)
	target   int    // entries per leaf at build time (fill factor applied)
	count    int64  // total entries
	nextID64 int64  // next auto-assigned insert ID
	pageBuf  []byte // insert-path scratch; searches allocate their own
	pool     *parallel.Pool
	// Planner statistics. synMin/synMax are flat per-leaf symbol envelopes:
	// leaf li's envelope occupies [li*Segments, (li+1)*Segments). They are
	// built during packLeaves, maintained by inserts and splits, and
	// persisted with the directory; nil (a tree opened from pre-statistics
	// metadata) disables zone-map skipping until the tree is rebuilt. syn is
	// the whole-tree synopsis the sharded fan-out plans with.
	synMin []uint8
	synMax []uint8
	syn    *zonestat.Synopsis
	envOK  bool // per-leaf envelopes are maintained (false after a v1 Open)
}

// hasEnv reports whether per-leaf envelopes are available for planning.
func (t *Tree) hasEnv() bool { return t.envOK }

// leafEnv returns leaf li's symbol envelope (valid only when hasEnv).
func (t *Tree) leafEnv(li int) (minSym, maxSym []uint8) {
	w := t.opts.Config.Segments
	return t.synMin[li*w : (li+1)*w], t.synMax[li*w : (li+1)*w]
}

// setLeafEnv recomputes leaf li's envelope from its (decoded) entries; the
// envelope slots must already exist.
func (t *Tree) setLeafEnv(li int, entries []record.Entry) {
	w, bits := t.opts.Config.Segments, t.opts.Config.Bits
	mn, mx := t.leafEnv(li)
	for ei, e := range entries {
		syms := sortable.Symbols(e.Key, w, bits)
		if ei == 0 {
			copy(mn, syms[:])
			copy(mx, syms[:])
			continue
		}
		widenEnv(mn, mx, syms[:])
	}
}

// widenEnv widens the symbol envelope [mn, mx] to cover syms.
func widenEnv(mn, mx, syms []uint8) {
	for s := range mn {
		if syms[s] < mn[s] {
			mn[s] = syms[s]
		}
		if syms[s] > mx[s] {
			mx[s] = syms[s]
		}
	}
}

// insertEnvSlot makes room for a new leaf's envelope at directory position
// li (the split path inserts mid-directory; appends pass li == len-1).
func (t *Tree) insertEnvSlot(li int) {
	w := t.opts.Config.Segments
	t.synMin = append(t.synMin, make([]uint8, w)...)
	t.synMax = append(t.synMax, make([]uint8, w)...)
	copy(t.synMin[(li+1)*w:], t.synMin[li*w:])
	copy(t.synMax[(li+1)*w:], t.synMax[li*w:])
}

// PlanSynopses implements zonestat.Provider for shard-level planning: the
// whole tree is one probe unit, summarized by one synopsis. complete is
// false for trees opened from pre-statistics metadata.
func (t *Tree) PlanSynopses() ([]*zonestat.Synopsis, bool) {
	if t.syn == nil {
		return nil, false
	}
	return []*zonestat.Synopsis{t.syn}, true
}

var _ zonestat.Provider = (*Tree)(nil)

func (t *Tree) nextID() int64 {
	id := t.nextID64
	t.nextID64++
	return id
}

// Name implements index.Index; "CTree" or "CTreeFull" when materialized.
func (t *Tree) Name() string {
	if t.opts.Config.Materialized {
		return "CTreeFull"
	}
	return "CTree"
}

// Count returns the number of indexed series.
func (t *Tree) Count() int64 { return t.count }

// Config returns the summarization configuration the tree was built with.
func (t *Tree) Config() index.Config { return t.opts.Config }

// Leaves returns the number of leaf pages (the index footprint in pages).
func (t *Tree) Leaves() int { return len(t.leaves) }

// SetParallelism re-sizes the search worker pool (n <= 0 selects
// GOMAXPROCS; 1 is serial). Parallelism is not persisted, so reopened
// trees default to GOMAXPROCS — call this after Open to restore a serial
// configuration. Call only while no search is in flight.
func (t *Tree) SetParallelism(n int) { t.pool = parallel.New(n) }

// SetPlanner attaches the query planner (switch, skip counter).
// Like SetParallelism it is not persisted; call after Open. Call only while
// no search is in flight.
func (t *Tree) SetPlanner(pl *index.Planner) { t.opts.Planner = pl }

// UseReader routes subsequent page reads through r — typically a buffer
// pool over the tree's disk (nil restores the uncached disk). Like
// SetParallelism it is not persisted; call after Open to re-attach a
// cache. Call only while no search is in flight.
func (t *Tree) UseReader(r storage.PageReader) {
	if r == nil {
		r = t.opts.Disk
	}
	t.opts.Reader = r
}

// Build constructs a CTree over all series in src, assigning IDs 0..n-1 in
// source order and timestamp ts to every entry. Construction is bottom-up:
// summarize sequentially, external-sort, then pack leaves contiguously.
func Build(opts Options, src series.RawStore, ts int64) (*Tree, error) {
	return BuildTS(opts, src, func(int) int64 { return ts })
}

// BuildTS is Build with a per-ID timestamp function (used by the streaming
// schemes to stamp entries with arrival time).
func BuildTS(opts Options, src series.RawStore, tsOf func(id int) int64) (*Tree, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	t := &Tree{
		opts:    opts,
		codec:   opts.Config.Codec(),
		pageBuf: make([]byte, opts.Disk.PageSize()),
		pool:    parallel.New(opts.Parallelism),
	}
	if err := t.initLayout(); err != nil {
		return nil, err
	}

	// Pass 0: summarize every series into an unsorted entry file
	// (sequential read of the source, sequential write of entries).
	unsorted := opts.Name + ".unsorted"
	w, err := storage.NewRecordWriter(opts.Disk, unsorted, t.codec.Size())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, t.codec.Size())
	n := src.Count()
	for id := 0; id < n; id++ {
		s, err := src.Get(id)
		if err != nil {
			return nil, err
		}
		key, z := opts.Config.Summarize(s)
		e := record.Entry{Key: key, ID: int64(id), TS: tsOf(id)}
		if opts.Config.Materialized {
			e.Payload = z
		}
		buf = buf[:0]
		if buf, err = t.codec.Append(buf, e); err != nil {
			return nil, err
		}
		if err := w.Write(buf); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}

	// Passes 1..2: two-pass external sort; in-memory runs sort on the
	// worker pool while completed runs stream to disk.
	sorter := &extsort.Sorter{
		Disk: opts.Disk, Codec: t.codec, MemBudget: opts.MemBudget,
		TmpPrefix: opts.Name + ".sort", Parallelism: opts.Parallelism,
	}
	sorted := opts.Name + ".sorted"
	if _, err := sorter.Sort(unsorted, int64(n), sorted); err != nil {
		return nil, err
	}
	if err := opts.Disk.Remove(unsorted); err != nil {
		return nil, err
	}

	// Final pass: pack leaves at the fill factor, sequential write.
	if err := t.packLeaves(sorted, int64(n)); err != nil {
		return nil, err
	}
	if err := opts.Disk.Remove(sorted); err != nil {
		return nil, err
	}
	t.nextID64 = int64(n)
	return t, nil
}

// BuildFromEntries bulk-loads a tree from an already-sorted entry file
// (used by the streaming partitions, whose flushes are pre-sorted). The
// input file is consumed (removed).
func BuildFromEntries(opts Options, sortedFile string, n int64) (*Tree, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	t := &Tree{
		opts:    opts,
		codec:   opts.Config.Codec(),
		pageBuf: make([]byte, opts.Disk.PageSize()),
		pool:    parallel.New(opts.Parallelism),
	}
	if err := t.initLayout(); err != nil {
		return nil, err
	}
	if err := t.packLeaves(sortedFile, n); err != nil {
		return nil, err
	}
	t.nextID64 = n
	return t, opts.Disk.Remove(sortedFile)
}

// initLayout derives the per-leaf capacities from the page size and the
// selected encoding. Fixed-size leaves hold a fixed record count; packed
// leaves hold whatever their compressed bytes allow, so only the worst-case
// single-entry shape is validated up front.
func (t *Tree) initLayout() error {
	pageSize := t.opts.Disk.PageSize()
	if t.opts.Compress {
		if !record.PackedFits(t.codec, pageSize) {
			return fmt.Errorf("ctree: packed entry shape exceeds page size %d", pageSize)
		}
		t.packed = true
	}
	perPage := pageSize / t.codec.Size()
	if perPage < 1 && !t.packed {
		return fmt.Errorf("ctree: entry size %d exceeds page size %d", t.codec.Size(), pageSize)
	}
	t.capacity = perPage
	t.target = int(math.Max(1, math.Floor(float64(perPage)*t.opts.FillFactor)))
	return nil
}

func (t *Tree) packLeaves(sorted string, n int64) error {
	t.leafFile = t.opts.Name + ".leaves"
	if err := t.opts.Disk.Create(t.leafFile); err != nil {
		return err
	}
	r, err := storage.NewRecordReader(t.opts.Disk, sorted, t.codec.Size(), n)
	if err != nil {
		return err
	}
	recSize := t.codec.Size()
	pageSize := t.opts.Disk.PageSize()
	w, bits := t.opts.Config.Segments, t.opts.Config.Bits
	t.syn = zonestat.New(w, bits)
	t.envOK = true
	var envMin, envMax [sortable.MaxSegments]uint8
	// Leaf pages are assembled in a write-behind chunk and appended in
	// batches, keeping the leaf file write stream sequential even though it
	// interleaves with reads of the sorted input.
	const chunkPages = 16
	chunk := make([]byte, 0, chunkPages*pageSize)
	page := make([]byte, pageSize)
	inPage := 0
	var first sortable.Key
	var pb *record.PageBuilder
	packTarget := 0
	if t.packed {
		var err error
		if pb, err = record.NewPageBuilder(t.codec, pageSize); err != nil {
			return err
		}
		// The fill factor governs bytes, not entries: a packed leaf closes
		// once its encoded size crosses the fraction, leaving the remaining
		// bytes as insert slack. At factor 1.0 the threshold is unreachable
		// (TryAdd caps below the page size), so leaves close only when full.
		packTarget = int(math.Floor(float64(pageSize) * t.opts.FillFactor))
	}
	flushChunk := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if _, err := t.opts.Disk.AppendPages(t.leafFile, chunk); err != nil {
			return err
		}
		chunk = chunk[:0]
		return nil
	}
	closeLeaf := func() error {
		cnt := inPage
		if t.packed {
			cnt = pb.Count()
		}
		if cnt == 0 {
			return nil
		}
		if t.packed {
			if _, err := pb.Encode(page); err != nil {
				return err
			}
		} else {
			for i := inPage * recSize; i < pageSize; i++ {
				page[i] = 0
			}
		}
		chunk = append(chunk, page...)
		t.leaves = append(t.leaves, leaf{minKey: first, count: cnt})
		t.synMin = append(t.synMin, envMin[:w]...)
		t.synMax = append(t.synMax, envMax[:w]...)
		inPage = 0
		if len(chunk) >= chunkPages*pageSize {
			return flushChunk()
		}
		return nil
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		key := record.DecodeKeyOnly(rec)
		syms := sortable.Symbols(key, w, bits)
		t.syn.AddSyms(key, syms[:w], record.DecodeTS(rec))
		if t.packed {
			// Add before touching the envelope: a rejected entry belongs to
			// the next leaf, whose statistics it must seed, not widen ours.
			e, err := t.codec.Decode(rec)
			if err != nil {
				return err
			}
			ok, err := pb.TryAdd(e)
			if err != nil {
				return err
			}
			if !ok {
				if err := closeLeaf(); err != nil {
					return err
				}
				if ok, err = pb.TryAdd(e); err != nil {
					return err
				} else if !ok {
					return fmt.Errorf("ctree: entry rejected by empty packed page")
				}
			}
			if pb.Count() == 1 {
				first = key
				envMin, envMax = syms, syms
			} else {
				widenEnv(envMin[:w], envMax[:w], syms[:])
			}
			t.count++
			if pb.EncodedBytes() >= packTarget {
				if err := closeLeaf(); err != nil {
					return err
				}
			}
			continue
		}
		if inPage == 0 {
			first = key
			envMin, envMax = syms, syms
		} else {
			widenEnv(envMin[:w], envMax[:w], syms[:])
		}
		copy(page[inPage*recSize:], rec)
		inPage++
		t.count++
		if inPage == t.target {
			if err := closeLeaf(); err != nil {
				return err
			}
		}
	}
	if err := closeLeaf(); err != nil {
		return err
	}
	return flushChunk()
}

// findLeaf returns the index of the leaf whose key range contains k: the
// last leaf with minKey <= k (or 0).
func (t *Tree) findLeaf(k sortable.Key) int {
	i := sort.Search(len(t.leaves), func(i int) bool { return k.Less(t.leaves[i].minKey) })
	if i == 0 {
		return 0
	}
	return i - 1
}

// readLeaf decodes all live entries of leaf li into the insert-path page
// buffer. The returned entries share no storage with the page buffer.
func (t *Tree) readLeaf(li int) ([]record.Entry, error) {
	return t.readLeafBuf(li, t.pageBuf)
}

// readLeafBuf is readLeaf with a caller-owned page buffer, so concurrent
// searches (and search workers) never share scratch space.
func (t *Tree) readLeafBuf(li int, buf []byte) ([]record.Entry, error) {
	if _, err := t.opts.Reader.ReadPage(t.leafFile, t.pageNum(li), buf); err != nil {
		return nil, err
	}
	if t.packed {
		v, err := t.codec.ViewPacked(buf)
		if err != nil {
			return nil, err
		}
		out := make([]record.Entry, 0, v.Count())
		for i := 0; i < v.Count(); i++ {
			e, err := v.Entry(i, t.codec)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		return out, nil
	}
	recSize := t.codec.Size()
	out := make([]record.Entry, 0, t.leaves[li].count)
	for i := 0; i < t.leaves[li].count; i++ {
		e, err := t.codec.Decode(buf[i*recSize : (i+1)*recSize])
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Insert adds one series top-down: locate the target leaf by key, insert in
// place if the fill-factor slack allows, otherwise split the leaf. Splits
// append the new page at the end of the file, eroding contiguity — exactly
// the degradation the fill-factor knob trades against.
func (t *Tree) Insert(s series.Series, ts int64) error {
	key, z := t.opts.Config.Summarize(s)
	e := record.Entry{Key: key, ID: t.nextID(), TS: ts}
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
	// Widening the statistics before the write can only leave them too wide
	// on a failed insert — safe; too narrow would be a wrong bound.
	syms := sortable.Symbols(e.Key, t.opts.Config.Segments, t.opts.Config.Bits)
	if t.syn != nil {
		t.syn.AddSyms(e.Key, syms[:t.opts.Config.Segments], e.TS)
	}
	if len(t.leaves) == 0 {
		return t.insertEntryIntoEmpty(e)
	}
	li := t.findLeaf(e.Key)
	entries, err := t.readLeaf(li)
	if err != nil {
		return err
	}
	pos := sort.Search(len(entries), func(i int) bool { return e.Less(entries[i]) })
	entries = append(entries, record.Entry{})
	copy(entries[pos+1:], entries[pos:])
	entries[pos] = e

	fits, err := t.fitsLeaf(entries)
	if err != nil {
		return err
	}
	if fits {
		if err := t.writeLeaf(li, entries); err != nil {
			return err
		}
		if t.envOK {
			// The leaf's envelope is exact, so widening it by the one new
			// entry is what recomputing it from all of them would give.
			mn, mx := t.leafEnv(li)
			widenEnv(mn, mx, syms[:])
		}
		t.count++
		return nil
	}
	// Split: the low half stays in place; the high half becomes a new leaf
	// appended at the end of the file. The directory stays in key order,
	// so the page map diverges from the identity mapping here.
	t.ensurePageMap()
	mid := len(entries) / 2
	if err := t.writeLeaf(li, entries[:mid]); err != nil {
		return err
	}
	hi := entries[mid:]
	page, n, err := t.encodePage(hi)
	if err != nil {
		return err
	}
	newPage, err := t.opts.Disk.AppendPage(t.leafFile, page[:n])
	if err != nil {
		return err
	}
	t.leaves = append(t.leaves, leaf{})
	copy(t.leaves[li+2:], t.leaves[li+1:])
	t.leaves[li+1] = leaf{minKey: hi[0].Key, count: len(hi)}
	t.pageOf = append(t.pageOf, 0)
	copy(t.pageOf[li+2:], t.pageOf[li+1:])
	t.pageOf[li+1] = newPage
	if t.envOK {
		t.insertEnvSlot(li + 1)
		t.setLeafEnv(li, entries[:mid])
		t.setLeafEnv(li+1, hi)
	}
	t.count++
	return nil
}

func (t *Tree) insertEntryIntoEmpty(e record.Entry) error {
	page, n, err := t.encodePage([]record.Entry{e})
	if err != nil {
		return err
	}
	if t.leafFile == "" {
		t.leafFile = t.opts.Name + ".leaves"
		if err := t.opts.Disk.Create(t.leafFile); err != nil {
			return err
		}
	}
	if _, err := t.opts.Disk.AppendPage(t.leafFile, page[:n]); err != nil {
		return err
	}
	t.leaves = append(t.leaves, leaf{minKey: e.Key, count: 1})
	if t.envOK {
		w := t.opts.Config.Segments
		t.synMin = append(t.synMin, make([]uint8, w)...)
		t.synMax = append(t.synMax, make([]uint8, w)...)
		t.setLeafEnv(len(t.leaves)-1, []record.Entry{e})
	}
	t.count++
	return nil
}

// fitsLeaf reports whether entries fit in one leaf page under the tree's
// encoding: a record count against capacity for the fixed layout, a trial
// encode for the packed one (compressed size is data-dependent).
func (t *Tree) fitsLeaf(entries []record.Entry) (bool, error) {
	if !t.packed {
		return len(entries) <= t.capacity, nil
	}
	pb, err := record.NewPageBuilder(t.codec, t.opts.Disk.PageSize())
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		ok, err := pb.TryAdd(e)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func (t *Tree) encodePage(entries []record.Entry) ([]byte, int, error) {
	page := make([]byte, t.opts.Disk.PageSize())
	if t.packed {
		pb, err := record.NewPageBuilder(t.codec, t.opts.Disk.PageSize())
		if err != nil {
			return nil, 0, err
		}
		for _, e := range entries {
			ok, err := pb.TryAdd(e)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				return nil, 0, fmt.Errorf("ctree: %d entries overflow a packed leaf page", len(entries))
			}
		}
		if _, err := pb.Encode(page); err != nil {
			return nil, 0, err
		}
		return page, len(page), nil
	}
	recSize := t.codec.Size()
	for i, e := range entries {
		buf, err := t.codec.Encode(e)
		if err != nil {
			return nil, 0, err
		}
		copy(page[i*recSize:], buf)
	}
	return page, len(entries) * recSize, nil
}

func (t *Tree) writeLeaf(li int, entries []record.Entry) error {
	page, n, err := t.encodePage(entries)
	if err != nil {
		return err
	}
	if err := t.opts.Disk.WritePage(t.leafFile, t.pageNum(li), page[:n]); err != nil {
		return err
	}
	t.leaves[li].count = len(entries)
	t.leaves[li].minKey = entries[0].Key
	return nil
}

func (t *Tree) pageNum(li int) int64 {
	if t.pageOf == nil {
		return int64(li)
	}
	return t.pageOf[li]
}

// ensurePageMap materializes the identity page map before the first split.
func (t *Tree) ensurePageMap() {
	if t.pageOf == nil {
		t.pageOf = make([]int64, len(t.leaves))
		for i := range t.pageOf {
			t.pageOf[i] = int64(i)
		}
	}
}
