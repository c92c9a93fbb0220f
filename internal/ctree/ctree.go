// Package ctree implements CoconutTree (CTree), the read-optimized index of
// the Coconut infrastructure: a compact and contiguous B+-tree over sortable
// summarizations, bulk-loaded bottom-up with two-pass external sorting.
// Leaves live contiguously in a single file in key order, so index
// construction and exact-search scans are sequential I/O. A configurable
// leaf fill factor leaves slack for later inserts, trading space and scan
// length for cheaper updates — the read/write knob the demo exposes.
//
// The leaf file is the sort's output: the bulk load describes its pages to
// internal/extsort (encoding, fill factor) and derives the directory and the
// resident summaries from the observer of the pass that writes them. The
// package assembles a page itself only where it rewrites one: the insert
// path's encodePage.
package ctree

import (
	"fmt"
	"math"
	"slices"
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
	packed   bool  // leaf pages use the packed codec
	capacity int   // max entries per leaf page (fixed-size layout)
	target   int   // entries per fixed-size leaf at build time; kept for the metadata
	count    int64 // total entries
	nextID64 int64 // next auto-assigned insert ID
	// Insert-path scratch, one of each per tree because inserts are
	// externally serialized: the page a leaf is read into and re-encoded
	// into (both backends copy what they are handed to write), and, for a
	// packed tree, the builder whose trial fit is also the encoding.
	pageBuf []byte
	pb      *record.PageBuilder
	pool    *parallel.Pool
	// Resident summaries: what a scan consults before it decodes a page.
	// All are built by the bulk load's observer and maintained by inserts and
	// splits.
	//
	// grpStart tiles the directory into groups of consecutive leaves: group
	// g is leaves [grpStart[g], grpStart[g+1]); the last element is
	// len(leaves). A group is the unit the summaries below are stored by,
	// so that a leaf split moves a group's worth of slots, not a tree's.
	//
	// col is the SAX column, the paper's in-memory summary array:
	// col[g][j] holds the symbols of the entries of group g's j-th leaf in
	// page order, Segments bytes each, as sortable.Symbols gives them — the
	// transposed form the per-entry lower bound takes, so a scan bounds
	// every entry of a leaf without a byte of its page. Persisted from meta
	// v4 on; rebuilt from the leaf pages when an older tree is opened.
	//
	// synMin/synMax are flat per-leaf symbol envelopes (zone maps): leaf li's
	// occupies [li*Segments, (li+1)*Segments). They are persisted with the
	// directory; envOK is false for a tree opened from pre-statistics (v1)
	// metadata, which disables zone-map skipping until the tree is rebuilt.
	//
	// grpMin/grpMax are the second zone-map level: group g's envelope, at
	// g*Segments of the flat arrays, is the union of its leaves' envelopes.
	// They are derived from the leaf envelopes and exist when those do.
	grpStart       []int
	col            [][][]uint8
	synMin, synMax []uint8
	envOK          bool
	grpMin, grpMax []uint8
	// syn is the whole-tree synopsis the sharded fan-out plans with.
	syn *zonestat.Synopsis
}

// groupLeaves is how many consecutive leaves a group holds when the groups
// are built. A leaf split adds its new leaf to the group of the old one, so
// membership elsewhere never shifts and a split touches one group; a group
// that has grown to twice this is halved.
const groupLeaves = 16

// hasEnv reports whether per-leaf envelopes are available for planning.
func (t *Tree) hasEnv() bool { return t.envOK }

// envAt returns envelope i of the flat arrays mins/maxs.
func (t *Tree) envAt(mins, maxs []uint8, i int) (minSym, maxSym []uint8) {
	w := t.opts.Config.Segments
	return mins[i*w : (i+1)*w], maxs[i*w : (i+1)*w]
}

// leafEnv returns leaf li's symbol envelope (valid only when hasEnv).
func (t *Tree) leafEnv(li int) (minSym, maxSym []uint8) { return t.envAt(t.synMin, t.synMax, li) }

// groupEnv returns group g's symbol envelope (valid only when hasEnv).
func (t *Tree) groupEnv(g int) (minSym, maxSym []uint8) { return t.envAt(t.grpMin, t.grpMax, g) }

// groupOf returns the group holding leaf li.
func (t *Tree) groupOf(li int) int {
	return sort.Search(len(t.grpStart)-1, func(g int) bool { return t.grpStart[g+1] > li })
}

// leafSyms returns leaf li's slice of the column; g is the leaf's group.
func (t *Tree) leafSyms(g, li int) []uint8 { return t.col[g][li-t.grpStart[g]] }

// setLeafEnv recomputes leaf li's envelope from its entries' symbols; the
// envelope slots must already exist.
func (t *Tree) setLeafEnv(li int, syms []uint8) {
	mn, mx := t.leafEnv(li)
	index.SetEnvelope(mn, mx, syms)
}

// setGroupEnv recomputes group g's envelope as the union of its leaves'.
func (t *Tree) setGroupEnv(g int) {
	mn, mx := t.groupEnv(g)
	lo, hi := t.grpStart[g], t.grpStart[g+1]
	lmn, lmx := t.leafEnv(lo)
	copy(mn, lmn)
	copy(mx, lmx)
	for li := lo + 1; li < hi; li++ {
		lmn, lmx = t.leafEnv(li)
		index.WidenEnvelope(mn, mx, lmn)
		index.WidenEnvelope(mn, mx, lmx)
	}
}

// buildGroups tiles the directory into groups of groupLeaves leaves and
// installs column — every entry's symbols in directory order — as the SAX
// column, one slice per leaf, and, when the tree has leaf envelopes, derives
// the group envelopes from them. A leaf's slice ends at its capacity, so the
// first insert into a leaf moves that leaf's symbols to storage of their own
// instead of growing into the next leaf's.
func (t *Tree) buildGroups(column []uint8) {
	w := t.opts.Config.Segments
	n := (len(t.leaves) + groupLeaves - 1) / groupLeaves
	t.grpStart = make([]int, n+1)
	t.col = make([][][]uint8, n)
	off := 0
	for g := range t.col {
		lo := g * groupLeaves
		hi := min(lo+groupLeaves, len(t.leaves))
		t.grpStart[g] = lo
		t.col[g] = make([][]uint8, hi-lo)
		for j, l := range t.leaves[lo:hi] {
			end := off + l.count*w
			t.col[g][j] = column[off:end:end]
			off = end
		}
	}
	t.grpStart[n] = len(t.leaves)
	if !t.envOK {
		return
	}
	t.grpMin = make([]uint8, n*w)
	t.grpMax = make([]uint8, n*w)
	for g := 0; g < n; g++ {
		t.setGroupEnv(g)
	}
}

// insertEnvSlot makes room for envelope i in the flat arrays mins/maxs (the
// split paths insert mid-array; appends pass i == the old count).
func (t *Tree) insertEnvSlot(mins, maxs *[]uint8, i int) {
	w := t.opts.Config.Segments
	*mins = slices.Insert(*mins, i*w, make([]uint8, w)...)
	*maxs = slices.Insert(*maxs, i*w, make([]uint8, w)...)
}

// splitSummaries follows a leaf split in the resident summaries: the
// entries of leaf li (of group g) now end at entry mid, and the rest are a
// new leaf at li+1. The new leaf joins g, so every other group keeps its
// members, its column and its envelope, and g's own envelope already covers
// every entry involved (the caller widened it by the insert); a group that
// has reached twice its built size is then halved.
func (t *Tree) splitSummaries(g, li, mid int) {
	w := t.opts.Config.Segments
	j := li - t.grpStart[g]
	syms := t.col[g][j]
	t.col[g] = slices.Insert(t.col[g], j+1, slices.Clone(syms[mid*w:]))
	t.col[g][j] = syms[:mid*w]
	for k := g + 1; k < len(t.grpStart); k++ {
		t.grpStart[k]++
	}
	if t.envOK {
		t.insertEnvSlot(&t.synMin, &t.synMax, li+1)
		t.setLeafEnv(li, t.col[g][j])
		t.setLeafEnv(li+1, t.col[g][j+1])
	}
	size := len(t.col[g])
	if size < 2*groupLeaves {
		return
	}
	t.grpStart = slices.Insert(t.grpStart, g+1, t.grpStart[g]+size/2)
	t.col = slices.Insert(t.col, g+1, slices.Clone(t.col[g][size/2:]))
	t.col[g] = t.col[g][:size/2]
	if t.envOK {
		t.insertEnvSlot(&t.grpMin, &t.grpMax, g+1)
		t.setGroupEnv(g)
		t.setGroupEnv(g + 1)
	}
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
		disk, unsorted := t.opts.Disk, t.opts.Name+".unsorted"
		w, err := storage.NewRecordWriter(disk, unsorted, t.codec.Size())
		if err != nil {
			return err
		}
		defer func() {
			if err != nil {
				_ = disk.Remove(unsorted) // best effort: err is what the caller must see
				_ = disk.Remove(t.leafFile)
			}
		}()
		buf := make([]byte, 0, t.codec.Size())
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
			if buf, err = t.codec.Append(buf[:0], e); err != nil {
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
		if _, err := sorter.Sort(unsorted, int64(n), t.leafFile); err != nil {
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
		return sorter.WriteRun(t.leafFile, sorted)
	})
}

// bulkLoad returns the tree over the n entries write puts into the leaf file
// through sorter, whose output is described as the tree's leaf level: its
// encoding, its fill factor, and an observer that derives the directory, the
// leaf envelopes, the SAX column and the synopsis from the pass that writes
// the pages.
func bulkLoad(opts Options, n int64, write func(t *Tree, sorter *extsort.Sorter) error) (*Tree, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	t := &Tree{
		opts:     opts,
		codec:    opts.Config.Codec(),
		leafFile: opts.Name + ".leaves",
		pageBuf:  make([]byte, opts.Disk.PageSize()),
		pool:     parallel.New(opts.Parallelism),
		envOK:    true,
		syn:      zonestat.New(opts.Config.Segments, opts.Config.Bits),
	}
	if err := t.initLayout(); err != nil {
		return nil, err
	}
	w, bits := opts.Config.Segments, opts.Config.Bits
	column := make([]uint8, 0, int(n)*w)
	sorter := &extsort.Sorter{
		Disk: opts.Disk, Codec: t.codec, MemBudget: opts.MemBudget,
		TmpPrefix: opts.Name + ".sort", Parallelism: opts.Parallelism,
		Output: extsort.Output{Packed: t.packed, Fill: opts.FillFactor, Observer: func(e record.Entry, pageStart bool) {
			arr := sortable.Symbols(e.Key, w, bits)
			syms := arr[:w]
			t.syn.AddSyms(e.Key, syms, e.TS)
			column = append(column, syms...)
			if pageStart {
				t.leaves = append(t.leaves, leaf{minKey: e.Key})
				t.synMin = append(t.synMin, syms...)
				t.synMax = append(t.synMax, syms...)
			} else {
				mn, mx := t.leafEnv(len(t.leaves) - 1)
				index.WidenEnvelope(mn, mx, syms)
			}
			t.leaves[len(t.leaves)-1].count++
			t.count++
		}},
	}
	if err := write(t, sorter); err != nil {
		return nil, err
	}
	t.buildGroups(column)
	t.nextID64 = n
	return t, nil
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
		var err error
		if t.pb, err = record.NewPageBuilder(t.codec, pageSize); err != nil {
			return err
		}
	}
	perPage := pageSize / t.codec.Size()
	if perPage < 1 && !t.packed {
		return fmt.Errorf("ctree: entry size %d exceeds page size %d", t.codec.Size(), pageSize)
	}
	t.capacity = perPage
	t.target = int(math.Max(1, math.Floor(float64(perPage)*t.opts.FillFactor)))
	return nil
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
	w := t.opts.Config.Segments
	syms := sortable.Symbols(e.Key, w, t.opts.Config.Bits)
	if t.syn != nil {
		t.syn.AddSyms(e.Key, syms[:w], e.TS)
	}
	if len(t.leaves) == 0 {
		return t.insertEntryIntoEmpty(e, syms[:w])
	}
	li := t.findLeaf(e.Key)
	entries, err := t.readLeaf(li)
	if err != nil {
		return err
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
		// leaf appended at the end of the file. The directory stays in key
		// order, so the page map diverges from the identity mapping here.
		t.ensurePageMap()
		lo = entries[:len(entries)/2]
		if page, err = t.encodeFitting(lo); err != nil {
			return err
		}
	}
	if err := t.opts.Disk.WritePage(t.leafFile, t.pageNum(li), page); err != nil {
		return err
	}
	t.leaves[li] = leaf{minKey: lo[0].Key, count: len(lo)}
	if !fits {
		hi := entries[len(lo):]
		if page, err = t.encodeFitting(hi); err != nil {
			return err
		}
		newPage, err := t.opts.Disk.AppendPage(t.leafFile, page)
		if err != nil {
			return err
		}
		t.leaves = slices.Insert(t.leaves, li+1, leaf{minKey: hi[0].Key, count: len(hi)})
		t.pageOf = slices.Insert(t.pageOf, li+1, newPage)
	}
	t.count++

	// The resident summaries follow the pages. Each is exact, so widening an
	// envelope by the one new entry is what recomputing it would give.
	g := t.groupOf(li)
	t.col[g][li-t.grpStart[g]] = slices.Insert(t.leafSyms(g, li), pos*w, syms[:w]...)
	if t.envOK {
		mn, mx := t.leafEnv(li)
		index.WidenEnvelope(mn, mx, syms[:w])
		mn, mx = t.groupEnv(g)
		index.WidenEnvelope(mn, mx, syms[:w])
	}
	if !fits {
		t.splitSummaries(g, li, len(lo))
	}
	return nil
}

func (t *Tree) insertEntryIntoEmpty(e record.Entry, syms []uint8) error {
	page, err := t.encodeFitting([]record.Entry{e})
	if err != nil {
		return err
	}
	if _, err := t.opts.Disk.AppendPage(t.leafFile, page); err != nil {
		return err
	}
	t.leaves = append(t.leaves, leaf{minKey: e.Key, count: 1})
	if t.envOK {
		t.synMin = append(t.synMin, syms...)
		t.synMax = append(t.synMax, syms...)
	}
	t.buildGroups(slices.Clone(syms))
	t.count++
	return nil
}

// encodePage renders entries as one leaf page in the insert-path page
// buffer, or reports that they do not fit one: a record count against the
// capacity for the fixed layout, a trial fit for the packed one (compressed
// size is data-dependent) — and the builder that has taken every entry is
// the one that encodes them. The returned page aliases the buffer and is
// valid until the next call.
func (t *Tree) encodePage(entries []record.Entry) (page []byte, fits bool, err error) {
	if !t.packed {
		if len(entries) > t.capacity {
			return nil, false, nil
		}
		page = t.pageBuf[:0]
		for _, e := range entries {
			if page, err = t.codec.Append(page, e); err != nil {
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
