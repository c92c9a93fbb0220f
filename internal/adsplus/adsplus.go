// Package adsplus implements the ADS+ baseline the paper compares against:
// a state-of-the-art iSAX tree built with top-down insertions. The root
// fans out over the first bit of every segment; an overflowing leaf splits
// by promoting the cardinality of one segment. Each leaf occupies its own
// page extent allocated in creation order, so construction flushes and
// query-time leaf visits hop between scattered locations — the random-I/O
// pattern Coconut's sortable layout eliminates. ADS+ is non-materialized
// (summaries only, raw fetched on demand); ADSFull stores series inline.
package adsplus

import (
	"fmt"
	"math"

	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/sax"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/storage"
)

// Options configures an ADS+ index.
type Options struct {
	Disk   storage.Backend
	Name   string       // file name prefix
	Config index.Config // summarization shape; Materialized selects ADSFull
	// LeafCapacity is the maximum entries per leaf before it splits.
	// Default: 4 pages worth of entries.
	LeafCapacity int
	// BufferEntries is the size of the global insert buffer (the FBL of
	// iSAX 2.0 / ADS): entries gather in memory per leaf and flush to disk
	// when the total reaches this bound. Larger buffers batch more entries
	// per random leaf write — the memory/construction trade-off of E4.
	// Default 1024.
	BufferEntries int
	// Raw is consulted by non-materialized searches.
	Raw series.RawStore
	// Reader serves leaf-extent reads (searches and split read-backs). nil
	// selects the Disk itself (uncached); pass a buffer pool over the same
	// disk to serve hot leaves from memory. Writes always go to Disk, which
	// invalidates through any attached pool.
	Reader storage.PageReader
}

func (o *Options) setDefaults() error {
	if o.Disk == nil {
		return fmt.Errorf("adsplus: Disk is required")
	}
	if o.Name == "" {
		o.Name = "ads"
	}
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.LeafCapacity == 0 {
		perPage := o.Disk.PageSize() / o.Config.Codec().Size()
		if perPage < 1 {
			return fmt.Errorf("adsplus: entry size exceeds page size")
		}
		o.LeafCapacity = 4 * perPage
	}
	if o.LeafCapacity < 1 {
		return fmt.Errorf("adsplus: LeafCapacity must be positive")
	}
	if o.BufferEntries == 0 {
		o.BufferEntries = 1024
	}
	if o.BufferEntries < 1 {
		return fmt.Errorf("adsplus: BufferEntries must be positive")
	}
	if o.Reader == nil {
		o.Reader = o.Disk
	}
	return nil
}

// node is an iSAX tree node. Each segment is constrained to a symbol prefix
// of bits[i] bits; leaves carry entries, internal nodes two children from a
// split on splitSeg.
type node struct {
	syms []uint8 // per-segment symbol prefix (low bits[i] bits significant)
	bits []uint8 // per-segment prefix length in bits

	// Leaf state.
	leaf     bool
	file     string         // on-disk extent; "" until first flush
	onDisk   int64          // entries on disk
	buffered []record.Entry // entries awaiting flush (FBL)

	// Internal state.
	splitSeg int
	children [2]*node // by the next bit of segment splitSeg
}

// Tree is an ADS+ index.
type Tree struct {
	opts    Options
	codec   record.Codec
	roots   map[uint64]*node // keyed by the w-bit first-bit pattern
	count   int64
	nextID  int64
	inBuf   int   // total buffered entries across leaves
	leafSeq int   // leaf file name counter
	splits  int64 // accounting: leaf splits performed
	flushes int64 // accounting: leaf-buffer flushes to disk
	pageBuf []byte
}

// New creates an empty ADS+ index.
func New(opts Options) (*Tree, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	return &Tree{
		opts:    opts,
		codec:   opts.Config.Codec(),
		roots:   make(map[uint64]*node),
		pageBuf: make([]byte, opts.Disk.PageSize()),
	}, nil
}

// Name implements index.Index; "ADS+" or "ADSFull" when materialized.
func (t *Tree) Name() string {
	if t.opts.Config.Materialized {
		return "ADSFull"
	}
	return "ADS+"
}

// Count returns the number of indexed series.
func (t *Tree) Count() int64 { return t.count }

// Splits returns the number of leaf splits performed.
func (t *Tree) Splits() int64 { return t.splits }

// LeafFlushes returns how many buffered-leaf flushes hit the disk.
func (t *Tree) LeafFlushes() int64 { return t.flushes }

// rootKey packs the first bit of every segment of w into a map key.
func (t *Tree) rootKey(w sax.Word) uint64 {
	var k uint64
	shift := uint(w.Bits - 1)
	for _, s := range w.Symbols {
		k = k<<1 | uint64((s>>shift)&1)
	}
	return k
}

// Insert adds one series top-down with the given ingestion timestamp. IDs
// are assigned in insertion order starting at 0.
func (t *Tree) Insert(s series.Series, ts int64) error {
	_, err := t.InsertID(s, ts)
	return err
}

// InsertID is Insert returning the assigned series ID.
func (t *Tree) InsertID(s series.Series, ts int64) (int64, error) {
	z := s.ZNormalize()
	w := sax.FromSeries(z, t.opts.Config.Segments, t.opts.Config.Bits)
	e := record.Entry{ID: t.nextID, TS: ts}
	if t.opts.Config.Materialized {
		e.Payload = z
	}
	// The entry's key field carries the interleaved full-resolution word,
	// so leaves can re-derive segment bits when they split and searches can
	// lower-bound per entry.
	e.Key = sortable.Interleave(w)
	return e.ID, t.InsertEntry(e)
}

// InsertEntry adds a pre-summarized entry with caller-controlled ID — used
// by the streaming schemes, which summarize once and own global IDs.
func (t *Tree) InsertEntry(e record.Entry) error {
	if e.ID >= t.nextID {
		t.nextID = e.ID + 1
	}
	var syms [sortable.MaxSegments]uint8
	w := t.entryWord(e.Key, &syms)

	rk := t.rootKey(w)
	n, ok := t.roots[rk]
	if !ok {
		n = t.newLeafNode(w, 1)
		t.roots[rk] = n
	}
	for !n.leaf {
		bit := segBit(w, n.splitSeg, int(n.bits[n.splitSeg]))
		n = n.children[bit]
	}
	n.buffered = append(n.buffered, e)
	t.inBuf++
	t.count++
	if len(n.buffered)+int(n.onDisk) > t.opts.LeafCapacity {
		if err := t.split(n); err != nil {
			return err
		}
	}
	if t.inBuf >= t.opts.BufferEntries {
		if err := t.FlushBuffers(); err != nil {
			return err
		}
	}
	return nil
}

// entryWord decodes an entry's key into its full-resolution word, backed by
// the caller's array so that routing an entry allocates nothing.
func (t *Tree) entryWord(k sortable.Key, syms *[sortable.MaxSegments]uint8) sax.Word {
	cfg := t.opts.Config
	*syms = sortable.Symbols(k, cfg.Segments, cfg.Bits)
	return sax.Word{Symbols: syms[:cfg.Segments], Bits: cfg.Bits}
}

// newLeafNode creates a leaf whose word prefix is w truncated to `prefixBits`
// bits on every segment.
func (t *Tree) newLeafNode(w sax.Word, prefixBits int) *node {
	syms := make([]uint8, len(w.Symbols))
	bits := make([]uint8, len(w.Symbols))
	shift := uint(w.Bits - prefixBits)
	for i, s := range w.Symbols {
		syms[i] = s >> shift
		bits[i] = uint8(prefixBits)
	}
	return &node{syms: syms, bits: bits, leaf: true}
}

// segBit extracts the next split bit of segment seg given that the node has
// already consumed `consumed` bits of it.
func segBit(w sax.Word, seg, consumed int) int {
	shift := uint(w.Bits - consumed - 1)
	return int((w.Symbols[seg] >> shift) & 1)
}

// split turns an over-full leaf into an internal node with two child
// leaves, redistributing its entries by the promoted bit. On-disk entries
// are read back (random I/O) and rewritten into the children's extents —
// the split cost that dominates top-down construction.
func (t *Tree) split(n *node) error {
	seg := t.chooseSplitSegment(n)
	if seg < 0 {
		return nil // all segments at max cardinality: tolerate the oversized leaf
	}
	entries, err := t.loadLeaf(n)
	if err != nil {
		return err
	}
	if n.file != "" {
		if err := t.opts.Disk.Remove(n.file); err != nil {
			return err
		}
	}
	t.inBuf -= len(n.buffered)

	var kids [2]*node
	for b := 0; b < 2; b++ {
		syms := make([]uint8, len(n.syms))
		bits := make([]uint8, len(n.bits))
		copy(syms, n.syms)
		copy(bits, n.bits)
		syms[seg] = syms[seg]<<1 | uint8(b)
		bits[seg]++
		kids[b] = &node{syms: syms, bits: bits, leaf: true}
	}
	consumed := int(n.bits[seg])
	var syms [sortable.MaxSegments]uint8
	for _, e := range entries {
		b := segBit(t.entryWord(e.Key, &syms), seg, consumed)
		kids[b].buffered = append(kids[b].buffered, e)
		t.inBuf++
	}
	n.leaf = false
	n.file = ""
	n.onDisk = 0
	n.buffered = nil
	n.splitSeg = seg
	n.children = kids
	t.splits++
	// A pathological split can leave one child still over capacity; recurse.
	for b := 0; b < 2; b++ {
		if len(kids[b].buffered) > t.opts.LeafCapacity {
			if err := t.split(kids[b]); err != nil {
				return err
			}
		}
	}
	return nil
}

// chooseSplitSegment picks the segment to promote: the one with the fewest
// consumed bits (round-robin refinement, keeping regions roughly square),
// or -1 if every segment is exhausted.
func (t *Tree) chooseSplitSegment(n *node) int {
	best, bestBits := -1, math.MaxInt
	for i, b := range n.bits {
		if int(b) < t.opts.Config.Bits && int(b) < bestBits {
			best, bestBits = i, int(b)
		}
	}
	return best
}

// loadLeaf returns all entries of a leaf: the on-disk extent followed by the
// in-memory buffer.
func (t *Tree) loadLeaf(n *node) ([]record.Entry, error) {
	out := make([]record.Entry, 0, int(n.onDisk)+len(n.buffered))
	if n.file != "" && n.onDisk > 0 {
		r, err := storage.NewRecordReaderBuffered(t.opts.Reader, n.file, t.codec.Size(), n.onDisk, 1)
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < n.onDisk; i++ {
			rec, err := r.Next()
			if err != nil {
				return nil, err
			}
			e, err := t.codec.Decode(rec)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	out = append(out, n.buffered...)
	return out, nil
}

// FlushBuffers writes every leaf's buffered entries to its on-disk extent.
// Each leaf is a separate extent, so a flush is one head movement per
// touched leaf — the scattered write pattern of top-down construction.
func (t *Tree) FlushBuffers() error {
	var err error
	t.walk(func(n *node) {
		if err != nil || !n.leaf || len(n.buffered) == 0 {
			return
		}
		err = t.flushLeaf(n)
	})
	return err
}

func (t *Tree) flushLeaf(n *node) error {
	if n.file == "" {
		t.leafSeq++
		n.file = fmt.Sprintf("%s.leaf.%06d", t.opts.Name, t.leafSeq)
		if err := t.opts.Disk.Create(n.file); err != nil {
			return err
		}
	}
	// Append buffered entries to the extent. The final partial page is
	// rewritten in place (slotted-page style) by re-packing from the last
	// full boundary; for simplicity and to stay faithful to page-granular
	// I/O we rewrite the whole extent when a partial tail page exists.
	perPage := t.opts.Disk.PageSize() / t.codec.Size()
	if n.onDisk%int64(perPage) != 0 {
		// Partial tail: read everything back and rewrite.
		all, err := t.loadLeaf(n)
		if err != nil {
			return err
		}
		if err := t.opts.Disk.Remove(n.file); err != nil {
			return err
		}
		if err := t.opts.Disk.Create(n.file); err != nil {
			return err
		}
		if err := t.writeEntries(n.file, all); err != nil {
			return err
		}
		n.onDisk = int64(len(all))
	} else {
		if err := t.writeEntries(n.file, n.buffered); err != nil {
			return err
		}
		n.onDisk += int64(len(n.buffered))
	}
	t.inBuf -= len(n.buffered)
	n.buffered = nil
	t.flushes++
	return nil
}

func (t *Tree) writeEntries(file string, entries []record.Entry) error {
	recSize := t.codec.Size()
	perPage := t.opts.Disk.PageSize() / recSize
	page := make([]byte, t.opts.Disk.PageSize())
	for off := 0; off < len(entries); off += perPage {
		end := off + perPage
		if end > len(entries) {
			end = len(entries)
		}
		for i, e := range entries[off:end] {
			buf, err := t.codec.Encode(e)
			if err != nil {
				return err
			}
			copy(page[i*recSize:], buf)
		}
		if _, err := t.opts.Disk.AppendPage(file, page[:(end-off)*recSize]); err != nil {
			return err
		}
	}
	return nil
}

// walk visits every node depth-first.
func (t *Tree) walk(visit func(*node)) {
	var rec func(*node)
	rec = func(n *node) {
		visit(n)
		if !n.leaf {
			rec(n.children[0])
			rec(n.children[1])
		}
	}
	for _, n := range t.roots {
		rec(n)
	}
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int {
	c := 0
	t.walk(func(n *node) {
		if n.leaf {
			c++
		}
	})
	return c
}
