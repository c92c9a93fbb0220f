package ctree

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// Metadata format (stored on the same disk as the leaves, in
// "<name>.meta"):
//
//	magic "CTREEMTA" | version u32 | payload length u64
//	count u64 | nextID u64 | capacity u32 | target u32 | fill f64-bits u64
//	materialized u8 | seriesLen u32 | segments u32 | bits u32
//	leafCount u32 | per leaf: minKey 16B | count u32 | page u64
//	[v2: envPresent u8 | synMin leafCount*segments B | synMax ... B
//	     | synLen u32 | whole-tree synopsis]
//
// Version 2 appends the planner statistics: the flat per-leaf symbol
// envelopes and the whole-tree synopsis. Version-1 files still open; their
// trees simply plan nothing until rebuilt.
//
// Version 3 appends a packed flag byte: 1 when the leaf file uses the
// packed page encoding (record.IsPacked), 0 for fixed-size records.
// Version-1/2 files decode with packed=false, which is what they contain.
//
// Version 4 appends the SAX column: count*segments symbol bytes, every
// entry's symbols in directory order (leaf by leaf, page order within a
// leaf), so a reopened tree scans from resident symbols without first
// reading its leaves. Version-1..3 files still open: Open rebuilds their
// column with one pass over the leaf pages. The groups and their envelopes
// are not stored at any version; they are derived from the directory and
// the leaf envelopes.
//
//	[v3: packed u8]
//	[v4: column count*segments B]
//
// Every stored symbol — envelopes and column — is checked against the
// cardinality on decode: the lower-bound kernels index tables with them.
const (
	metaMagic   = "CTREEMTA"
	metaVersion = 4
)

// Save persists the tree's directory metadata to "<name>.meta" on its
// disk, so the tree can be reopened (together with the disk snapshot) via
// Open. An existing meta file is replaced.
func (t *Tree) Save() error {
	return storage.WriteBlob(t.opts.Disk, t.opts.Name+".meta", metaMagic, metaVersion, nil, t.encodeMeta())
}

func (t *Tree) encodeMeta() []byte {
	w := t.opts.Config.Segments
	buf := make([]byte, 0, 128+len(t.leaves)*(28+2*w)+int(t.count)*w)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.count))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.nextID64))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.capacity))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.target))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.opts.FillFactor))
	if t.opts.Config.Materialized {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.opts.Config.SeriesLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.opts.Config.Segments))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.opts.Config.Bits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.leaves)))
	for i, l := range t.leaves {
		buf = l.minKey.AppendBinary(buf)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.count))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.pageNum(i)))
	}
	if t.envOK {
		buf = append(buf, 1)
		buf = append(buf, t.synMin...)
		buf = append(buf, t.synMax...)
	} else {
		buf = append(buf, 0)
	}
	if t.syn != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.syn.EncodedSize()))
		buf = t.syn.AppendBinary(buf)
	} else {
		buf = binary.LittleEndian.AppendUint32(buf, 0)
	}
	if t.packed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, group := range t.col {
		for _, syms := range group {
			buf = append(buf, syms...)
		}
	}
	return buf
}

// Open reconstructs a saved tree from a disk holding "<name>.leaves" and
// "<name>.meta". The caller supplies the Disk and (for non-materialized
// trees) the Raw store; all structural parameters are restored from the
// metadata and validated against opts.Config when that is non-zero.
func Open(disk storage.Backend, name string, raw series.RawStore) (*Tree, error) {
	if disk == nil {
		return nil, fmt.Errorf("ctree: Disk is required")
	}
	if name == "" {
		name = "ctree"
	}
	payload, version, err := storage.ReadBlob(disk, name+".meta", metaMagic, metaVersion, 0)
	if err != nil {
		return nil, fmt.Errorf("ctree: %w", err)
	}
	return decodeMeta(disk, name, payload, raw, version)
}

func decodeMeta(disk storage.Backend, name string, buf []byte, raw series.RawStore, version uint32) (*Tree, error) {
	const fixed = 8 + 8 + 4 + 4 + 8 + 1 + 4 + 4 + 4 + 4
	if len(buf) < fixed {
		return nil, fmt.Errorf("ctree: meta payload too short: %d", len(buf))
	}
	t := &Tree{pageBuf: make([]byte, disk.PageSize()), pool: parallel.New(0)}
	t.count = int64(binary.LittleEndian.Uint64(buf))
	t.nextID64 = int64(binary.LittleEndian.Uint64(buf[8:]))
	t.capacity = int(binary.LittleEndian.Uint32(buf[16:]))
	t.target = int(binary.LittleEndian.Uint32(buf[20:]))
	fill := math.Float64frombits(binary.LittleEndian.Uint64(buf[24:]))
	materialized := buf[32] == 1
	seriesLen := int(binary.LittleEndian.Uint32(buf[33:]))
	segments := int(binary.LittleEndian.Uint32(buf[37:]))
	bits := int(binary.LittleEndian.Uint32(buf[41:]))
	leafCount := int(binary.LittleEndian.Uint32(buf[45:]))

	t.opts = Options{
		Disk: disk,
		Name: name,
		Config: index.Config{
			SeriesLen:    seriesLen,
			Segments:     segments,
			Bits:         bits,
			Materialized: materialized,
		},
		FillFactor: fill,
		Raw:        raw,
		Reader:     disk,
	}
	if err := t.opts.Config.Validate(); err != nil {
		return nil, fmt.Errorf("ctree: invalid persisted config: %w", err)
	}
	t.codec = t.opts.Config.Codec()
	t.leafFile = name + ".leaves"
	if !disk.Exists(t.leafFile) {
		return nil, fmt.Errorf("ctree: leaf file %q missing", t.leafFile)
	}

	const perLeaf = sortable.KeyBytes + 4 + 8
	rest := buf[49:]
	if len(rest) < leafCount*perLeaf {
		return nil, fmt.Errorf("ctree: meta truncated: %d leaves need %d bytes, have %d",
			leafCount, leafCount*perLeaf, len(rest))
	}
	identity := true
	t.leaves = make([]leaf, leafCount)
	pages := make([]int64, leafCount)
	var total int64
	for i := 0; i < leafCount; i++ {
		rec := rest[i*perLeaf:]
		t.leaves[i] = leaf{
			minKey: sortable.DecodeKey(rec),
			count:  int(binary.LittleEndian.Uint32(rec[sortable.KeyBytes:])),
		}
		pages[i] = int64(binary.LittleEndian.Uint64(rec[sortable.KeyBytes+4:]))
		if pages[i] != int64(i) {
			identity = false
		}
		total += int64(t.leaves[i].count)
		if i > 0 && t.leaves[i].minKey.Less(t.leaves[i-1].minKey) {
			return nil, fmt.Errorf("ctree: persisted directory out of order at leaf %d", i)
		}
	}
	if total != t.count {
		return nil, fmt.Errorf("ctree: persisted counts inconsistent: leaves hold %d, meta says %d", total, t.count)
	}
	if !identity {
		t.pageOf = pages
	}
	if version >= 2 {
		rest = rest[leafCount*perLeaf:]
		if len(rest) < 1 {
			return nil, fmt.Errorf("ctree: meta truncated at envelope flag")
		}
		envPresent := rest[0] == 1
		rest = rest[1:]
		if envPresent {
			envBytes := leafCount * segments
			if len(rest) < 2*envBytes {
				return nil, fmt.Errorf("ctree: meta truncated in leaf envelopes")
			}
			t.synMin = append([]uint8(nil), rest[:envBytes]...)
			t.synMax = append([]uint8(nil), rest[envBytes:2*envBytes]...)
			rest = rest[2*envBytes:]
			t.envOK = true
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("ctree: meta truncated at synopsis length")
		}
		synLen := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if synLen > 0 {
			if len(rest) < synLen {
				return nil, fmt.Errorf("ctree: meta truncated in synopsis")
			}
			syn, n, err := zonestat.Decode(rest[:synLen])
			if err != nil {
				return nil, err
			}
			if n != synLen {
				return nil, fmt.Errorf("ctree: synopsis length mismatch: %d != %d", n, synLen)
			}
			// Inserts fold symbols decoded at the tree's shape into it.
			if syn.Segments != segments || syn.Bits != bits {
				return nil, fmt.Errorf("ctree: persisted synopsis is %dx%d bits, the tree %dx%d",
					syn.Segments, syn.Bits, segments, bits)
			}
			t.syn = syn
			rest = rest[synLen:]
		}
		if version >= 3 {
			if len(rest) < 1 {
				return nil, fmt.Errorf("ctree: meta truncated at packed flag")
			}
			t.packed = rest[0] == 1
			t.opts.Compress = t.packed
			rest = rest[1:]
		}
	}
	if t.packed {
		var err error
		if t.pb, err = record.NewPageBuilder(t.codec, disk.PageSize()); err != nil {
			return nil, fmt.Errorf("ctree: persisted packed tree: %w", err)
		}
	}
	if !index.SymbolsBelow(t.synMin, bits) || !index.SymbolsBelow(t.synMax, bits) {
		return nil, fmt.Errorf("ctree: persisted leaf envelope holds a symbol beyond %d bits", bits)
	}
	if version >= 4 {
		if int64(len(rest)) != t.count*int64(segments) {
			return nil, fmt.Errorf("ctree: persisted column is %d bytes, %d entries of %d segments need %d",
				len(rest), t.count, segments, t.count*int64(segments))
		}
		if !index.SymbolsBelow(rest, bits) {
			return nil, fmt.Errorf("ctree: persisted column holds a symbol beyond %d bits", bits)
		}
		t.buildGroups(append([]uint8(nil), rest...))
	} else if err := t.rebuildColumn(); err != nil {
		return nil, err
	}
	return t, nil
}

// rebuildColumn reads the SAX column back out of the leaf pages, in
// directory order: what Open does for metadata older than the column.
func (t *Tree) rebuildColumn() error {
	w, bits := t.opts.Config.Segments, t.opts.Config.Bits
	perPage := len(t.pageBuf) / t.codec.Size()
	var column []uint8 // grown leaf by leaf: the directory's counts are unverified until each page is read
	for li, l := range t.leaves {
		if !t.packed && l.count > perPage {
			return fmt.Errorf("ctree: leaf %d claims %d entries, a page holds %d", li, l.count, perPage)
		}
		entries, err := t.readLeaf(li)
		if err != nil {
			return fmt.Errorf("ctree: rebuilding the column from leaf %d: %w", li, err)
		}
		if len(entries) != l.count {
			return fmt.Errorf("ctree: leaf %d holds %d entries, the directory says %d", li, len(entries), l.count)
		}
		for _, e := range entries {
			syms := sortable.Symbols(e.Key, w, bits)
			column = append(column, syms[:w]...)
		}
	}
	t.buildGroups(column)
	return nil
}
