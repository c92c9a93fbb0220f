package ctree

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/run"
	"repro/internal/sortable"
	"repro/internal/storage"
)

// Metadata format (stored on the same disk as the leaves, in
// "<name>.meta"), at version 6:
//
//	magic "CTREEMTA" | version u32 | payload length u64
//	count u64 | nextID u64 | capacity u32 | target u32 | fill f64-bits u64
//	materialized u8 | seriesLen u32 | segments u32 | bits u32 | layout u8
//	| leaf summary (run.Summary.AppendBinary: per leaf its entry count and
//	  page number, the leaf envelopes, the SAX and timestamp columns)
//
// A reopened tree scans from the decoded summary without reading its
// leaves; the groups and their envelopes are derived on decode, and the
// whole-tree synopsis is folded from the SAX and timestamp columns
// (run.DecodeSummary); capacity (the records a page holds) and target (the
// records a bulk load puts on one) are derived from the page size and the
// fill factor on open, not read. The layout byte is 0: fixed-size
// records. A 1 says the leaves are packed, a layout older builds could
// write and no build reads, and the file is refused with record.ErrPacked.
// Version 5 held, before the layout byte, a stored copy of that synopsis:
//
//	synLen u32 | whole-tree synopsis
//
// Older versions held, after bits, a directory instead of the summary:
//
//	leafCount u32 | per leaf: minKey 16B | count u32 | page u64
//	[v2: envPresent u8 | synMin leafCount*segments B | synMax ... B
//	     | synLen u32 | whole-tree synopsis]
//	[v3: layout u8]
//	[v4: SAX column count*segments B]
//
// Version 2 added the leaf envelopes and the synopsis, 3 the layout byte
// (earlier files hold fixed-size records), 4 the SAX column, 5 the summary,
// and 6 dropped the synopsis. Files of versions 1–5 still open, but for a
// layout byte of 1; a stored synopsis is skipped by its length, never
// decoded.
// Open takes a version 1–4 file's leaf counts and pages from the directory
// and rebuilds the whole summary and the synopsis with one pass over the
// leaf pages (run.Store.Load); what else they hold of it is ignored. Every
// stored symbol is checked against the cardinality on decode: the
// lower-bound kernels index tables with them.
const (
	metaMagic   = "CTREEMTA"
	metaVersion = 6
)

// Save persists the tree's metadata and leaf summary to "<name>.meta" on its
// disk, so the tree can be reopened (together with the disk snapshot) via
// Open. An existing meta file is replaced.
func (t *Tree) Save() error {
	return storage.WriteBlob(t.opts.Disk, t.opts.Name+".meta", metaMagic, metaVersion, nil, t.encodeMeta())
}

func (t *Tree) encodeMeta() []byte {
	cfg := t.opts.Config
	buf := make([]byte, 0, 128+t.Leaves()*(12+2*cfg.Segments)+int(t.leaves.Count)*(cfg.Segments+8))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.leaves.Count))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.nextID64))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.capacity))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.target()))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.opts.FillFactor))
	buf = append(buf, flag(cfg.Materialized))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.SeriesLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.Segments))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.Bits))
	return t.leaves.Sum.AppendBinary(append(buf, 0)) // the layout byte: fixed-size records
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Open reconstructs a saved tree from a disk holding "<name>.leaves" and
// "<name>.meta". Of opts it takes Disk, Name, Reader and (for
// non-materialized trees) Raw as Build does; the structure — Config,
// FillFactor — is restored from the metadata. Metadata that says the
// leaves are packed fails with record.ErrPacked: rebuild such a tree from
// its dataset.
func Open(opts Options) (*Tree, error) {
	if opts.Disk == nil {
		return nil, fmt.Errorf("ctree: Disk is required")
	}
	if opts.Name == "" {
		opts.Name = "ctree"
	}
	payload, version, err := storage.ReadBlob(opts.Disk, opts.Name+".meta", metaMagic, metaVersion, 0)
	if err != nil {
		return nil, fmt.Errorf("ctree: %w", err)
	}
	return decodeMeta(opts, payload, version)
}

func decodeMeta(opts Options, buf []byte, version uint32) (*Tree, error) {
	const fixed = 8 + 8 + 4 + 4 + 8 + 1 + 4 + 4 + 4
	if len(buf) < fixed {
		return nil, fmt.Errorf("ctree: meta payload too short: %d", len(buf))
	}
	cfg := index.Config{
		SeriesLen:    int(binary.LittleEndian.Uint32(buf[33:])),
		Segments:     int(binary.LittleEndian.Uint32(buf[37:])),
		Bits:         int(binary.LittleEndian.Uint32(buf[41:])),
		Materialized: buf[32] == 1,
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ctree: invalid persisted config: %w", err)
	}
	opts.Config, opts.FillFactor = cfg, math.Float64frombits(binary.LittleEndian.Uint64(buf[24:]))
	t, err := newTree(opts)
	if err != nil {
		return nil, err
	}
	t.leaves.Count = int64(binary.LittleEndian.Uint64(buf))
	t.nextID64 = int64(binary.LittleEndian.Uint64(buf[8:]))
	if !opts.Disk.Exists(t.leaves.File) {
		return nil, fmt.Errorf("ctree: leaf file %q missing", t.leaves.File)
	}

	rest := buf[fixed:]
	var counts []int
	var pages []int64
	if version < 5 {
		const perLeaf = sortable.KeyBytes + 4 + 8
		if len(rest) < 4 || (len(rest)-4)/perLeaf < int(binary.LittleEndian.Uint32(rest)) {
			return nil, fmt.Errorf("ctree: meta truncated in the leaf directory")
		}
		leafCount := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		counts, pages = make([]int, leafCount), make([]int64, leafCount)
		for i := range counts {
			rec := rest[i*perLeaf+sortable.KeyBytes:]
			counts[i] = int(binary.LittleEndian.Uint32(rec))
			pages[i] = int64(binary.LittleEndian.Uint64(rec[4:]))
		}
		rest = rest[leafCount*perLeaf:]
		if version >= 2 {
			if len(rest) < 1 || rest[0] == 1 && len(rest)-1 < 2*leafCount*cfg.Segments {
				return nil, fmt.Errorf("ctree: meta truncated in leaf envelopes")
			}
			if rest[0] == 1 {
				rest = rest[2*leafCount*cfg.Segments:]
			}
			rest = rest[1:]
		}
	}
	if version >= 2 && version < 6 {
		if len(rest) < 4 || len(rest)-4 < int(binary.LittleEndian.Uint32(rest)) {
			return nil, fmt.Errorf("ctree: meta truncated in the stored synopsis")
		}
		rest = rest[4+int(binary.LittleEndian.Uint32(rest)):]
	}
	if version >= 3 {
		if len(rest) < 1 {
			return nil, fmt.Errorf("ctree: meta truncated at the layout byte")
		}
		if rest[0] == 1 {
			return nil, fmt.Errorf("ctree: %s.meta: %w", opts.Name, record.ErrPacked)
		}
		rest = rest[1:]
	}
	if version >= 5 {
		t.leaves.Sum, t.leaves.Syn, err = run.DecodeSummary(rest, cfg, t.leaves.Count)
	} else {
		t.leaves, err = t.store.Load(t.leaves, counts, pages)
	}
	if err != nil {
		return nil, fmt.Errorf("ctree: %w", err)
	}
	return t, nil
}
