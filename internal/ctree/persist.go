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
	"repro/internal/zonestat"
)

// Metadata format (stored on the same disk as the leaves, in
// "<name>.meta"), at version 5:
//
//	magic "CTREEMTA" | version u32 | payload length u64
//	count u64 | nextID u64 | capacity u32 | target u32 | fill f64-bits u64
//	materialized u8 | seriesLen u32 | segments u32 | bits u32
//	synLen u32 | whole-tree synopsis | packed u8
//	| leaf summary (run.Summary.AppendBinary: per leaf its entry count and
//	  page number, the leaf envelopes, the SAX and timestamp columns)
//
// A reopened tree scans from the decoded summary without reading its
// leaves; the groups and their envelopes are derived on decode. Older
// versions held, after bits, a directory instead of the summary:
//
//	leafCount u32 | per leaf: minKey 16B | count u32 | page u64
//	[v2: envPresent u8 | synMin leafCount*segments B | synMax ... B
//	     | synLen u32 | whole-tree synopsis]
//	[v3: packed u8]
//	[v4: SAX column count*segments B]
//
// Version 2 added the leaf envelopes and the synopsis, 3 the packed flag
// (record.IsPacked; earlier files hold fixed-size records), 4 the SAX
// column. Files of versions 1–4 still open: Open takes each leaf's count
// and page from the directory and rebuilds the whole summary with one pass
// over the leaf pages (run.Store.Load); what else they hold of it is
// ignored. Every stored symbol is checked against the cardinality on decode:
// the lower-bound kernels index tables with them.
const (
	metaMagic   = "CTREEMTA"
	metaVersion = 5
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
	if syn := t.leaves.Syn; syn != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(syn.EncodedSize()))
		buf = syn.AppendBinary(buf)
	} else {
		buf = binary.LittleEndian.AppendUint32(buf, 0)
	}
	return t.leaves.Sum.AppendBinary(append(buf, flag(t.leaves.Packed)))
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Open reconstructs a saved tree from a disk holding "<name>.leaves" and
// "<name>.meta". Of opts it takes Disk, Name, Reader, Planner, Parallelism
// and (for non-materialized trees) Raw as Build does; the structure — Config,
// FillFactor, page encoding — is restored from the metadata.
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
	t := newTree(opts)
	t.leaves.Count = int64(binary.LittleEndian.Uint64(buf))
	t.nextID64 = int64(binary.LittleEndian.Uint64(buf[8:]))
	t.capacity = int(binary.LittleEndian.Uint32(buf[16:]))
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
	if version >= 2 {
		if len(rest) < 4 {
			return nil, fmt.Errorf("ctree: meta truncated at synopsis length")
		}
		synLen := int(binary.LittleEndian.Uint32(rest))
		if rest = rest[4:]; len(rest) < synLen {
			return nil, fmt.Errorf("ctree: meta truncated in synopsis")
		}
		if synLen > 0 {
			syn, n, err := zonestat.Decode(rest[:synLen])
			if err != nil {
				return nil, err
			}
			// Inserts fold symbols decoded at the tree's shape into it.
			if n != synLen || syn.Segments != cfg.Segments || syn.Bits != cfg.Bits {
				return nil, fmt.Errorf("ctree: persisted synopsis is %dx%d bits in %d of %d bytes, the tree %dx%d",
					syn.Segments, syn.Bits, n, synLen, cfg.Segments, cfg.Bits)
			}
			t.leaves.Syn = syn
		}
		rest = rest[synLen:]
	}
	if version >= 3 {
		if len(rest) < 1 {
			return nil, fmt.Errorf("ctree: meta truncated at packed flag")
		}
		t.leaves.Packed, t.opts.Compress, rest = rest[0] == 1, rest[0] == 1, rest[1:]
	}
	if t.leaves.Packed {
		var err error
		if t.pb, err = record.NewPageBuilder(t.store.Codec(), opts.Disk.PageSize()); err != nil {
			return nil, fmt.Errorf("ctree: persisted packed tree: %w", err)
		}
	}
	var err error
	if version >= 5 {
		t.leaves.Sum, err = run.DecodeSummary(rest, cfg, t.leaves.Count)
	} else {
		t.leaves, err = t.store.Load(t.leaves, counts, pages)
	}
	if err != nil {
		return nil, fmt.Errorf("ctree: %w", err)
	}
	return t, nil
}
