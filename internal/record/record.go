// Package record defines the index entry shared by every Coconut index — a
// sortable summarization key, the series ID in the raw file, an ingestion
// timestamp, and, in materialized indexes, the full series payload inline —
// and the pages entries are stored on. Entries sort by (Key, ID), the order
// produced by external sorting and maintained by CTree and CLSM.
//
// An entry file is a run of pages, each holding whole fixed-size records in
// (Key, ID) order, as many as fit, the rest of the page zeroes. Files carry
// no header, so whoever names a file keeps its entry count. A Layout is
// that encoding at one page size, and the package is the only code that
// knows how it is written, streamed or decoded: a Layout's Writer lays
// entries, or their Records verbatim, into the pages of a new file, its
// Reader streams them back as either, and its PageView decodes one page —
// for the query loop too, which reads a stored page's keys, IDs,
// timestamps and payload bytes through one. The page-device surfaces a
// Writer and a Reader need (PageAppender, PageCursor) are what
// storage.Backend and storage.Cursor provide, so the package stays free of
// a storage dependency.
package record

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/series"
	"repro/internal/sortable"
)

// Entry is one index entry.
type Entry struct {
	Key     sortable.Key  // interleaved iSAX summarization
	ID      int64         // series ID in the raw store
	TS      int64         // ingestion timestamp (streaming schemes)
	Payload series.Series // inline series; nil in non-materialized indexes
}

// Less orders entries by (Key, ID): key order is the sortable-summarization
// order; ID breaks ties deterministically.
func (e Entry) Less(o Entry) bool { return e.Compare(o) < 0 }

// Compare is Less as a three-way comparison: -1, 0 or +1.
func (e Entry) Compare(o Entry) int {
	if c := e.Key.Compare(o.Key); c != 0 {
		return c
	}
	return cmp.Compare(e.ID, o.ID)
}

// Sort puts entries in (Key, ID) order, the order of every entry file: the
// one in-memory sort of a flushed buffer, a sealed partition or a TP
// partition's bulk load. The order is total, so the result does not depend
// on the algorithm.
func Sort(entries []Entry) { slices.SortFunc(entries, Entry.Compare) }

// HeaderBytes is the size of the fixed (non-payload) part of an entry.
const HeaderBytes = sortable.KeyBytes + 8 + 8

// Codec encodes and decodes entries of a fixed shape.
type Codec struct {
	SeriesLen    int  // payload length when materialized
	Materialized bool // whether entries carry the series inline
}

// Size returns the encoded entry size in bytes.
func (c Codec) Size() int {
	if c.Materialized {
		return HeaderBytes + series.Size(c.SeriesLen)
	}
	return HeaderBytes
}

// Append appends the encoding of e to buf.
func (c Codec) Append(buf []byte, e Entry) ([]byte, error) {
	buf = e.Key.AppendBinary(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.ID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.TS))
	if c.Materialized {
		if len(e.Payload) != c.SeriesLen {
			return nil, fmt.Errorf("record: payload length %d, want %d", len(e.Payload), c.SeriesLen)
		}
		buf = e.Payload.AppendBinary(buf)
	}
	return buf, nil
}

// Encode encodes e into a fresh buffer of exactly c.Size() bytes.
func (c Codec) Encode(e Entry) ([]byte, error) {
	return c.Append(make([]byte, 0, c.Size()), e)
}

// DecodeInto decodes an entry from buf, which must hold at least c.Size()
// bytes, a materialized payload into payload when that has the capacity for
// it — a reader that hands out one entry at a time reuses one buffer for all
// of them — and into a fresh slice otherwise.
func (c Codec) DecodeInto(buf []byte, payload series.Series) (Entry, error) {
	if len(buf) < c.Size() {
		return Entry{}, fmt.Errorf("record: short buffer %d, want %d", len(buf), c.Size())
	}
	e := Entry{Key: sortable.DecodeKey(buf), ID: decodeID(buf), TS: decodeTS(buf)}
	if c.Materialized {
		p, err := series.DecodeBinaryInto(buf[HeaderBytes:], c.payloadBuf(payload))
		if err != nil {
			return Entry{}, err
		}
		e.Payload = p
	}
	return e, nil
}

// payloadBuf returns buf resized to one payload, or a fresh slice when buf
// cannot hold one.
func (c Codec) payloadBuf(buf series.Series) series.Series {
	if cap(buf) < c.SeriesLen {
		return make(series.Series, c.SeriesLen)
	}
	return buf[:c.SeriesLen]
}

// Record is one entry's fixed-size encoding, as a Codec appends it: key, ID,
// timestamp and, in a materialized codec, the payload verbatim. Its
// accessors read the header without decoding the payload, which is how an
// external sort orders and moves entries.
type Record []byte

// Key returns the record's sortable key.
func (r Record) Key() sortable.Key { return sortable.DecodeKey(r) }

// ID returns the record's series ID.
func (r Record) ID() int64 { return decodeID(r) }

// TS returns the record's timestamp.
func (r Record) TS() int64 { return decodeTS(r) }

// decodeID extracts just the series ID from a fixed-size record.
func decodeID(buf []byte) int64 {
	return int64(binary.LittleEndian.Uint64(buf[sortable.KeyBytes:]))
}

// decodeTS extracts just the timestamp from a fixed-size record.
func decodeTS(buf []byte) int64 {
	return int64(binary.LittleEndian.Uint64(buf[sortable.KeyBytes+8:]))
}
