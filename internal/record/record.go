// Package record defines the fixed-size index entry shared by every Coconut
// index: a sortable summarization key, the series ID in the raw file, an
// ingestion timestamp, and — in materialized indexes — the full series
// payload inline. Entries sort by (Key, ID), the order produced by external
// sorting and maintained by CTree and CLSM.
package record

import (
	"encoding/binary"
	"fmt"

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
func (e Entry) Less(o Entry) bool {
	if c := e.Key.Compare(o.Key); c != 0 {
		return c < 0
	}
	return e.ID < o.ID
}

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

// Decode decodes an entry from buf, which must hold at least c.Size() bytes.
// The payload, when materialized, is freshly allocated.
func (c Codec) Decode(buf []byte) (Entry, error) {
	return c.DecodeInto(buf, nil)
}

// DecodeInto is Decode with a materialized payload decoded into payload
// when that has the capacity for it — a reader that hands out one entry at a
// time reuses one buffer for all of them — and into a fresh slice otherwise.
func (c Codec) DecodeInto(buf []byte, payload series.Series) (Entry, error) {
	if len(buf) < c.Size() {
		return Entry{}, fmt.Errorf("record: short buffer %d, want %d", len(buf), c.Size())
	}
	e := Entry{
		Key: sortable.DecodeKey(buf),
		ID:  int64(binary.LittleEndian.Uint64(buf[sortable.KeyBytes:])),
		TS:  int64(binary.LittleEndian.Uint64(buf[sortable.KeyBytes+8:])),
	}
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

// DecodeKeyOnly extracts just the sortable key — used on scan paths that
// prune by MINDIST before paying for full decoding.
func DecodeKeyOnly(buf []byte) sortable.Key {
	return sortable.DecodeKey(buf)
}

// DecodeID extracts just the series ID from an encoded entry.
func DecodeID(buf []byte) int64 {
	return int64(binary.LittleEndian.Uint64(buf[sortable.KeyBytes:]))
}

// DecodeTS extracts just the timestamp from an encoded entry.
func DecodeTS(buf []byte) int64 {
	return int64(binary.LittleEndian.Uint64(buf[sortable.KeyBytes+8:]))
}

// PayloadBytes returns the encoded payload portion of an entry, valid only
// for materialized codecs. The slice aliases buf.
func (c Codec) PayloadBytes(buf []byte) []byte {
	return buf[HeaderBytes:c.Size()]
}
