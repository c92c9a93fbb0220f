// Package zonestat maintains compact per-unit statistics — synopses — for
// the probe units of the Coconut indexes: LSM runs, stream partitions,
// trees, and shards. A synopsis records the unit's cardinality, timestamp
// range, sortable-key range, and a per-segment envelope of iSAX symbols
// (the minimum and maximum symbol observed in each segment). The envelope
// supports a MINDIST-style lower bound on the distance between a query and
// *every* series in the unit (index.Pruner.EnvelopeSq), which is what lets
// the query planner order probe units by how promising they are and skip
// units whose bound already exceeds the collector's current worst — without
// ever changing an answer, because the envelope bound is never larger than
// the per-entry bound the collector would have pruned with anyway.
//
// Synopses are cheap to maintain incrementally: flushes, merges and bulk
// builds fold each entry's key into a builder as it streams past — a merge
// writes every entry anyway, so its synopsis needs no re-scan and no extra
// I/O, and equals the union of its inputs' synopses. They persist inside run
// manifests and index snapshots (a few dozen bytes per unit) and reload on
// recovery.
package zonestat

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sortable"
)

// Synopsis summarizes one probe unit. MinSym/MaxSym hold, per segment, the
// smallest and largest iSAX symbol (at Bits cardinality bits) of any entry
// in the unit. A zero-Count synopsis is "empty": its ranges are inverted
// sentinels and every bound derived from it is +Inf.
type Synopsis struct {
	Segments int
	Bits     int
	Count    int64
	MinTS    int64
	MaxTS    int64
	MinKey   sortable.Key
	MaxKey   sortable.Key
	MinSym   []uint8 // per segment; len == Segments
	MaxSym   []uint8 // per segment; len == Segments
}

// New returns an empty synopsis for the given summarization shape.
func New(segments, bits int) *Synopsis {
	return &Synopsis{
		Segments: segments,
		Bits:     bits,
		MinTS:    math.MaxInt64,
		MaxTS:    math.MinInt64,
		MinSym:   make([]uint8, segments),
		MaxSym:   make([]uint8, segments),
	}
}

// Add folds one entry (its sortable key and timestamp) into the synopsis.
func (s *Synopsis) Add(k sortable.Key, ts int64) {
	syms := sortable.Symbols(k, s.Segments, s.Bits)
	s.AddSyms(k, syms[:s.Segments], ts)
}

// AddSyms is Add for a caller that has already decoded k's per-segment
// symbols (sortable.Symbols) — the CTree build also widens a per-leaf
// envelope with them, and decodes each key once for both.
func (s *Synopsis) AddSyms(k sortable.Key, syms []uint8, ts int64) {
	if s.Count == 0 {
		s.MinKey, s.MaxKey = k, k
		copy(s.MinSym, syms)
		copy(s.MaxSym, syms)
	} else {
		if k.Less(s.MinKey) {
			s.MinKey = k
		}
		if s.MaxKey.Less(k) {
			s.MaxKey = k
		}
		for i := range s.MinSym {
			if syms[i] < s.MinSym[i] {
				s.MinSym[i] = syms[i]
			}
			if syms[i] > s.MaxSym[i] {
				s.MaxSym[i] = syms[i]
			}
		}
	}
	if ts < s.MinTS {
		s.MinTS = ts
	}
	if ts > s.MaxTS {
		s.MaxTS = ts
	}
	s.Count++
}

// IntersectsWindow reports whether the unit's time range can intersect the
// query window [minTS, maxTS]. An empty synopsis intersects nothing.
func (s *Synopsis) IntersectsWindow(minTS, maxTS int64) bool {
	return s.Count > 0 && s.MaxTS >= minTS && s.MinTS <= maxTS
}

// EncodedSize returns the serialized size in bytes: a fixed 58-byte header
// plus two symbol envelopes.
func (s *Synopsis) EncodedSize() int { return 58 + 2*s.Segments }

// AppendBinary appends the serialized synopsis to buf:
//
//	count u64 | minTS u64 | maxTS u64 | minKey 16B | maxKey 16B
//	bits u8 | segments u8 | minSym [segments]B | maxSym [segments]B
func (s *Synopsis) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Count))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.MinTS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.MaxTS))
	buf = s.MinKey.AppendBinary(buf)
	buf = s.MaxKey.AppendBinary(buf)
	buf = append(buf, uint8(s.Bits), uint8(s.Segments))
	buf = append(buf, s.MinSym...)
	buf = append(buf, s.MaxSym...)
	return buf
}

// Decode parses one synopsis from the front of buf, returning it and the
// number of bytes consumed.
func Decode(buf []byte) (*Synopsis, int, error) {
	if len(buf) < 58 {
		return nil, 0, fmt.Errorf("zonestat: synopsis truncated: %d bytes", len(buf))
	}
	s := &Synopsis{
		Count:    int64(binary.LittleEndian.Uint64(buf)),
		MinTS:    int64(binary.LittleEndian.Uint64(buf[8:])),
		MaxTS:    int64(binary.LittleEndian.Uint64(buf[16:])),
		MinKey:   sortable.DecodeKey(buf[24:]),
		MaxKey:   sortable.DecodeKey(buf[40:]),
		Bits:     int(buf[56]),
		Segments: int(buf[57]),
	}
	n := 58 + 2*s.Segments
	if s.Segments < 1 || s.Segments > sortable.MaxSegments || len(buf) < n {
		return nil, 0, fmt.Errorf("zonestat: synopsis corrupt: segments=%d, %d bytes", s.Segments, len(buf))
	}
	s.MinSym = append([]uint8(nil), buf[58:58+s.Segments]...)
	s.MaxSym = append([]uint8(nil), buf[58+s.Segments:n]...)
	return s, n, nil
}

// Provider is implemented by indexes that expose per-unit synopses for
// planning at a coarser level (the sharded fan-out asks each shard's index
// for them). complete reports whether the synopses cover every indexed
// entry; false — an unflushed in-memory buffer, or units recovered from a
// pre-synopsis snapshot — means no shard-level bound applies and the shard
// must always be probed.
type Provider interface {
	PlanSynopses() (syns []*Synopsis, complete bool)
}
