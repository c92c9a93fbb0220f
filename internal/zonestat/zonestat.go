// Package zonestat maintains compact per-unit statistics — synopses — for
// the probe units of the Coconut indexes: LSM runs, stream partitions,
// trees, and shards. A synopsis records the unit's cardinality, timestamp
// range, and a per-segment envelope of iSAX symbols (the minimum and
// maximum symbol observed in each segment). The envelope supports a
// MINDIST-style lower bound on the distance between a query and *every*
// series in the unit (index.Pruner.EnvelopeSq), which is what lets the query
// planner order probe units by how promising they are and skip units whose
// bound already exceeds the collector's current worst — without ever
// changing an answer, because the envelope bound is never larger than the
// per-entry bound the collector would have pruned with anyway.
//
// Synopses are cheap to maintain incrementally: flushes, merges and bulk
// builds fold each entry into a builder as it streams past — a merge writes
// every entry anyway, so its synopsis needs no re-scan and no extra I/O, and
// equals the union of its inputs' synopses. They are derived statistics, so
// they are never persisted: reopening an index rebuilds each unit's synopsis
// from the entries or summary columns the reopen pass reads anyway, and a
// synopsis is never read back from a file.
package zonestat

import (
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
	s.AddSyms(syms[:s.Segments], ts)
}

// AddSyms is Add for a caller that has already decoded the entry's
// per-segment symbols (sortable.Symbols) — the run summary builder also
// widens a per-page envelope with them, and decodes each key once for both.
func (s *Synopsis) AddSyms(syms []uint8, ts int64) {
	if s.Count == 0 {
		copy(s.MinSym, syms)
		copy(s.MaxSym, syms)
	} else {
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

// Provider is implemented by indexes that expose per-unit synopses for
// planning at a coarser level (the sharded fan-out asks each shard's index
// for them). complete reports whether the synopses cover every indexed
// entry; false — an unflushed in-memory buffer — means no shard-level bound
// applies and the shard must always be probed.
type Provider interface {
	PlanSynopses() (syns []*Synopsis, complete bool)
}
