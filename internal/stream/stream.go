// Package stream implements the partitioning schemes of the streaming data
// series exploration of Section 3 of the paper. Queries over streams carry
// temporal windows, and each scheme trades ingest cost against window-query
// cost differently:
//
//   - PP (Post-Processing) keeps one index over everything and filters
//     entries by timestamp as they are encountered during search. It is its
//     base index and nothing more, so it has no type here: a plain build
//     ingesting in arrival order is a PP stream.
//   - TP (Temporal Partitioning) seals the in-memory buffer into a new
//     partition every time it fills; queries touch only partitions whose
//     time range intersects the window — but partitions accumulate without
//     bound, so large-window queries visit many small partitions.
//   - BTP (Bounded Temporal Partitioning), enabled by sortable
//     summarizations, sort-merges time-adjacent partitions of similar size:
//     newer data stays in small partitions, older data migrates to larger
//     contiguous ones, and the total partition count stays logarithmic.
//
// A scheme is an index (index.Index): its cores take the caller's collector
// and context, and fan out on the worker pool the context carries. TP spends
// it across its time-partitions — a TP partition, an index of its own,
// searching serially on a context of its own per worker slot — and BTP
// across its partition runs. Window-query answers are identical at every
// parallelism — partitions are independent, and per-worker results merge
// through the deterministic collector of package index — and identical to
// PP's over one stream: a TP partition is searched through its index's
// cores and a BTP partition scanned straight into the query's collector, so
// every merge is on the accumulated squared sums PP's one index compares.
// Package assemble builds a scheme over a build's disk (assemble.Spec's
// Scheme).
package stream

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/series"
)

// Scheme is a streaming index: an index over timestamped arrivals that
// keeps its time-partitions itself. Insert gives an arrival the next global
// ID, which is the count before the call.
type Scheme interface {
	index.Index
	index.Inserter
	// Seal flushes any buffered arrivals into a partition.
	Seal() error
	// Partitions returns how many separately-searchable pieces exist:
	// growing for TP, bounded for BTP.
	Partitions() int
}

// arrivals is the front end both schemes share: it z-normalizes and
// summarizes each arriving series, gives it its timestamp and the next
// global ID — the count of the series before it — and buffers it, with its
// symbols (index.Buffer), until a partition's worth has arrived.
type arrivals struct {
	cfg       index.Config
	bufferCap int
	buffer    index.Buffer
	count     int64
}

func newArrivals(cfg index.Config, bufferCap int) (arrivals, error) {
	if err := cfg.Validate(); err != nil {
		return arrivals{}, err
	}
	if bufferCap < 1 {
		return arrivals{}, fmt.Errorf("stream: bufferCap must be positive, got %d", bufferCap)
	}
	return arrivals{cfg: cfg, bufferCap: bufferCap, buffer: index.NewBuffer(cfg)}, nil
}

// add buffers one arrival and reports whether the buffer is full.
func (a *arrivals) add(ser series.Series, ts int64) (full bool, err error) {
	if len(ser) != a.cfg.SeriesLen {
		return false, fmt.Errorf("stream: series length %d, want %d", len(ser), a.cfg.SeriesLen)
	}
	key, z := a.cfg.Summarize(ser)
	e := record.Entry{Key: key, ID: a.count, TS: ts}
	if a.cfg.Materialized {
		e.Payload = z
	}
	a.buffer.Add(e)
	a.count++
	return a.buffer.Len() >= a.bufferCap, nil
}

// Count implements index.Index: every arrival, buffered ones included.
func (a *arrivals) Count() int64 { return a.count }
