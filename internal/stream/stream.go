// Package stream implements the three streaming data series exploration
// schemes of Section 3 of the paper. Queries over streams carry temporal
// windows, and each scheme trades ingest cost against window-query cost
// differently:
//
//   - PP (Post-Processing) keeps one index over everything and filters
//     entries by timestamp as they are encountered during search.
//   - TP (Temporal Partitioning) seals the in-memory buffer into a new
//     partition every time it fills; queries touch only partitions whose
//     time range intersects the window — but partitions accumulate without
//     bound, so large-window queries visit many small partitions.
//   - BTP (Bounded Temporal Partitioning), enabled by sortable
//     summarizations, sort-merges time-adjacent partitions of similar size:
//     newer data stays in small partitions, older data migrates to larger
//     contiguous ones, and the total partition count stays logarithmic.
//
// All schemes share a Ingestor front end that z-normalizes, summarizes,
// assigns global IDs, and timestamps each arriving series.
//
// A scheme answers through cores, as an index does (index.Index): they take
// the caller's collector and context, and fan out on the worker pool the
// context carries. TP and BTP spend it across their time-partitions — a TP
// partition, an index of its own, searching serially on a context of its own
// per worker slot — and PP hands it to its one index. Window-query answers
// are identical at every parallelism — partitions are independent, and
// per-worker results merge through the deterministic collector of package
// index — and identical across the three schemes over one stream: a TP
// partition is searched through its index's cores (index.Index.ExactInto)
// and a BTP partition scanned straight into the query's collector, so every
// merge is on the accumulated squared sums PP's one index compares.
package stream

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/series"
)

// Scheme is a streaming index: it ingests timestamped series and answers
// (optionally windowed) similarity queries.
type Scheme interface {
	// Name identifies the scheme and its base index, e.g. "CLSM+BTP".
	Name() string
	// Ingest adds one series with its arrival timestamp, returning the
	// assigned global series ID.
	Ingest(s series.Series, ts int64) (int64, error)
	// Seal flushes any buffered state to the underlying structures.
	Seal() error
	// ApproxInto and ExactInto are the k-NN cores, as on an index.Index; a
	// windowed query restricts matches to entries whose timestamp lies in
	// the window.
	ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error
	ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error
	// Count returns the number of ingested series.
	Count() int64
	// Partitions returns how many separately-searchable pieces exist (1 for
	// PP; growing for TP; bounded for BTP).
	Partitions() int
}

// EntryIndex is the index-side contract PP needs: searchable and accepting
// pre-summarized entries. *ctree.Tree, *clsm.LSM and *adsplus.Tree all
// implement it.
type EntryIndex interface {
	index.Index
	InsertEntry(e record.Entry) error
}

// summarizer prepares entries for ingestion: z-normalize, summarize,
// assign the next global ID.
type summarizer struct {
	cfg    index.Config
	nextID int64
}

func (s *summarizer) entry(ser series.Series, ts int64) (record.Entry, error) {
	if len(ser) != s.cfg.SeriesLen {
		return record.Entry{}, fmt.Errorf("stream: series length %d, want %d", len(ser), s.cfg.SeriesLen)
	}
	key, z := s.cfg.Summarize(ser)
	e := record.Entry{Key: key, ID: s.nextID, TS: ts}
	if s.cfg.Materialized {
		e.Payload = z
	}
	s.nextID++
	return e, nil
}

// PP wraps a single index: every entry lives in one structure and window
// predicates are applied during search (the indexes' TS filter).
type PP struct {
	base EntryIndex
	sum  summarizer
}

// NewPP builds a post-processing scheme over base.
func NewPP(base EntryIndex, cfg index.Config) *PP {
	return &PP{base: base, sum: summarizer{cfg: cfg}}
}

// Name implements Scheme.
func (p *PP) Name() string { return p.base.Name() + "+PP" }

// Ingest implements Scheme.
func (p *PP) Ingest(s series.Series, ts int64) (int64, error) {
	e, err := p.sum.entry(s, ts)
	if err != nil {
		return 0, err
	}
	return e.ID, p.base.InsertEntry(e)
}

// Seal implements Scheme. PP has no buffered state of its own; indexes with
// internal buffers (CLSM, ADS+) still answer queries from them, so nothing
// needs forcing.
func (p *PP) Seal() error { return nil }

// ApproxInto implements Scheme.
func (p *PP) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return p.base.ApproxInto(q, col, ctx)
}

// ExactInto implements Scheme.
func (p *PP) ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return p.base.ExactInto(q, col, ctx)
}

// Count implements Scheme.
func (p *PP) Count() int64 { return p.base.Count() }

// Partitions implements Scheme: PP is a single partition by construction.
func (p *PP) Partitions() int { return 1 }

var _ Scheme = (*PP)(nil)
