package coconut

import (
	"fmt"

	"repro/internal/assemble"
	"repro/internal/clsm"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/stream"
)

// SchemeKind selects a streaming exploration scheme.
type SchemeKind string

// Streaming schemes (Section 3 of the demo paper).
const (
	// PP keeps one CLSM index over everything and filters timestamps
	// during search.
	PP SchemeKind = "PP"
	// TP seals a new CTree partition per buffer fill; queries skip
	// partitions outside the window, but partitions accumulate forever.
	TP SchemeKind = "TP"
	// BTP sort-merges time-adjacent partitions of similar size, keeping
	// recent data in small partitions and the partition count bounded.
	BTP SchemeKind = "BTP"
)

// Stream explores continuously arriving data series within temporal
// windows.
type Stream struct {
	b      *assemble.Built // backend, pool, planner and raw series file; the scheme is the index
	scheme stream.Scheme
	cfg    index.Config
}

// NewStream creates a streaming index using the given scheme. BufferEntries
// (default 1024) sets the partition/flush granularity for TP and BTP and
// the write buffer for PP.
func NewStream(kind SchemeKind, opts Options) (*Stream, error) {
	if kind != PP && kind != TP && kind != BTP {
		return nil, fmt.Errorf("coconut: unknown scheme %q (want PP, TP, or BTP)", kind)
	}
	// PP is one CLSM index over everything — an ordinary build; TP and BTP
	// manage their own partitions over the storage half of one.
	spec := opts.spec("CLSM")
	spec.WALDir, spec.CompactionWorkers = "", 0
	var b *assemble.Built
	var err error
	if kind == PP {
		b, err = assemble.Build(spec, nil)
	} else {
		b, err = assemble.Base(spec)
	}
	if err != nil {
		return nil, err
	}
	st := &Stream{b: b, cfg: b.Config}
	raw, buf, par := b.RawStore(), spec.BufferEntries, spec.Parallelism
	switch kind {
	case PP:
		st.scheme = stream.NewPP(b.Index.(*clsm.LSM), st.cfg)
	case TP:
		var tp *stream.TP
		tp, err = stream.NewTP("stream", st.cfg, stream.CTreeFactory(b.Disk, b.Reader(), st.cfg, raw), buf, raw)
		if err == nil {
			tp.SetParallelism(par)
			tp.SetPlanner(b.Planner)
			st.scheme = tp
		}
	case BTP:
		var btp *stream.BTP
		btp, err = stream.NewBTP(b.Disk, b.Reader(), "stream", st.cfg, buf, 2, raw)
		if err == nil {
			btp.SetParallelism(par)
			btp.SetPlanner(b.Planner)
			st.scheme = btp
		}
	}
	if err != nil {
		b.Close()
		return nil, err
	}
	return st, nil
}

// Ingest adds one arriving series with its timestamp, returning its ID.
func (s *Stream) Ingest(ser []float64, ts int64) (int, error) {
	if len(ser) != s.cfg.SeriesLen {
		return 0, fmt.Errorf("coconut: series length %d, want %d", len(ser), s.cfg.SeriesLen)
	}
	if s.b.Raw != nil {
		if _, err := s.b.Raw.Append(series.Series(ser).ZNormalize()); err != nil {
			return 0, err
		}
	}
	id, err := s.scheme.Ingest(series.Series(ser), ts)
	return int(id), err
}

// Seal flushes buffered arrivals into the scheme's on-disk structures.
func (s *Stream) Seal() error { return s.scheme.Seal() }

// SearchWindow returns the exact k nearest neighbors among entries whose
// timestamp lies in [minTS, maxTS].
func (s *Stream) SearchWindow(q []float64, k int, minTS, maxTS int64) ([]Match, error) {
	pq := index.NewQuery(series.Series(q), s.cfg).WithWindow(minTS, maxTS)
	rs, err := s.scheme.ExactSearch(pq, k)
	return convert(rs), err
}

// Search returns the exact k nearest neighbors over the whole history.
func (s *Stream) Search(q []float64, k int) ([]Match, error) {
	rs, err := s.scheme.ExactSearch(index.NewQuery(series.Series(q), s.cfg), k)
	return convert(rs), err
}

// SearchApprox probes the scheme near q's key without exactness
// guarantees, restricted to [minTS, maxTS].
func (s *Stream) SearchApprox(q []float64, k int, minTS, maxTS int64) ([]Match, error) {
	pq := index.NewQuery(series.Series(q), s.cfg).WithWindow(minTS, maxTS)
	rs, err := s.scheme.ApproxSearch(pq, k)
	return convert(rs), err
}

// Count returns the number of ingested series.
func (s *Stream) Count() int { return int(s.scheme.Count()) }

// Partitions returns how many separately-searchable pieces exist: 1 for
// PP, linear in stream length for TP, logarithmic for BTP.
func (s *Stream) Partitions() int { return s.scheme.Partitions() }

// Name reports the scheme and base index, e.g. "CLSM+BTP".
func (s *Stream) Name() string { return s.scheme.Name() }

// Stats returns the I/O accounting of the stream's disk since creation,
// cache counters included when a buffer pool is configured, plus the query
// planner's skip counter.
func (s *Stream) Stats() Stats { return statsOf(s.b) }

// Close seals buffered arrivals into the scheme's on-disk structures,
// releases the buffer pool's pages, and closes the storage backend (which,
// on the file-backed backend, fsyncs and closes the page files).
// Idempotent; defer it like any other index handle.
func (s *Stream) Close() error {
	err := s.scheme.Seal()
	if cerr := s.b.Close(); err == nil {
		err = cerr
	}
	return err
}
