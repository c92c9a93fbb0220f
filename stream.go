package coconut

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/clsm"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/storage"
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
	scheme  stream.Scheme
	cfg     index.Config
	disk    storage.Backend
	pool    *bufpool.Pool // buffer pool fronting disk; nil when uncached
	planner *index.Planner
	raw     *memStore
}

// NewStream creates a streaming index using the given scheme. BufferEntries
// (default 1024) sets the partition/flush granularity for TP and BTP and
// the write buffer for PP.
func NewStream(kind SchemeKind, opts Options) (*Stream, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	buf := opts.BufferEntries
	if buf == 0 {
		buf = 1024
	}
	raw := &memStore{}
	disk, err := opts.newBackend("")
	if err != nil {
		return nil, err
	}
	st := &Stream{cfg: cfg, disk: disk, planner: opts.newPlanner(), raw: raw}
	var reader storage.PageReader
	if opts.CacheBytes > 0 {
		st.pool = bufpool.New(disk, opts.CacheBytes)
		reader = st.pool
	}
	switch kind {
	case PP:
		base, err := newPPBase(disk, reader, cfg, buf, raw, opts.Parallelism, st.planner)
		if err != nil {
			return nil, err
		}
		st.scheme = stream.NewPP(base, cfg)
	case TP:
		tp, err := stream.NewTP("stream", cfg, stream.CTreeFactory(disk, reader, cfg, raw), buf, raw)
		if err != nil {
			return nil, err
		}
		tp.SetParallelism(opts.Parallelism)
		tp.SetPlanner(st.planner)
		st.scheme = tp
	case BTP:
		btp, err := stream.NewBTP(disk, "stream", cfg, buf, 2, raw)
		if err != nil {
			return nil, err
		}
		btp.SetParallelism(opts.Parallelism)
		btp.UseReader(reader)
		btp.SetPlanner(st.planner)
		st.scheme = btp
	default:
		return nil, fmt.Errorf("coconut: unknown scheme %q (want PP, TP, or BTP)", kind)
	}
	return st, nil
}

// Ingest adds one arriving series with its timestamp, returning its ID.
func (s *Stream) Ingest(ser []float64, ts int64) (int, error) {
	if len(ser) != s.cfg.SeriesLen {
		return 0, fmt.Errorf("coconut: series length %d, want %d", len(ser), s.cfg.SeriesLen)
	}
	s.raw.append(series.Series(ser).ZNormalize())
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
func (s *Stream) Stats() Stats { return statsWith(s.disk, s.pool).withPlanner(s.planner) }

// Close seals buffered arrivals into the scheme's on-disk structures,
// releases the buffer pool's pages, and closes the storage backend (which,
// on the file-backed backend, fsyncs and closes the page files).
// Idempotent; defer it like any other index handle.
func (s *Stream) Close() error {
	err := s.scheme.Seal()
	if s.pool != nil {
		s.pool.Purge()
	}
	if derr := s.disk.Close(); err == nil {
		err = derr
	}
	return err
}

// newPPBase builds the CLSM index PP wraps.
func newPPBase(disk storage.Backend, reader storage.PageReader, cfg index.Config, buf int, raw series.RawStore, par int, pl *index.Planner) (stream.EntryIndex, error) {
	return clsm.New(clsm.Options{
		Disk:          disk,
		Reader:        reader,
		Name:          "stream",
		Config:        cfg,
		BufferEntries: buf,
		Raw:           raw,
		Parallelism:   par,
		Planner:       pl,
	})
}
