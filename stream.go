package coconut

import (
	"fmt"

	"repro/internal/assemble"
	"repro/internal/index"
	"repro/internal/series"
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
// windows. It is an index handle like Tree's and LSM's — its Search,
// SearchRange and SearchBatch answer over the whole history — whose index
// is the scheme: a PP stream is a CLSM, and a TP or BTP stream keeps its
// time-partitions itself. SaveFile saves a PP stream as the CLSM it is
// (OpenLSM reopens it) and refuses a TP or BTP stream.
type Stream struct {
	handle
	kind SchemeKind
}

// NewStream creates a streaming index using the given scheme. BufferEntries
// (default 1024) sets the partition/flush granularity for TP and BTP and
// the write buffer for PP. A stream keeps no write-ahead log and runs no
// background compaction: Options.WALDir and CompactionWorkers are refused.
func NewStream(kind SchemeKind, opts Options) (*Stream, error) {
	if opts.WALDir != "" || opts.CompactionWorkers != 0 {
		return nil, fmt.Errorf("coconut: a stream keeps no write-ahead log and runs no background compaction; leave WALDir and CompactionWorkers unset")
	}
	// A PP stream is a CLSM; TP partitions into CTrees, BTP into CLSM runs.
	fam, scheme := "CLSM", string(kind)
	switch kind {
	case PP:
		scheme = ""
	case TP:
		fam = "CTree"
	case BTP:
	default:
		return nil, fmt.Errorf("coconut: unknown scheme %q (want PP, TP, or BTP)", kind)
	}
	spec := opts.spec(fam)
	spec.Scheme = scheme
	b, err := assemble.Build(spec, nil)
	if err != nil {
		return nil, err
	}
	return &Stream{handle{b: b, cfg: b.Config}, kind}, nil
}

// Ingest adds one arriving series with its timestamp, returning its ID.
func (s *Stream) Ingest(ser []float64, ts int64) (int, error) {
	id := s.Count()
	return id, s.Insert(ser, ts)
}

// Seal flushes buffered arrivals into the scheme's on-disk structures. A PP
// stream's CLSM answers from its write buffer, so it has nothing to seal.
func (s *Stream) Seal() error { return s.b.Seal() }

// SearchWindow returns the exact k nearest neighbors among entries whose
// timestamp lies in [minTS, maxTS].
func (s *Stream) SearchWindow(q []float64, k int, minTS, maxTS int64) ([]Match, error) {
	return s.searchWindow(q, k, minTS, maxTS)
}

// SearchApprox probes the scheme without exactness guarantees, restricted
// to [minTS, maxTS]: near q's key, or, on BTP and first on a materialized
// TP partition of 256 leaves or more, at the pages each partition's resident
// summary ranks best for q and the window.
func (s *Stream) SearchApprox(q []float64, k int, minTS, maxTS int64) ([]Match, error) {
	rs, err := s.b.ApproxSearch(index.NewQuery(series.Series(q), s.cfg).WithWindow(minTS, maxTS), k)
	return convert(rs), err
}

// Partitions returns how many separately-searchable pieces exist: 1 for
// PP, linear in stream length for TP, logarithmic for BTP.
func (s *Stream) Partitions() int { return s.b.Partitions() }

// Name reports the scheme and base index, e.g. "CLSM+BTP".
func (s *Stream) Name() string {
	if s.kind == PP {
		return s.b.Index.Name() + "+PP"
	}
	return s.b.Index.Name()
}

// Close seals buffered arrivals into the scheme's on-disk structures,
// releases the buffer pool's pages, and closes the storage backend (which,
// on the file-backed backend, fsyncs and closes the page files).
// Idempotent; defer it like any other index handle.
func (s *Stream) Close() error {
	err := s.Seal()
	if cerr := s.handle.Close(); err == nil {
		err = cerr
	}
	return err
}
