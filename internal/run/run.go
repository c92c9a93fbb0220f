// Package run owns the sorted run: a file of entries in (Key, ID) order,
// written once with sequential I/O and never modified. A sortable
// summarization turns every structure of the Coconut infrastructure into
// such runs — a CLSM level run and a BTP partition are the same object — so
// writing one, merging several, probing one for a key's neighbourhood and
// scanning one end to end are implemented here, once. The indexes keep what
// differs between them: which runs exist, when they merge, and how a query
// orders and skips them.
package run

import (
	"repro/internal/extsort"
	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// mergeBudget is the working memory of one merge.
const mergeBudget = 1 << 20

// Run describes one sorted run. Files carry no header, so the entry count
// and the page encoding travel with the descriptor. Syn summarizes the
// entries for the query planner: built as the run is written, unioned
// (exactly, with no re-scan) when runs merge. nil — a run recovered from
// pre-synopsis metadata — means unknown, not empty: a planner never skips or
// bounds such a run.
type Run struct {
	File   string
	Count  int64
	Syn    *zonestat.Synopsis
	Packed bool // pages use the packed (compressed) encoding
}

// Store is one index's access to its runs: writes and merges go to Disk,
// every search-time page read goes through Reader (the disk itself, or a
// buffer pool over it; see UseReader), and Raw resolves non-materialized
// candidates.
type Store struct {
	Disk   storage.Backend
	Reader storage.PageReader
	Config index.Config
	Raw    series.RawStore

	codec   record.Codec
	perPage int // fixed-size records to a page
}

// NewStore returns the run store of an index of the given shape, whose
// entries must fit a page of the disk (the index validates that). A nil
// reader selects the disk itself (uncached).
func NewStore(disk storage.Backend, reader storage.PageReader, cfg index.Config, raw series.RawStore) Store {
	codec := cfg.Codec()
	s := Store{Disk: disk, Config: cfg, Raw: raw, codec: codec, perPage: disk.PageSize() / codec.Size()}
	s.UseReader(reader)
	return s
}

// UseReader routes subsequent page reads through r — typically a buffer
// pool over the store's disk; nil restores the uncached disk. Not
// synchronized with in-flight searches.
func (s *Store) UseReader(r storage.PageReader) {
	if r == nil {
		r = s.Disk
	}
	s.Reader = r
}

// Codec returns the entry codec of the store's runs.
func (s *Store) Codec() record.Codec { return s.codec }

func (s *Store) sorter() *extsort.Sorter {
	return &extsort.Sorter{Disk: s.Disk, Codec: s.codec, MemBudget: mergeBudget}
}

// Write streams sorted entries into a new run file — packed pages or
// fixed-size records — and builds the run's synopsis on the way. A failed
// write leaves no file behind.
func (s *Store) Write(name string, sorted []record.Entry, packed bool) (Run, error) {
	syn := zonestat.New(s.Config.Segments, s.Config.Bits)
	for _, e := range sorted {
		syn.Add(e.Key, e.TS)
	}
	if err := s.sorter().WriteRun(name, sorted, packed); err != nil {
		return Run{}, err
	}
	return Run{File: name, Count: int64(len(sorted)), Syn: syn, Packed: packed}, nil
}

// Merge sort-merges runs, in any mix of encodings, into one new run. The
// inputs are left intact. The merged synopsis is the exact union of the
// inputs' — every statistic is a monotone envelope, so no re-scan is needed
// — and unknown if any input's is: treating an unknown input as empty would
// give a too-tight (wrong) bound. A failed merge leaves no file behind.
func (s *Store) Merge(inputs []Run, name string, packed bool) (Run, error) {
	files := make([]extsort.Input, len(inputs))
	syn := zonestat.New(s.Config.Segments, s.Config.Bits)
	for i, in := range inputs {
		files[i] = extsort.Input{Name: in.File, Count: in.Count, Packed: in.Packed}
		if in.Syn == nil {
			syn = nil
		} else if syn != nil {
			syn.Union(in.Syn)
		}
	}
	total, err := s.sorter().Merge(files, name, packed)
	if err != nil {
		return Run{}, err
	}
	return Run{File: name, Count: total, Syn: syn, Packed: packed}, nil
}

// Pages returns the number of pages a run occupies. Fixed-size runs derive
// it from the entry count; packed runs hold a data-dependent number of
// entries per page, so the file length is authoritative.
func (s *Store) Pages(r Run) (int, error) {
	if !r.Packed {
		return int((r.Count + int64(s.perPage) - 1) / int64(s.perPage)), nil
	}
	if r.Count == 0 {
		return 0, nil
	}
	n, err := s.Reader.NumPages(r.File)
	return int(n), err
}

// page describes page p of run r, pinned as data, to the page evaluator.
func (s *Store) page(r Run, p int, data []byte) index.Page {
	if r.Packed {
		return index.PackedPage(data, s.codec)
	}
	n := s.perPage
	if rem := r.Count - int64(p)*int64(n); rem < int64(n) {
		n = int(rem)
	}
	return index.FixedPage(data, n, s.codec)
}

// Probe is the approximate point probe: a binary search over the run's
// pages by first key locates the page covering the query key, whose entries
// are then all evaluated into col, straight from the page bytes. The search
// has usually just examined that page; it is pinned again all the same, so
// the access sequence does not depend on where the search ended (an
// uncached repeat pin is accounted as buffered, a cached one is a hit).
func (s *Store) Probe(r Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
	pages, err := s.Pages(r)
	if err != nil || pages == 0 {
		return err
	}
	lo, hi := 0, pages-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		h, err := s.Reader.PinPage(r.File, int64(mid))
		if err != nil {
			return err
		}
		var first sortable.Key
		if r.Packed {
			first = record.PackedFirstKey(h.Data())
		} else {
			first = record.DecodeKeyOnly(h.Data())
		}
		h.Release()
		if q.Key.Less(first) {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	h, err := s.Reader.PinPage(r.File, int64(lo))
	if err != nil {
		return err
	}
	_, err = index.EvalPage(q, s.page(r, lo, h.Data()), s.Raw, col, sc)
	h.Release()
	return err
}

// Scan is the one sequential page loop of a run: every page, in order,
// through one storage cursor, handed to eval — the exact k-NN scan
// (index.EvalPage) and the range scan (index.EvalPageRange) differ only in
// eval. The page is valid until eval returns.
func (s *Store) Scan(r Run, eval func(pg index.Page) error) error {
	pages, err := s.Pages(r)
	if err != nil {
		return err
	}
	cur := s.Reader.Scan(r.File, 0, int64(pages))
	defer cur.Close()
	for p := 0; p < pages; p++ {
		data, err := cur.Pin(int64(p))
		if err != nil {
			return err
		}
		if err := eval(s.page(r, p, data)); err != nil {
			return err
		}
	}
	return nil
}

// ScanKNN scans the run with squared lower-bound pruning into col, verifying
// each page's surviving candidates in ascending lower-bound order.
func (s *Store) ScanKNN(r Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
	return s.Scan(r, func(pg index.Page) error {
		_, err := index.EvalPage(q, pg, s.Raw, col, sc)
		return err
	})
}
