// Package run owns the sorted run: a file of entries in (Key, ID) order,
// written once with sequential I/O and never modified. A sortable
// summarization turns every structure of the Coconut infrastructure into
// such runs — a CLSM level run and a BTP partition are the same object — so
// writing one, merging several, probing one for a key's neighbourhood and
// scanning one end to end are implemented here, once, as is the in-memory
// summary every run carries (summary.go), which searches prune over while the
// file is read sequentially. The indexes keep what differs between them:
// which runs exist, when they merge, and how a query orders and skips them.
package run

import (
	"fmt"
	"sort"

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
// entries for the query planner: built, like the resident summary, from the
// entries themselves as the run is written or merged. nil — a run recovered
// from pre-synopsis metadata — means unknown, not empty: a planner never
// skips or bounds such a run, until a merge rebuilds it.
//
// A Run from Write, Merge or Load carries its resident summary; one
// assembled by hand has none, and is searched from its pages' own bytes.
type Run struct {
	File   string
	Count  int64
	Syn    *zonestat.Synopsis
	Packed bool // pages use the packed (compressed) encoding

	sum *summary
}

// Test hooks, not options (see export_test.go). With pageKeyBounds searches
// run as they did before runs had resident summaries: every entry bounded
// and window-filtered from its page's bytes, no page envelope tested, the
// probe's page found by pinning first keys. A non-nil onProbePin restores the
// last of those alone, and is called at every such pin. The equivalence
// suite holds the resident searches to these: same answers, and the same
// page accesses in the same order, less exactly the first-key pins a
// fence-key probe does not make.
var (
	pageKeyBounds bool
	onProbePin    func()
)

// resident returns the summary searches of r consult, or nil for none.
func (r Run) resident() *summary {
	if pageKeyBounds {
		return nil
	}
	return r.sum
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

// sorter returns the writer of one run in the given encoding, watched by obs.
func (s *Store) sorter(packed bool, obs extsort.Observer) *extsort.Sorter {
	return &extsort.Sorter{Disk: s.Disk, Codec: s.codec, MemBudget: mergeBudget,
		Output: extsort.Output{Packed: packed, Observer: obs}}
}

// Write streams sorted entries into a new run file — packed pages or
// fixed-size records — and builds the run's synopsis and resident summary on
// the way. A failed write leaves no file behind, and returns no run.
func (s *Store) Write(name string, sorted []record.Entry, packed bool) (Run, error) {
	b := s.summarizer(int64(len(sorted)), packed, zonestat.New(s.Config.Segments, s.Config.Bits))
	if err := s.sorter(packed, b.observe).WriteRun(name, sorted); err != nil {
		return Run{}, err
	}
	return b.run(name, packed), nil
}

// Merge sort-merges runs, in any mix of encodings, into one new run. The
// inputs are left intact. The merged synopsis and summary are built from the
// merged entries as they are written, so they are exact whatever is known
// about the inputs (the synopsis equals the union of the inputs', when every
// input has one). A failed merge leaves no file behind, and returns no run.
func (s *Store) Merge(inputs []Run, name string, packed bool) (Run, error) {
	files := make([]extsort.Input, len(inputs))
	var total int64
	for i, in := range inputs {
		files[i] = extsort.Input{Name: in.File, Count: in.Count, Packed: in.Packed}
		total += in.Count
	}
	b := s.summarizer(total, packed, zonestat.New(s.Config.Segments, s.Config.Bits))
	if _, err := s.sorter(packed, b.observe).Merge(files, name); err != nil {
		return Run{}, err
	}
	return b.run(name, packed), nil
}

// Load returns r — a run described by metadata — with its resident summary,
// rebuilt by one sequential pass over the file, which must hold exactly
// r.Count entries. The pass reads the disk itself, not the reader: reopening
// an index fills no cache with pages no query asked for.
func (s *Store) Load(r Run) (Run, error) {
	npages, err := s.Disk.NumPages(r.File)
	if err != nil {
		return Run{}, err
	}
	if !r.Packed {
		npages = min(npages, (r.Count+int64(s.perPage)-1)/int64(s.perPage))
	}
	b := s.summarizer(r.Count, r.Packed, nil)
	cur := storage.ScanChunks(s.Disk, r.File, 0, npages, storage.DefaultBufferPages)
	size := s.codec.Size()
	var seen int64
	for p := int64(0); p < npages; p++ {
		data, err := cur.Pin(p)
		if err != nil {
			return Run{}, err
		}
		if r.Packed {
			v, err := s.codec.ViewPacked(data)
			if err != nil {
				return Run{}, fmt.Errorf("run: %s page %d: %w", r.File, p, err)
			}
			for i := 0; i < v.Count(); i++ {
				b.observe(record.Entry{Key: v.Key(i), TS: v.TS(i)}, i == 0)
			}
			seen += int64(v.Count())
			continue
		}
		n := int(min(int64(s.perPage), r.Count-seen))
		for i := 0; i < n; i++ {
			rec := data[i*size:]
			b.observe(record.Entry{Key: record.DecodeKeyOnly(rec), TS: record.DecodeTS(rec)}, i == 0)
		}
		seen += int64(n)
	}
	if seen != r.Count {
		return Run{}, fmt.Errorf("run: %s holds %d entries, its metadata says %d", r.File, seen, r.Count)
	}
	r.sum = b.sum
	return r, nil
}

// Pages returns the number of pages a run occupies. Fixed-size runs derive
// it from the entry count; packed runs hold a data-dependent number of
// entries per page, so the summary's page count, or without one the file
// length, is authoritative.
func (s *Store) Pages(r Run) (int, error) {
	if !r.Packed {
		return int((r.Count + int64(s.perPage) - 1) / int64(s.perPage)), nil
	}
	if r.Count == 0 {
		return 0, nil
	}
	if sum := r.resident(); sum != nil {
		return sum.pages(), nil
	}
	n, err := s.Reader.NumPages(r.File)
	return int(n), err
}

// page describes page p of run r, pinned as data, to the page evaluator,
// which with a summary takes the entries' symbols and timestamps from the
// columns and so reads data only for an entry that survives its bound.
func (s *Store) page(r Run, sum *summary, p int, data []byte) (pg index.Page) {
	if r.Packed {
		pg = index.PackedPage(data, s.codec)
	} else {
		n := s.perPage
		if rem := r.Count - int64(p)*int64(n); rem < int64(n) {
			n = int(rem)
		}
		pg = index.FixedPage(data, n, s.codec)
	}
	if sum != nil {
		sum.attach(&pg, p)
	}
	return pg
}

// Probe is the approximate point probe: the page covering the query key —
// the last whose first key is not above it — is pinned and its entries all
// evaluated into col. The covering page is found in memory, by a binary
// search over the page-first keys the summary holds, so a probe pins exactly
// one page. A run without a summary is searched by pinning: log₂(pages)
// first keys read off their pages, and then the covering page once more, so
// that the access sequence does not depend on where the search ended (an
// uncached repeat pin is accounted as buffered, a cached one is a hit).
func (s *Store) Probe(r Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
	pages, err := s.Pages(r)
	if err != nil || pages == 0 {
		return err
	}
	sum := r.resident()
	lo, hi := 0, pages-1
	if sum != nil && onProbePin == nil {
		lo = sort.Search(hi, func(p int) bool { return q.Key.Less(sum.firstKey(p + 1)) })
	} else {
		for lo < hi {
			mid := (lo + hi + 1) / 2
			h, err := s.Reader.PinPage(r.File, int64(mid))
			if err != nil {
				return err
			}
			if onProbePin != nil {
				onProbePin()
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
	}
	h, err := s.Reader.PinPage(r.File, int64(lo))
	if err != nil {
		return err
	}
	_, err = index.EvalPage(q, s.page(r, sum, lo, h.Data()), s.Raw, col, sc)
	h.Release()
	return err
}

// Scan is the one sequential page loop of a run: every page, in order,
// through one storage cursor, handed to eval — the exact k-NN scan
// (index.EvalPage) and the range scan (index.EvalPageRange) differ only in
// eval and in the collector, col, which is first asked whether the page's
// symbol envelope already rules out every series inside it (dead). The page
// is valid until eval returns.
//
// A dead page is pinned and released all the same: it is part of the
// sequential run the cost model charges for, and of the cache's contents.
// What it is spared is every touch of its bytes and every one of its
// entries' bounds, none of which could have survived (the envelope's bound is
// never larger than a member's).
func (s *Store) Scan(r Run, q index.Query, sc *index.Scratch, col index.EnvelopeTester, eval func(pg index.Page) error) error {
	pages, err := s.Pages(r)
	if err != nil {
		return err
	}
	sum := r.resident()
	cur := s.Reader.Scan(r.File, 0, int64(pages))
	defer cur.Close()
	for p := 0; p < pages; p++ {
		data, err := cur.Pin(int64(p))
		if err != nil {
			return err
		}
		if sum != nil {
			if mn, mx := sum.env(p); col.DeadEnvelope(sc.P, mn, mx) {
				if sc.Trace != nil {
					sc.NoteDeadPage(sum.inWindow(&q, p))
				}
				continue
			}
		}
		if err := eval(s.page(r, sum, p, data)); err != nil {
			return err
		}
	}
	return nil
}

// ScanKNN scans the run with squared lower-bound pruning into col, verifying
// each page's surviving candidates in ascending lower-bound order.
func (s *Store) ScanKNN(r Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
	return s.Scan(r, q, sc, col, func(pg index.Page) error {
		_, err := index.EvalPage(q, pg, s.Raw, col, sc)
		return err
	})
}

// ScanRange scans the run with squared epsilon pruning into col.
func (s *Store) ScanRange(r Run, q index.Query, col *index.RangeCollector, sc *index.Scratch) error {
	return s.Scan(r, q, sc, col, func(pg index.Page) error {
		return index.EvalPageRange(q, pg, s.Raw, col, sc)
	})
}
