// Package run owns the sorted run: a file of entries in (Key, ID) order,
// written once with sequential I/O and never modified. A sortable
// summarization turns every structure of the Coconut infrastructure into
// such runs — a CLSM level run and a BTP partition are the same object — so
// writing, merging, probing and scanning one are implemented here, once, as
// is the in-memory summary searches prune over (summary.go). A CTree's leaf
// level, written by the same sort and rewritten page by page by its inserts,
// keeps the same summary, scanned and probed by the same loops.
package run

import (
	"fmt"

	"repro/internal/extsort"
	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// mergeBudget is the working memory of one merge.
const mergeBudget = 1 << 20

// Run describes one sorted run. Files carry no header, so the entry count
// and the page encoding travel with the descriptor. Syn summarizes the
// entries for the query planner: built, like Sum, from the entries
// themselves as the run is written or merged. nil — a run recovered from
// pre-synopsis metadata — means unknown, not empty: a planner never skips or
// bounds such a run, until a merge rebuilds it. Sum, the resident summary,
// comes from Write, Merge or Load: every search reads a run through it.
type Run struct {
	File   string
	Count  int64
	Syn    *zonestat.Synopsis
	Packed bool // pages use the packed (compressed) encoding
	Sum    *Summary
}

// onProbePin is a test hook, not an option (see export_test.go): when set,
// a probe finds its page by pinning first keys, as it did before runs had
// summaries, and calls it at every such pin.
var onProbePin func()

// Store is one index's access to its runs: writes and merges go to Disk,
// every search-time page read goes through Reader (the disk itself, or a
// buffer pool over it), Raw resolves non-materialized
// candidates, and Planner decides whether a scan leaves dead pages unread
// and counts the pages it does (see Scan). A nil Planner plans with
// defaults, as everywhere: scans skip.
type Store struct {
	Disk    storage.Backend
	Reader  storage.PageReader
	Planner *index.Planner
	Config  index.Config
	Raw     series.RawStore

	codec record.Codec
}

// NewStore returns the run store of an index of the given shape, whose
// entries must fit a page of the disk (the index validates that). A nil
// reader selects the disk itself (uncached).
func NewStore(disk storage.Backend, reader storage.PageReader, pl *index.Planner, cfg index.Config, raw series.RawStore) Store {
	if reader == nil {
		reader = disk
	}
	return Store{Disk: disk, Reader: reader, Planner: pl, Config: cfg, Raw: raw, codec: cfg.Codec()}
}

// Codec returns the entry codec of the store's runs.
func (s *Store) Codec() record.Codec { return s.codec }

// sorter returns the writer of one run in the given encoding, watched by b.
func (s *Store) sorter(packed bool, b *Builder) *extsort.Sorter {
	return &extsort.Sorter{Disk: s.Disk, Codec: s.codec, MemBudget: mergeBudget,
		Output: extsort.Output{Packed: packed, Observer: b.Observe}}
}

// Write streams sorted entries into a new run file — packed pages or
// fixed-size records — and builds the run's synopsis and resident summary on
// the way. A failed write leaves no file behind, and returns no run.
func (s *Store) Write(name string, sorted []record.Entry, packed bool) (Run, error) {
	b := NewBuilder(s.Config, int64(len(sorted)), s.Disk.PageSize()/s.codec.Size(), zonestat.New(s.Config.Segments, s.Config.Bits))
	if err := s.sorter(packed, b).WriteRun(name, sorted); err != nil {
		return Run{}, err
	}
	return b.Run(name, packed), nil
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
	b := NewBuilder(s.Config, total, s.Disk.PageSize()/s.codec.Size(), zonestat.New(s.Config.Segments, s.Config.Bits))
	if _, err := s.sorter(packed, b).Merge(files, name); err != nil {
		return Run{}, err
	}
	return b.Run(name, packed), nil
}

// Load returns r — a file described by metadata — with its summary, built
// by one sequential pass over the file, which must hold exactly r.Count
// entries. A run passes no directory: a fixed-size page then holds as many
// records as fit, but the last, and a packed page what its header says. A
// CTree opening metadata older than the summary passes its directory: each
// page's entry count (a packed page's header must agree) and page number
// (nil: the identity). The pass reads the disk itself, not the reader:
// reopening an index fills no cache with pages no query asked for.
func (s *Store) Load(r Run, counts []int, pageOf []int64) (Run, error) {
	n, err := s.Disk.NumPages(r.File)
	if err != nil {
		return Run{}, err
	}
	size := s.codec.Size()
	perPage := s.Disk.PageSize() / size
	pages := int(n)
	if counts != nil {
		pages = len(counts)
	} else if !r.Packed {
		pages = int(min(n, (r.Count+int64(perPage)-1)/int64(perPage)))
	}
	b := NewBuilder(s.Config, min(r.Count, n*int64(s.Disk.PageSize())), perPage, nil) // a count the file cannot back sizes nothing
	cur := storage.ScanChunks(s.Disk, r.File, 0, n, storage.DefaultBufferPages)
	var seen int64
	for p := 0; p < pages; p++ {
		phys := int64(p)
		if pageOf != nil {
			phys = pageOf[p]
		}
		data, err := cur.Pin(phys)
		if err != nil {
			return Run{}, err
		}
		var v record.PackedView
		k := int(min(int64(perPage), r.Count-seen))
		switch {
		case r.Packed:
			if v, err = s.codec.ViewPacked(data); err != nil {
				return Run{}, fmt.Errorf("run: %s page %d: %w", r.File, phys, err)
			}
			if k = v.Count(); counts != nil && k != counts[p] {
				return Run{}, fmt.Errorf("run: %s page %d holds %d entries, its directory says %d", r.File, phys, k, counts[p])
			}
		case counts != nil:
			if k = counts[p]; k > perPage {
				return Run{}, fmt.Errorf("run: %s page %d claims %d entries, a page holds %d", r.File, phys, k, perPage)
			}
		}
		if k < 1 {
			return Run{}, fmt.Errorf("run: %s page %d holds no entries", r.File, phys)
		}
		for i := 0; i < k; i++ {
			if r.Packed {
				b.Observe(record.Entry{Key: v.Key(i), TS: v.TS(i)}, i == 0)
			} else {
				b.Observe(record.Entry{Key: record.DecodeKeyOnly(data[i*size:]), TS: record.DecodeTS(data[i*size:])}, i == 0)
			}
		}
		seen += int64(k)
	}
	if seen != r.Count {
		return Run{}, fmt.Errorf("run: %s holds %d entries, its metadata says %d", r.File, seen, r.Count)
	}
	r.Sum = b.Run(r.File, r.Packed).Sum
	r.Sum.pageOf = mapOrNil(pageOf)
	return r, r.Sum.ascending()
}

// Probe is the approximate point probe: the page covering the query key —
// the last whose first key is not above it, found among the summary's fence
// keys without a page read — is pinned and its entries all evaluated into
// col, so a probe pins exactly one page. (Under the pinned-probe test hook it
// finds that page as runs without summaries once did: log₂(pages) first keys
// read off their pages, then the covering page pinned once more.)
func (s *Store) Probe(r Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
	pages := r.Sum.Pages()
	if pages == 0 {
		return nil
	}
	p := 0
	if onProbePin == nil {
		p = r.Sum.Find(q.Key)
	}
	for hi := pages - 1; onProbePin != nil && p < hi; {
		mid := (p + hi + 1) / 2
		h, err := s.Reader.PinPage(r.File, int64(mid))
		if err != nil {
			return err
		}
		onProbePin()
		first := record.DecodeKeyOnly(h.Data())
		if r.Packed {
			first = record.PackedFirstKey(h.Data())
		}
		h.Release()
		if q.Key.Less(first) {
			hi = mid - 1
		} else {
			p = mid
		}
	}
	_, err := s.ProbePage(r, p, q, col, sc)
	return err
}

// ScanKNN scans the whole run with squared lower-bound pruning into col,
// verifying each page's surviving candidates in ascending lower-bound order.
// Dead pages go unread under Scan's one skip rule — at the run's ends, and
// mid-run in stretches long enough that the saved sequential reads outweigh
// the random read after the gap — and are reported as skipped "page" units;
// with the planner disabled every page is pinned.
func (s *Store) ScanKNN(r Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
	return s.Scan(r, 0, r.Sum.Pages(), "page", q, sc, col, func(pg index.Page) error {
		_, err := index.EvalPage(q, pg, s.Raw, col, sc)
		return err
	})
}

// ScanRange scans the whole run with squared epsilon pruning into col, under
// the same skip rule.
func (s *Store) ScanRange(r Run, q index.Query, col *index.RangeCollector, sc *index.Scratch) error {
	return s.Scan(r, 0, r.Sum.Pages(), "page", q, sc, col, func(pg index.Page) error {
		return index.EvalPageRange(q, pg, s.Raw, col, sc)
	})
}
