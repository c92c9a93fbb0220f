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
	"repro/internal/sortable"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// mergeBudget is the working memory of one merge.
const mergeBudget = 1 << 20

// Run describes one sorted run. Files carry no header, so the entry count
// travels with the descriptor. Syn summarizes the
// entries for the query planner and Sum, the resident summary, is what
// every search reads a run through. Both come from the entries themselves,
// in the one pass of Write, Merge or Load, so neither is ever nil, and
// neither is persisted.
type Run struct {
	File  string
	Count int64
	Syn   *zonestat.Synopsis
	Sum   *Summary
}

// onProbePin is a test hook, not an option (see export_test.go): when set,
// a probe finds its page by pinning first keys, as it did before runs had
// summaries, and calls it at every such pin.
var onProbePin func()

// Store is one index's access to its runs: writes and merges go to Disk,
// every search-time page read goes through Reader (the disk itself, or a
// buffer pool over it), and Raw resolves non-materialized candidates.
// Whether a scan leaves dead pages unread is the search's planner's
// decision, which the scratch carries (see Scan).
type Store struct {
	Disk   storage.Backend
	Reader storage.PageReader
	Config index.Config
	Raw    series.RawStore

	codec record.Codec
	// The page layout of the store's files, built once, so that no page a
	// search reads builds one; an error is why NewLayout refused it, and
	// the zero Layout then opens no page.
	layout    record.Layout
	layoutErr error
}

// NewStore returns the run store of an index of the given shape, whose
// entries must fit a page of the disk (the index validates that, through
// Layout). A nil reader selects the disk itself (uncached).
func NewStore(disk storage.Backend, reader storage.PageReader, cfg index.Config, raw series.RawStore) Store {
	if reader == nil {
		reader = disk
	}
	s := Store{Disk: disk, Reader: reader, Config: cfg, Raw: raw, codec: cfg.Codec()}
	s.layout, s.layoutErr = record.NewLayout(s.codec, disk.PageSize())
	return s
}

// Codec returns the entry codec of the store's runs.
func (s *Store) Codec() record.Codec { return s.codec }

// Layout returns the page layout of the store's files, or an error when
// its entries cannot fit a page of the disk.
func (s *Store) Layout() (record.Layout, error) { return s.layout, s.layoutErr }

// sorter returns the writer of one run, watched by b.
func (s *Store) sorter(b *Builder) *extsort.Sorter {
	return &extsort.Sorter{Disk: s.Disk, Codec: s.codec, MemBudget: mergeBudget,
		Output: extsort.Output{Observer: b.Observe}}
}

// Write streams sorted entries into a new run file of fixed-size records,
// and builds the run's synopsis and resident summary on the way. A failed
// write leaves no file behind, and returns no run.
func (s *Store) Write(name string, sorted []record.Entry) (Run, error) {
	b := NewBuilder(s.Config, int64(len(sorted)), s.Disk.PageSize()/s.codec.Size())
	if err := s.sorter(b).WriteRun(name, sorted); err != nil {
		return Run{}, err
	}
	return b.Run(name), nil
}

// Merge sort-merges runs into one new run. The inputs are left intact. The merged synopsis and
// summary are built from the merged entries as they are written (the
// synopsis equals the union of the inputs'). A failed merge leaves no file
// behind, and returns no run.
func (s *Store) Merge(inputs []Run, name string) (Run, error) {
	files := make([]extsort.Input, len(inputs))
	var total int64
	for i, in := range inputs {
		files[i] = extsort.Input{Name: in.File, Count: in.Count}
		total += in.Count
	}
	b := NewBuilder(s.Config, total, s.Disk.PageSize()/s.codec.Size())
	if _, err := s.sorter(b).Merge(files, name); err != nil {
		return Run{}, err
	}
	return b.Run(name), nil
}

// Load returns r — a file described by metadata — with its synopsis and
// summary, built by one sequential pass over the file, which must hold
// exactly r.Count entries. A run passes no directory: its pages are read as
// a file written at full pages (record.Layout.NextPage). A CTree opening
// metadata older than the summary passes its directory: each page's entry
// count and page number (nil: the identity). The pass reads the disk itself, not the reader: reopening an
// index fills no cache with pages no query asked for.
func (s *Store) Load(r Run, counts []int, pageOf []int64) (Run, error) {
	l, err := s.Layout()
	if err != nil {
		return Run{}, fmt.Errorf("run: %s: %w", r.File, err)
	}
	n, err := s.Disk.NumPages(r.File)
	if err != nil {
		return Run{}, err
	}
	pages := int(n)
	if counts != nil {
		pages = len(counts)
	}
	b := NewBuilder(s.Config, min(r.Count, n*int64(s.Disk.PageSize())), s.Disk.PageSize()/s.codec.Size()) // a count the file cannot back sizes nothing
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
		var pg record.PageView
		if counts != nil {
			err = l.Page(&pg, data, counts[p])
		} else {
			err = l.NextPage(&pg, data, r.Count-seen)
		}
		if err != nil {
			return Run{}, fmt.Errorf("run: %s page %d: %w", r.File, phys, err)
		}
		for i := 0; i < pg.Count(); i++ {
			b.Observe(pg.Key(i), pg.ID(i), pg.TS(i), i == 0)
		}
		seen += int64(pg.Count())
	}
	if seen != r.Count {
		return Run{}, fmt.Errorf("run: %s holds %d entries, its metadata says %d", r.File, seen, r.Count)
	}
	built := b.Run(r.File)
	r.Syn, r.Sum = built.Syn, built.Sum
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
		first, err := s.firstKey(r, mid, h.Data())
		h.Release()
		if err != nil {
			return err
		}
		if q.Key.Less(first) {
			hi = mid - 1
		} else {
			p = mid
		}
	}
	_, err := s.ProbePage(r, p, q, col, sc)
	return err
}

// firstKey decodes the first key of page p of r, pinned as data.
func (s *Store) firstKey(r Run, p int, data []byte) (sortable.Key, error) {
	var pg record.PageView
	if err := s.layout.Page(&pg, data, r.Sum.Entries(p)); err != nil {
		return sortable.Key{}, fmt.Errorf("run: %s page %d: %w", r.File, p, err)
	}
	return pg.Key(0), nil
}

// ScanRun scans the whole run with squared lower-bound pruning into col,
// verifying each page's surviving candidates through index.EvalPage: in
// ascending lower-bound order for a k-NN collector, in page order for a
// range collector. Dead pages go unread under Scan's one skip rule — at the
// run's ends, and mid-run in stretches long enough that the saved
// sequential reads outweigh the random read after the gap — and are
// reported as skipped "page" units; with the planner disabled every page is
// pinned.
func (s *Store) ScanRun(r Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
	return s.Scan(r, 0, 0, r.Sum.Pages(), "page", q, sc, col, func(q *index.Query, pg *index.Page) error {
		_, err := index.EvalPage(q, pg, s.Raw, col, sc)
		return err
	})
}
