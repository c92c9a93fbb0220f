package record

import (
	"fmt"
	"io"

	"repro/internal/series"
	"repro/internal/sortable"
)

// PageAppender is the write surface a Writer needs. storage.Backend
// satisfies it.
type PageAppender interface {
	PageSize() int
	Create(name string) error
	AppendPages(name string, data []byte) (int64, error)
}

// PageCursor is the read surface a Reader needs: one page at a time, read
// ahead however the cursor sees fit. storage.Cursor satisfies it.
type PageCursor interface {
	Pin(page int64) ([]byte, error)
}

// Layout is the page layout of an entry file: fixed-size entries of one
// codec on pages of one size, as many to a page as fit, the rest of the
// page zeroes. It is a value, built once and valid for both files and
// pages.
type Layout struct {
	codec    Codec
	size     int // the codec's entry size
	pageSize int
	perPage  int // entries a page holds
}

// NewLayout returns the layout of the codec's entries on pages of pageSize
// bytes. It errors when an entry cannot fit a page.
func NewLayout(c Codec, pageSize int) (Layout, error) {
	l := Layout{codec: c, size: c.Size(), pageSize: pageSize, perPage: pageSize / c.Size()}
	if l.perPage < 1 {
		return Layout{}, fmt.Errorf("record: entry size %d exceeds page size %d", c.Size(), pageSize)
	}
	return l, nil
}

// PageView is one page of an entry file opened for decoding: an array of
// fixed-size records. It aliases the page bytes, so it is valid while they
// are.
type PageView struct {
	codec Codec
	size  int // the codec's entry size
	data  []byte
	n     int
}

// Page opens data into pg as a page whose entry count the caller knows —
// from a directory or a summary — which the page must have room for. pg is
// written in place, so a loop that opens page after page copies no view;
// after an error it is no page to read.
func (l *Layout) Page(pg *PageView, data []byte, count int) error {
	pg.codec, pg.size, pg.data, pg.n = l.codec, l.size, data, count
	switch {
	case len(data) < l.pageSize:
		return fmt.Errorf("record: page of %d bytes, the layout's are %d", len(data), l.pageSize)
	case count > l.perPage:
		return fmt.Errorf("record: page claims %d entries, a page holds %d", count, l.perPage)
	case count < 1:
		return fmt.Errorf("record: page holds no entries")
	}
	return nil
}

// NextPage opens data into pg, as Page does, as the next page of a file
// written at full pages, of which left entries remain: the page holds as
// many of them as fit.
func (l *Layout) NextPage(pg *PageView, data []byte, left int64) error {
	return l.Page(pg, data, int(min(left, int64(l.perPage))))
}

// Count returns the number of entries on the page.
func (p *PageView) Count() int { return p.n }

// Key returns entry i's sortable key.
func (p *PageView) Key(i int) sortable.Key {
	return sortable.DecodeKey(p.data[i*p.size:])
}

// ID returns entry i's series ID.
func (p *PageView) ID(i int) int64 {
	return decodeID(p.data[i*p.size:])
}

// TS returns entry i's timestamp.
func (p *PageView) TS(i int) int64 {
	return decodeTS(p.data[i*p.size:])
}

// PayloadBytes returns entry i's payload as the page stores it, verbatim,
// or nil when the codec is not materialized. The slice aliases the page.
func (p *PageView) PayloadBytes(i int) []byte {
	if !p.codec.Materialized {
		return nil
	}
	return p.data[i*p.size+HeaderBytes : (i+1)*p.size]
}

// record returns entry i's record. It aliases the page.
func (p *PageView) record(i int) Record {
	return Record(p.data[i*p.size : (i+1)*p.size])
}

// Entries decodes every entry of the page; payloads are freshly allocated.
func (p *PageView) Entries() ([]Entry, error) {
	out := make([]Entry, p.n)
	for i := range out {
		var err error
		if out[i], err = p.codec.DecodeInto(p.record(i), nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Writer appends entries, in (Key, ID) order, to a new file, and is the only code that decides where a page of one ends. Records are
// laid straight into a write-behind chunk of pages, flushed with one
// multi-page append; Close flushes the last, partial page.
type Writer struct {
	disk   PageAppender
	name   string
	l      Layout
	rec    Record // Write's encoding of its entry
	chunk  []byte
	n      int // records on the chunk's last page; 0: no page open
	fillAt int // records at which a page closes, no more than a page holds
	closed bool
}

// Create creates the file (which must not exist) and returns a writer of
// entries into it. Fill is the fraction of each page populated, the rest
// left as slack for later inserts: a page closes at max(1, ⌊entries per
// page · fill⌋) entries; values outside (0,1) mean full pages. chunkPages
// is the write-behind width, in pages (at least one).
func (l *Layout) Create(d PageAppender, name string, fill float64, chunkPages int) (*Writer, error) {
	if d.PageSize() != l.pageSize {
		return nil, fmt.Errorf("record: %q: a disk of %d-byte pages, a layout of %d", name, d.PageSize(), l.pageSize)
	}
	if fill <= 0 || fill > 1 {
		fill = 1
	}
	if err := d.Create(name); err != nil {
		return nil, err
	}
	return &Writer{disk: d, name: name, l: *l,
		fillAt: max(1, int(float64(l.perPage)*fill)),
		chunk:  make([]byte, 0, max(1, chunkPages)*l.pageSize)}, nil
}

// Write appends one entry, closes the page it completes at the writer's
// fill, and reports whether the entry opened a page.
func (w *Writer) Write(e Entry) (pageStart bool, err error) {
	rec, err := w.l.codec.Append(w.rec[:0], e)
	if err != nil {
		return false, err
	}
	w.rec = rec
	return w.WriteRecord(rec)
}

// WriteRecord appends one record verbatim, as Write appends the entry it
// encodes: it closes the page it completes and reports whether it opened
// one.
func (w *Writer) WriteRecord(rec Record) (pageStart bool, err error) {
	if w.closed {
		return false, fmt.Errorf("record: write to closed writer %q", w.name)
	}
	size, pageSize := w.l.size, w.l.pageSize
	if len(rec) != size {
		return false, fmt.Errorf("record: record of %d bytes, want %d", len(rec), size)
	}
	if pageStart = w.n == 0; pageStart {
		n := len(w.chunk)
		w.chunk = w.chunk[:n+pageSize]
		clear(w.chunk[n:])
	}
	copy(w.chunk[len(w.chunk)-pageSize+w.n*size:], rec)
	if w.n++; w.n == w.fillAt {
		w.n = 0
		if len(w.chunk) == cap(w.chunk) {
			err = w.flush()
		}
	}
	return pageStart, err
}

func (w *Writer) flush() error {
	if len(w.chunk) == 0 {
		return nil
	}
	if _, err := w.disk.AppendPages(w.name, w.chunk); err != nil {
		return err
	}
	w.chunk = w.chunk[:0]
	return nil
}

// Close flushes the pages written, the last one partial or not. The entry
// count is then the caller's to keep (files carry no header).
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed, w.n = true, 0
	return w.flush()
}

// Reader streams the entries of a file of a layout written at full pages,
// in file order, over a page cursor.
type Reader struct {
	l      Layout
	pages  PageCursor
	name   string
	npages int64
	next   int64 // next page to pin
	count  int64
	read   int64
	page   PageView // the page being read
	idx    int      // next entry on it
}

// NewReader returns a reader of the count entries of the named file, whose
// npages pages it takes from pages in ascending order. A file too short for
// count entries — fewer pages than full pages of the layout hold them in —
// is refused here.
func (l *Layout) NewReader(pages PageCursor, npages int64, name string, count int64) (*Reader, error) {
	per := int64(l.perPage)
	if need := (count + per - 1) / per; npages < need {
		return nil, fmt.Errorf("record: file %q has %d pages, need %d for %d entries", name, npages, need, count)
	}
	return &Reader{l: *l, pages: pages, name: name, npages: npages, count: count}, nil
}

// Next returns the next entry, or io.EOF after the last. Its payload is
// decoded into payload when that has the capacity for it, and into a fresh
// slice otherwise.
func (r *Reader) Next(payload series.Series) (Entry, error) {
	if err := r.advance(); err != nil {
		return Entry{}, err
	}
	e, err := r.l.codec.DecodeInto(r.page.record(r.idx), payload)
	if err != nil {
		return Entry{}, err
	}
	r.idx++
	r.read++
	return e, nil
}

// NextRecord returns the next entry's record, or io.EOF after the last. The
// record aliases the page the cursor pinned, and is valid until the next
// call.
func (r *Reader) NextRecord() (Record, error) {
	if err := r.advance(); err != nil {
		return nil, err
	}
	rec := r.page.record(r.idx)
	r.idx++
	r.read++
	return rec, nil
}

// advance makes the page being read one with an entry left to read, pinning
// the next page when this one is done, or returns io.EOF after the last.
func (r *Reader) advance() error {
	if r.read >= r.count {
		return io.EOF
	}
	if r.idx < r.page.n {
		return nil
	}
	data, err := r.pages.Pin(r.next)
	if err != nil {
		return err
	}
	if err := r.l.NextPage(&r.page, data, r.count-r.read); err != nil {
		r.page = PageView{}
		return fmt.Errorf("record: %s page %d: %w", r.name, r.next, err)
	}
	r.next, r.idx = r.next+1, 0
	return nil
}
