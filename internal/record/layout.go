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

// packedStreamPages is the chunk width of every packed stream, in pages.
const packedStreamPages = 16

// Layout is the page layout of an entry file: entries of one codec, on
// pages of one size, fixed-size or packed. It is a value, built once and
// valid for both files and pages.
type Layout struct {
	codec    Codec
	pageSize int
	packed   bool
	perPage  int // fixed-size entries a page holds
}

// NewLayout returns the layout of the codec's entries on pages of pageSize
// bytes, packed or fixed-size. It errors when an entry cannot fit a page:
// for a packed layout, one worst-case entry with the page header and the
// readers' slack.
func NewLayout(c Codec, pageSize int, packed bool) (Layout, error) {
	l := Layout{codec: c, pageSize: pageSize, packed: packed, perPage: pageSize / c.Size()}
	if packed && !packedFits(c, pageSize) {
		return Layout{}, fmt.Errorf("record: packed entry of series length %d cannot fit page size %d", c.SeriesLen, pageSize)
	}
	if l.perPage < 1 {
		return Layout{}, fmt.Errorf("record: entry size %d exceeds page size %d", c.Size(), pageSize)
	}
	return l, nil
}

// StreamPages returns the chunk width, in pages, of a stream over a file of
// this layout — a Writer's write-behind, a Reader's read-ahead — when its
// caller would give it pages: a fixed-size stream takes the caller's width
// (at least one page), a packed stream always moves 16 pages at a time.
func (l *Layout) StreamPages(pages int) int {
	if l.packed {
		return packedStreamPages
	}
	return max(1, pages)
}

// maxPerPage bounds the entries one page of the layout can hold: a packed
// entry may take no bits beside its payload.
func (l *Layout) maxPerPage() int {
	if !l.packed {
		return l.perPage
	}
	if pay := l.codec.Size() - HeaderBytes; pay > 0 {
		return min(maxPackedCount, (l.pageSize-PackedHeaderBytes-PackedSlack)/pay)
	}
	return maxPackedCount
}

// PageView is one page of an entry file opened for decoding, in either
// layout. It aliases the page bytes, so it is valid while they are.
type PageView struct {
	codec  Codec
	packed bool
	data   []byte
	view   PackedView
	n      int
}

// Page opens data into pg as a page whose entry count the caller knows —
// from a directory or a summary. A packed page's header must agree; a
// fixed-size page, which does not say, must have room for count. pg is
// written in place, so a loop that opens page after page copies no view;
// after an error it is no page to read.
func (l *Layout) Page(pg *PageView, data []byte, count int) error {
	err := l.open(pg, data, count)
	if err == nil && pg.n != count {
		err = fmt.Errorf("record: page holds %d entries, its directory says %d", pg.n, count)
	}
	return err
}

// NextPage opens data into pg, as Page does, as the next page of a file
// written at full pages, of which left entries remain: a fixed-size page
// holds as many of them as fit, a packed page what its header says, which
// must be one or more and no more than left.
func (l *Layout) NextPage(pg *PageView, data []byte, left int64) error {
	err := l.open(pg, data, int(min(left, int64(l.perPage))))
	if err == nil && int64(pg.n) > left {
		err = fmt.Errorf("record: page holds %d entries, the file has %d left", pg.n, left)
	}
	return err
}

// open opens data into pg as a page of the layout: a packed page holds what
// its header says, a fixed-size one count entries. A fixed-size page leaves
// pg's packed view, which it never reads, as it was: clearing it would make
// the query loop's opening of such a page four times as costly.
func (l *Layout) open(pg *PageView, data []byte, count int) error {
	pg.codec, pg.packed, pg.data, pg.n = l.codec, l.packed, data, count
	if len(data) < l.pageSize {
		return fmt.Errorf("record: page of %d bytes, the layout's are %d", len(data), l.pageSize)
	}
	if l.packed {
		v, err := l.codec.ViewPacked(data)
		if err != nil {
			return err
		}
		pg.view, pg.n = v, v.Count()
	} else if count > l.perPage {
		return fmt.Errorf("record: page claims %d entries, a page holds %d", count, l.perPage)
	}
	if pg.n < 1 {
		return fmt.Errorf("record: page holds no entries")
	}
	return nil
}

// Count returns the number of entries on the page.
func (p *PageView) Count() int { return p.n }

// Key returns entry i's sortable key.
func (p *PageView) Key(i int) sortable.Key {
	if p.packed {
		return p.view.Key(i)
	}
	return sortable.DecodeKey(p.data[i*p.codec.Size():])
}

// ID returns entry i's series ID.
func (p *PageView) ID(i int) int64 {
	if p.packed {
		return p.view.ID(i)
	}
	return decodeID(p.data[i*p.codec.Size():])
}

// TS returns entry i's timestamp.
func (p *PageView) TS(i int) int64 {
	if p.packed {
		return p.view.TS(i)
	}
	return decodeTS(p.data[i*p.codec.Size():])
}

// PayloadBytes returns entry i's payload as the page stores it, verbatim,
// or nil when the codec is not materialized. The slice aliases the page.
func (p *PageView) PayloadBytes(i int) []byte {
	switch {
	case !p.codec.Materialized:
		return nil
	case p.packed:
		return p.view.PayloadBytes(i)
	}
	size := p.codec.Size()
	return p.data[i*size+HeaderBytes : (i+1)*size]
}

// Entries decodes every entry of the page; payloads are freshly allocated.
func (p *PageView) Entries() ([]Entry, error) {
	out := make([]Entry, p.n)
	for i := range out {
		var err error
		if out[i], err = p.entryInto(i, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// entryInto decodes entry i, its payload into payload when that has the
// capacity for it (see Codec.DecodeInto).
func (p *PageView) entryInto(i int, payload series.Series) (Entry, error) {
	if p.packed {
		return p.view.EntryInto(i, p.codec, payload)
	}
	size := p.codec.Size()
	return p.codec.DecodeInto(p.data[i*size:(i+1)*size], payload)
}

// Writer appends entries, in (Key, ID) order, to a new fixed-size file,
// and is the only code that decides where a page of one ends. Records are
// laid straight into a write-behind chunk of pages, flushed with one
// multi-page append; Close flushes the last, partial page.
type Writer struct {
	disk     PageAppender
	name     string
	codec    Codec
	pageSize int
	rec      Record // Write's encoding of its entry
	chunk    []byte
	n        int // records on the chunk's last page; 0: no page open
	fillAt   int // records at which a page closes, no more than a page holds
	closed   bool
}

// Create creates the file (which must not exist) and returns a writer of
// entries into it. Only a fixed-size layout is written: a packed file is a
// format older builds wrote, which the readers still open. Fill is the
// fraction of each page populated, the rest left as slack for later
// inserts: a page closes at max(1, ⌊entries per page · fill⌋) entries;
// values outside (0,1) mean full pages. chunkPages is the write-behind
// width the caller gives the stream (see StreamPages).
func (l *Layout) Create(d PageAppender, name string, fill float64, chunkPages int) (*Writer, error) {
	if l.packed {
		return nil, fmt.Errorf("record: %q: packed files are read, not written", name)
	}
	if d.PageSize() != l.pageSize {
		return nil, fmt.Errorf("record: %q: a disk of %d-byte pages, a layout of %d", name, d.PageSize(), l.pageSize)
	}
	if fill <= 0 || fill > 1 {
		fill = 1
	}
	if err := d.Create(name); err != nil {
		return nil, err
	}
	return &Writer{disk: d, name: name, codec: l.codec, pageSize: l.pageSize,
		fillAt: max(1, int(float64(l.perPage)*fill)),
		chunk:  make([]byte, 0, l.StreamPages(chunkPages)*l.pageSize)}, nil
}

// Write appends one entry, closes the page it completes at the writer's
// fill, and reports whether the entry opened a page.
func (w *Writer) Write(e Entry) (pageStart bool, err error) {
	rec, err := w.codec.Append(w.rec[:0], e)
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
	size := w.codec.Size()
	if len(rec) != size {
		return false, fmt.Errorf("record: record of %d bytes, want %d", len(rec), size)
	}
	if pageStart = w.n == 0; pageStart {
		n := len(w.chunk)
		w.chunk = w.chunk[:n+w.pageSize]
		clear(w.chunk[n:])
	}
	copy(w.chunk[len(w.chunk)-w.pageSize+w.n*size:], rec)
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
	l       Layout
	pages   PageCursor
	name    string
	npages  int64
	next    int64 // next page to pin
	count   int64
	read    int64
	page    PageView      // the page being read
	idx     int           // next entry on it
	rec     Record        // a packed file's current record, re-encoded
	payload series.Series // a packed file's current payload, decoded
}

// NewReader returns a reader of the count entries of the named file, whose
// npages pages it takes from pages in ascending order. A file too short for
// count entries — fewer pages than any page of the layout could hold them
// in — is refused here; one whose pages hold fewer entries than their
// number allows is refused when the reader runs out of them.
func (l *Layout) NewReader(pages PageCursor, npages int64, name string, count int64) (*Reader, error) {
	per := int64(l.maxPerPage())
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
	e, err := r.page.entryInto(r.idx, payload)
	if err != nil {
		return Entry{}, err
	}
	r.idx++
	r.read++
	return e, nil
}

// NextRecord returns the next entry's record, or io.EOF after the last. A
// fixed-size file's record aliases the page the cursor pinned; a packed
// file's entry is decoded and re-encoded into buffers of the reader's.
// Either way the record is valid until the next call.
func (r *Reader) NextRecord() (Record, error) {
	if err := r.advance(); err != nil {
		return nil, err
	}
	var rec Record
	if r.page.packed {
		e, err := r.page.view.EntryInto(r.idx, r.l.codec, r.payload)
		if err != nil {
			return nil, err
		}
		r.payload = e.Payload
		if r.rec, err = r.l.codec.Append(r.rec[:0], e); err != nil {
			return nil, err
		}
		rec = r.rec
	} else {
		size := r.l.codec.Size()
		rec = r.page.data[r.idx*size : (r.idx+1)*size]
	}
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
	if r.next >= r.npages {
		return fmt.Errorf("record: file %q exhausted after %d of %d entries", r.name, r.read, r.count)
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
