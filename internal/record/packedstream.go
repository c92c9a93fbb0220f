package record

import (
	"fmt"
	"io"

	"repro/internal/series"
)

// The packed stream types mirror storage.RecordWriter / RecordReader for the
// packed page encoding: sequential entry appends assembled into packed pages
// with a write-behind chunk, and sequential entry scans over a page cursor.
// They depend only on the narrow page-device interfaces below, which
// storage.Backend and storage.Cursor satisfy structurally, so the codec
// layer stays free of a storage dependency.

// PageAppender is the write surface a packed writer needs.
type PageAppender interface {
	PageSize() int
	Create(name string) error
	AppendPages(name string, data []byte) (int64, error)
}

// PageCursor is the read surface a packed reader needs: one page at a
// time, read ahead however the cursor sees fit. storage.Cursor satisfies
// it.
type PageCursor interface {
	Pin(page int64) ([]byte, error)
}

// packedBufferPages is the write-behind chunk size, matching
// storage.DefaultBufferPages so packed and fixed-size streams have the same
// sequential I/O profile.
const packedBufferPages = 16

// PackedWriter appends entries (in (Key, ID) order) to a file of packed
// pages. Completed pages accumulate in a write-behind chunk flushed with one
// multi-page append; Close flushes the final partial page.
type PackedWriter struct {
	disk    PageAppender
	name    string
	builder *PageBuilder
	chunk   []byte
	total   int64
	closed  bool
}

// NewPackedWriter creates the file (which must not exist) and returns a
// packed-page writer for entries of the codec's shape.
func NewPackedWriter(d PageAppender, name string, c Codec) (*PackedWriter, error) {
	b, err := NewPageBuilder(c, d.PageSize())
	if err != nil {
		return nil, err
	}
	if err := d.Create(name); err != nil {
		return nil, err
	}
	return &PackedWriter{
		disk:    d,
		name:    name,
		builder: b,
		chunk:   make([]byte, 0, packedBufferPages*d.PageSize()),
	}, nil
}

// WriteEntry appends one entry. Entries must arrive in (Key, ID) order.
func (w *PackedWriter) WriteEntry(e Entry) error {
	if w.closed {
		return fmt.Errorf("record: write to closed packed writer %q", w.name)
	}
	ok, err := w.builder.TryAdd(e)
	if err != nil {
		return err
	}
	if ok {
		w.total++
		return nil
	}
	if err := w.EndPage(); err != nil {
		return err
	}
	ok, err = w.builder.TryAdd(e)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("record: entry rejected by empty packed page (unsorted input?)")
	}
	w.total++
	return nil
}

// EndPage encodes the staged entries as one page into the chunk, so the next
// entry starts a new page. WriteEntry does it when an entry no longer fits; a
// caller does it sooner to leave slack in its pages (a CTree's fill factor).
func (w *PackedWriter) EndPage() error {
	if w.builder.Count() == 0 {
		return nil
	}
	pageSize := w.disk.PageSize()
	w.chunk = append(w.chunk, make([]byte, pageSize)...)
	if _, err := w.builder.Encode(w.chunk[len(w.chunk)-pageSize:]); err != nil {
		return err
	}
	if len(w.chunk) >= packedBufferPages*pageSize {
		return w.flushChunk()
	}
	return nil
}

func (w *PackedWriter) flushChunk() error {
	if len(w.chunk) == 0 {
		return nil
	}
	if _, err := w.disk.AppendPages(w.name, w.chunk); err != nil {
		return err
	}
	w.chunk = w.chunk[:0]
	return nil
}

// Count returns the number of entries written so far.
func (w *PackedWriter) Count() int64 { return w.total }

// InPage returns the number of entries staged for the page being filled: 1
// right after WriteEntry means that entry opened the page.
func (w *PackedWriter) InPage() int { return w.builder.Count() }

// PageBytes returns the encoded size of the page being filled.
func (w *PackedWriter) PageBytes() int { return w.builder.EncodedBytes() }

// Close encodes the final partial page and flushes buffered pages.
func (w *PackedWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.EndPage(); err != nil {
		return err
	}
	return w.flushChunk()
}

// PackedReader scans entries from a packed-page file sequentially. Unlike
// fixed-size files, packed files are self-describing (the per-page counts
// add up to the total), but callers still pass the expected count as a
// cross-check against truncated or mismatched files.
type PackedReader struct {
	pages    PageCursor
	name     string
	codec    Codec
	view     PackedView
	viewOK   bool
	payload  series.Series // the current entry's, reused for the next
	idx      int
	nextPage int64
	npages   int64
	read     int64
	count    int64
}

// NewPackedReader returns a sequential entry reader over the npages packed
// pages of the named file, which it takes from pages in ascending order,
// expecting count entries in total.
func NewPackedReader(pages PageCursor, npages int64, name string, c Codec, count int64) *PackedReader {
	return &PackedReader{pages: pages, name: name, codec: c, npages: npages, count: count}
}

// NextEntry returns the next entry, or io.EOF when exhausted. Its payload
// is valid until the next call, which decodes into the same buffer: the
// reader serves merges, which write each entry before they ask for another.
func (r *PackedReader) NextEntry() (Entry, error) {
	if r.read >= r.count {
		return Entry{}, io.EOF
	}
	for !r.viewOK || r.idx >= r.view.Count() {
		if err := r.nextView(); err != nil {
			return Entry{}, err
		}
	}
	e, err := r.view.EntryInto(r.idx, r.codec, r.payload)
	if err != nil {
		return Entry{}, err
	}
	r.payload = e.Payload
	r.idx++
	r.read++
	return e, nil
}

// nextView advances to the next page.
func (r *PackedReader) nextView() error {
	if r.nextPage >= r.npages {
		return fmt.Errorf("record: packed file %q exhausted after %d of %d entries", r.name, r.read, r.count)
	}
	page, err := r.pages.Pin(r.nextPage)
	if err != nil {
		return err
	}
	r.nextPage++
	v, err := r.codec.ViewPacked(page)
	if err != nil {
		return err
	}
	r.view = v
	r.viewOK = true
	r.idx = 0
	return nil
}

// Remaining returns how many entries are left to read.
func (r *PackedReader) Remaining() int64 { return r.count - r.read }
