package storage

import "fmt"

// DefaultBufferPages is the read-ahead / write-behind chunk size (in pages)
// used by record streams unless configured otherwise. Streaming through a
// chunk costs one head movement and then sequential transfers, which is how
// external sorting and log-structured writes earn their sequential I/O
// profile.
const DefaultBufferPages = 16

// RecordWriter appends fixed-size records to a file, packing as many whole
// records per page as fit (records never span pages, as in slotted pages)
// and zeroing the rest. Pages accumulate in a write-behind chunk flushed
// with a single multi-page append; Close flushes the final partial page.
// Entry files, whose pages may be left with slack, are written through a
// record.Layout instead.
type RecordWriter struct {
	disk    Backend
	name    string
	recSize int
	perPage int
	chunk   []byte // completed pages, then the page being assembled
	n       int    // records in the page being assembled
	closed  bool
}

// NewRecordWriter creates the file (which must not exist) and returns a
// writer of recSize-byte records with the default write-behind buffer.
func NewRecordWriter(d Backend, name string, recSize int) (*RecordWriter, error) {
	perPage := d.PageSize() / recSize
	if perPage < 1 {
		return nil, fmt.Errorf("storage: record size %d exceeds page size %d", recSize, d.PageSize())
	}
	if err := d.Create(name); err != nil {
		return nil, err
	}
	return &RecordWriter{disk: d, name: name, recSize: recSize, perPage: perPage,
		chunk: make([]byte, 0, DefaultBufferPages*d.PageSize())}, nil
}

// Write appends one record, which must be exactly recSize bytes.
func (w *RecordWriter) Write(rec []byte) error {
	if w.closed {
		return fmt.Errorf("storage: write to closed writer %q", w.name)
	}
	if len(rec) != w.recSize {
		return fmt.Errorf("storage: record size %d, want %d", len(rec), w.recSize)
	}
	pageSize := w.disk.PageSize()
	if w.n == 0 {
		w.chunk = w.chunk[:len(w.chunk)+pageSize]
		clear(w.chunk[len(w.chunk)-pageSize:])
	}
	copy(w.chunk[len(w.chunk)-pageSize+w.n*w.recSize:], rec)
	if w.n++; w.n == w.perPage {
		w.n = 0
		if len(w.chunk) == cap(w.chunk) {
			return w.flush()
		}
	}
	return nil
}

func (w *RecordWriter) flush() error {
	if len(w.chunk) == 0 {
		return nil
	}
	if _, err := w.disk.AppendPages(w.name, w.chunk); err != nil {
		return err
	}
	w.chunk = w.chunk[:0]
	return nil
}

// Close flushes buffered pages, including a final partial page. The record
// count must then be tracked by the caller (files carry no header).
func (w *RecordWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.flush()
}
