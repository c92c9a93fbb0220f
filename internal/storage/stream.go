package storage

import (
	"fmt"
	"io"
	"sync"
)

// DefaultBufferPages is the read-ahead / write-behind chunk size (in pages)
// used by record streams unless configured otherwise. Streaming through a
// chunk costs one head movement and then sequential transfers, which is how
// external sorting and log-structured writes earn their sequential I/O
// profile.
const DefaultBufferPages = 16

// RecordWriter appends fixed-size records to a file, packing as many whole
// records per page as fit (records never span pages, as in slotted pages).
// Completed pages accumulate in a write-behind chunk flushed with a single
// multi-page append. Close flushes the final partial page.
type RecordWriter struct {
	disk     Backend
	name     string
	recSize  int
	perPage  int
	bufPages int
	page     []byte // current page being assembled
	n        int    // records in current page
	chunk    []byte // completed pages awaiting append
	total    int64  // records written in total
	closed   bool
}

// NewRecordWriter creates the file (which must not exist) and returns a
// writer of recSize-byte records with the default write-behind buffer.
func NewRecordWriter(d Backend, name string, recSize int) (*RecordWriter, error) {
	return NewRecordWriterBuffered(d, name, recSize, DefaultBufferPages)
}

// NewRecordWriterBuffered is NewRecordWriter with an explicit write-behind
// buffer of bufPages pages (min 1).
func NewRecordWriterBuffered(d Backend, name string, recSize, bufPages int) (*RecordWriter, error) {
	perPage := d.PageSize() / recSize
	if perPage < 1 {
		return nil, fmt.Errorf("storage: record size %d exceeds page size %d", recSize, d.PageSize())
	}
	if bufPages < 1 {
		bufPages = 1
	}
	if err := d.Create(name); err != nil {
		return nil, err
	}
	return &RecordWriter{
		disk:     d,
		name:     name,
		recSize:  recSize,
		perPage:  perPage,
		bufPages: bufPages,
		page:     make([]byte, d.PageSize()),
		chunk:    make([]byte, 0, bufPages*d.PageSize()),
	}, nil
}

// Write appends one record, which must be exactly recSize bytes.
func (w *RecordWriter) Write(rec []byte) error {
	if w.closed {
		return fmt.Errorf("storage: write to closed writer %q", w.name)
	}
	if len(rec) != w.recSize {
		return fmt.Errorf("storage: record size %d, want %d", len(rec), w.recSize)
	}
	copy(w.page[w.n*w.recSize:], rec)
	w.n++
	w.total++
	if w.n == w.perPage {
		return w.EndPage()
	}
	return nil
}

// EndPage closes the page being assembled, whatever it holds: the rest of it
// is zeroes, and the next record starts a new page. It is how a writer leaves
// slack in its pages (a CTree's fill factor). A page that holds nothing is
// not written.
func (w *RecordWriter) EndPage() error {
	if w.n == 0 {
		return nil
	}
	clear(w.page[w.n*w.recSize:])
	w.chunk = append(w.chunk, w.page...)
	w.n = 0
	if len(w.chunk) >= w.bufPages*w.disk.PageSize() {
		return w.flushChunk()
	}
	return nil
}

func (w *RecordWriter) flushChunk() error {
	if len(w.chunk) == 0 {
		return nil
	}
	if _, err := w.disk.AppendPages(w.name, w.chunk); err != nil {
		return err
	}
	w.chunk = w.chunk[:0]
	return nil
}

// Count returns the number of records written so far.
func (w *RecordWriter) Count() int64 { return w.total }

// Close flushes buffered pages, including a final partial page. The record
// count must then be tracked by the caller (files carry no header).
func (w *RecordWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.EndPage(); err != nil {
		return err
	}
	return w.flushChunk()
}

// RecordReader scans fixed-size records from a file sequentially, its pages
// read ahead by a chunk cursor (ScanChunks). The caller supplies the total
// record count (files carry no header).
type RecordReader struct {
	pages    Cursor
	recSize  int
	perPage  int
	page     []byte // page holding the next record; nil before the first
	idx      int    // record within page
	nextPage int64  // next file page to pin
	read     int64  // records returned so far
	count    int64  // total records in file
}

// NewRecordReader opens a sequential reader over count records of recSize
// bytes in the named file, with the default read-ahead. Reads go through r,
// so a *Disk scans uncached while a buffer pool serves repeat scans from
// memory.
func NewRecordReader(r PageReader, name string, recSize int, count int64) (*RecordReader, error) {
	return NewRecordReaderBuffered(r, name, recSize, count, DefaultBufferPages)
}

// NewRecordReaderBuffered is NewRecordReader with an explicit read-ahead of
// bufPages pages (min 1).
func NewRecordReaderBuffered(r PageReader, name string, recSize int, count int64, bufPages int) (*RecordReader, error) {
	perPage := r.PageSize() / recSize
	if perPage < 1 {
		return nil, fmt.Errorf("storage: record size %d exceeds page size %d", recSize, r.PageSize())
	}
	npages, err := r.NumPages(name)
	if err != nil {
		return nil, err
	}
	need := (count + int64(perPage) - 1) / int64(perPage)
	if npages < need {
		return nil, fmt.Errorf("storage: file %q has %d pages, need %d for %d records", name, npages, need, count)
	}
	return &RecordReader{
		pages:   ScanChunks(r, name, 0, npages, bufPages),
		recSize: recSize,
		perPage: perPage,
		count:   count,
	}, nil
}

// Next returns the next record, or io.EOF when exhausted. The returned slice
// aliases an internal buffer valid until the next call.
func (r *RecordReader) Next() ([]byte, error) {
	if r.read >= r.count {
		return nil, io.EOF
	}
	if r.page == nil || r.idx >= r.perPage {
		page, err := r.pages.Pin(r.nextPage)
		if err != nil {
			return nil, err
		}
		r.page, r.idx = page, 0
		r.nextPage++
	}
	rec := r.page[r.idx*r.recSize : (r.idx+1)*r.recSize]
	r.idx++
	r.read++
	return rec, nil
}

// Remaining returns how many records are left to read.
func (r *RecordReader) Remaining() int64 { return r.count - r.read }

// RecordFile provides random access to fixed-size records in a file. It is
// safe for concurrent Get calls: the parallel query engine fetches raw
// series from worker goroutines, all sharing this one-page cache (one
// simulated buffer pool frame, as before — concurrency does not grow it).
type RecordFile struct {
	reader  PageReader
	name    string
	recSize int
	perPage int

	mu      sync.Mutex
	buf     []byte
	curPage int64 // page currently in buf, -1 if none
}

// OpenRecordFile opens the named file for random record access through r:
// a *Disk gives the uncached single-frame behaviour of the paper's raw
// file, a buffer pool serves repeat pages from the shared cache.
func OpenRecordFile(r PageReader, name string, recSize int) (*RecordFile, error) {
	perPage := r.PageSize() / recSize
	if perPage < 1 {
		return nil, fmt.Errorf("storage: record size %d exceeds page size %d", recSize, r.PageSize())
	}
	if !r.Exists(name) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &RecordFile{
		reader:  r,
		name:    name,
		recSize: recSize,
		perPage: perPage,
		buf:     make([]byte, r.PageSize()),
		curPage: -1,
	}, nil
}

// View invokes fn with the bytes of record number i while the one-page
// cache is locked. The slice aliases the cache and is valid only inside fn
// — the zero-copy hot path for callers that decode immediately. Page reads
// hit the disk (and its accounting) unless i falls on the cached page.
func (f *RecordFile) View(i int64, fn func(rec []byte) error) error {
	if i < 0 {
		return fmt.Errorf("%w: record %d", ErrOutOfRange, i)
	}
	page := i / int64(f.perPage)
	f.mu.Lock()
	defer f.mu.Unlock()
	if page != f.curPage {
		if _, err := f.reader.ReadPage(f.name, page, f.buf); err != nil {
			return err
		}
		f.curPage = page
	}
	off := int(i%int64(f.perPage)) * f.recSize
	return fn(f.buf[off : off+f.recSize])
}

// Get reads record number i. The returned slice is a copy and remains
// valid across subsequent calls; use View to avoid the copy.
func (f *RecordFile) Get(i int64) ([]byte, error) {
	out := make([]byte, f.recSize)
	err := f.View(i, func(rec []byte) error {
		copy(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RecordsPerPage reports how many records fit on one page.
func (f *RecordFile) RecordsPerPage() int { return f.perPage }
