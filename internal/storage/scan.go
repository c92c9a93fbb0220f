package storage

import (
	"fmt"
	"io"
	"sync"
)

// Cursor reads the pages of one declared range [from, to) of one file — the
// read side of every sequential page loop, opened with PageReader.Scan. Pin
// returns a page's bytes,
// valid until the next Pin or Close (the cursor releases the previous page
// itself); a page outside the declared range is ErrOutOfRange. Pages are
// usually asked for in ascending order, with or without gaps, but any
// order is served. The range must not be written while the cursor is open:
// a cursor may hold pages it read ahead. A Cursor is for one goroutine;
// concurrent scans open one each.
//
// Whatever the implementation reads ahead, a page is accounted when it is
// consumed — when Pin returns it — never when it is fetched, so the
// sequential/random sequence of a scan is exactly that of one PinPage per
// Pin, on every backend.
type Cursor interface {
	Pin(page int64) ([]byte, error)
	Close()
}

// errOutsideScan reports a Pin outside the range its cursor declared.
func errOutsideScan(name string, page, from, to int64) error {
	return fmt.Errorf("%w: %q page %d outside scan [%d,%d)", ErrOutOfRange, name, page, from, to)
}

// diskCursor is the simulated Disk's cursor: the zero-copy borrowed pages
// PinPage hands out, accounted the same, without a lookup of the file by
// name for every page — the cursor keeps the file it found and looks again
// only once that file has been removed or renamed.
type diskCursor struct {
	d        *Disk
	name     string
	from, to int64
	f        *file
}

var diskCursors = sync.Pool{New: func() any { return new(diskCursor) }}

// Scan implements PageReader.
func (d *Disk) Scan(name string, from, to int64) Cursor {
	c := diskCursors.Get().(*diskCursor)
	*c = diskCursor{d: d, name: name, from: from, to: to}
	return c
}

func (c *diskCursor) Pin(page int64) ([]byte, error) {
	if page < c.from || page >= c.to {
		return nil, errOutsideScan(c.name, page, c.from, c.to)
	}
	d := c.d
	d.mu.RLock()
	defer d.mu.RUnlock()
	f := c.f
	if f == nil || f.gone || f.name != c.name {
		var ok bool
		if f, ok = d.files[c.name]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, c.name)
		}
		c.f = f
	}
	if page >= int64(len(f.pages)) {
		return nil, fmt.Errorf("%w: %q page %d of %d", ErrOutOfRange, c.name, page, len(f.pages))
	}
	d.account(f, page, false)
	return f.pages[page], nil
}

func (c *diskCursor) Close() {
	*c = diskCursor{}
	diskCursors.Put(c)
}

// scanWindowPages caps a file cursor's read-ahead: 16 pages, the chunk the
// merge path's streams have always read.
const scanWindowPages = DefaultBufferPages

// fileCursor is FileDisk's cursor: pages are served from a buffer the
// cursor owns, filled one pread per chunk. A chunk is as many pages as the
// scan has just consumed consecutively (1, 2, 4, ... up to
// scanWindowPages), so the width doubles while the scan is sequential and
// falls back to one page after a gap: every chunk but the first of a
// streak follows chunks consumed in full, so a scan never preads twice the
// pages it consumes, however it skips.
type fileCursor struct {
	d        *FileDisk
	name     string
	from, to int64
	buf      []byte // scanWindowPages pages; kept across uses of the cursor
	fileID   uint32 // identity of the file the buffered pages were read from
	start    int64  // first buffered page
	n        int    // buffered pages
	last     int64  // page consumed last
	streak   int    // consecutive pages consumed, ending at last
}

var fileCursors = sync.Pool{New: func() any { return new(fileCursor) }}

// Scan implements PageReader.
func (d *FileDisk) Scan(name string, from, to int64) Cursor {
	c := fileCursors.Get().(*fileCursor)
	buf := c.buf
	if need := scanWindowPages * d.pageSize; cap(buf) < need {
		buf = make([]byte, need)
	}
	*c = fileCursor{d: d, name: name, from: from, to: to, buf: buf, last: -1}
	return c
}

// Pin checks and accounts the page exactly as ReadPage does — the file
// looked up by name under the read lock, so a file removed mid-scan is
// ErrNotFound at the next Pin — and refills the buffer only when the page
// is not in it. A failed or short pread fails this Pin and leaves nothing
// of its chunk to serve.
func (c *fileCursor) Pin(page int64) ([]byte, error) {
	if page < c.from || page >= c.to {
		return nil, errOutsideScan(c.name, page, c.from, c.to)
	}
	d := c.d
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[c.name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, c.name)
	}
	if page >= f.pages {
		return nil, fmt.Errorf("%w: %q page %d of %d", ErrOutOfRange, c.name, page, f.pages)
	}
	switch {
	case page == c.last+1:
		c.streak++
	case page != c.last:
		c.streak = 1
	}
	c.last = page
	d.account(f, page, false)
	ps := int64(d.pageSize)
	if f.id != c.fileID || page < c.start || page >= c.start+int64(c.n) {
		c.n = 0
		w := min(int64(c.streak), scanWindowPages, c.to-page, f.pages-page)
		got, err := f.f.ReadAt(c.buf[:w*ps], page*ps)
		if int64(got) < w*ps {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("storage: reading %q pages [%d,%d): %w", c.name, page, page+w, err)
		}
		c.fileID, c.start, c.n = f.id, page, int(w)
	}
	off := (page - c.start) * ps
	return c.buf[off : off+ps : off+ps], nil
}

func (c *fileCursor) Close() {
	*c = fileCursor{buf: c.buf}
	fileCursors.Put(c)
}

// chunkCursor is the merge path's cursor: fixed-width chunks fetched with
// ReadPages and accounted there, when read. That is the buffered-stream
// model the cost accounting gives sorts and merges (Stats): a k-way merge
// consumes its inputs' pages interleaved, and charging them as consumed
// would make every one a head movement, which a reader that owns a
// width-page buffer per input does not pay. The width is the caller's
// memory budget. Close releases nothing the collector would not, so the
// stream readers, which have no Close of their own, never call it.
type chunkCursor struct {
	r        PageReader
	name     string
	from, to int64
	buf      []byte
	start    int64
	n        int
}

// ScanChunks opens a cursor over pages [from, to) of the named file that
// reads width pages (at least one) per ReadPages call.
func ScanChunks(r PageReader, name string, from, to int64, width int) Cursor {
	return &chunkCursor{r: r, name: name, from: from, to: to, buf: make([]byte, max(width, 1)*r.PageSize())}
}

func (c *chunkCursor) Pin(page int64) ([]byte, error) {
	if page < c.from || page >= c.to {
		return nil, errOutsideScan(c.name, page, c.from, c.to)
	}
	ps := c.r.PageSize()
	if page < c.start || page >= c.start+int64(c.n) {
		c.n = 0
		want := min(int64(len(c.buf)/ps), c.to-page)
		got, err := c.r.ReadPages(c.name, page, int(want), c.buf)
		if err != nil {
			return nil, err
		}
		c.start, c.n = page, got
	}
	off := int(page-c.start) * ps
	return c.buf[off : off+ps : off+ps], nil
}

func (c *chunkCursor) Close() {}
