package storage

import "fmt"

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

// window is the read-ahead state a cursor carries for a medium that copies
// (see hostFile.scan); the heap medium lends its pages and leaves it alone.
type window struct {
	buf    []byte // scanWindowPages pages; kept across uses of the cursor
	start  int64  // first buffered page
	n      int    // buffered pages
	last   int64  // page consumed last
	streak int    // consecutive pages consumed, ending at last
}

// cursor is the Disk's cursor: PinPage's checks and accounting without a
// lookup of the file by name for every page — the cursor keeps the file it
// found and looks again only once that file has been removed or renamed,
// when whatever it had read ahead goes too: a name removed and created
// again is another file.
type cursor struct {
	d        *Disk
	name     string
	from, to int64
	f        *file
	win      window
}

// Scan implements PageReader.
func (d *Disk) Scan(name string, from, to int64) Cursor {
	c, _ := d.cursors.Get().(*cursor)
	if c == nil {
		c = new(cursor)
	}
	*c = cursor{d: d, name: name, from: from, to: to, win: window{buf: c.win.buf, last: -1}}
	return c
}

func (c *cursor) Pin(page int64) ([]byte, error) {
	if page < c.from || page >= c.to {
		return nil, errOutsideScan(c.name, page, c.from, c.to)
	}
	d := c.d
	d.mu.RLock()
	defer d.mu.RUnlock()
	f := c.f
	if d.closed || f == nil || f.gone || f.name != c.name {
		var err error
		if f, err = d.lookup(c.name); err != nil {
			return nil, err
		}
		c.f, c.win.n = f, 0
	}
	if page >= f.pages {
		return nil, errPageRange(f, page)
	}
	data, err := f.m.scan(&c.win, page, min(c.to, f.pages))
	if err != nil {
		return nil, readErr(c.name, page, err)
	}
	d.account(f, page, false)
	return data, nil
}

func (c *cursor) Close() {
	d := c.d
	*c = cursor{win: window{buf: c.win.buf}}
	d.cursors.Put(c)
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
