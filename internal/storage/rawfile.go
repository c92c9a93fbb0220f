package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/series"
)

// RawFile stores the original data series on a Disk, addressed by series ID.
// Non-materialized indexes keep only (key, ID) pairs and fetch originals
// from a RawFile during search — each fetch costing (typically random) page
// I/O, which is exactly the space/time trade-off the paper describes.
//
// Records are packed whole into pages, as a RecordWriter lays them out, and
// the file grows by Append, which writes the series' page through to the
// disk: the series is readable when Append returns, and durable once the
// disk syncs. Appends serialize among themselves; fetches run concurrently
// with them and with each other.
//
// A fetch reads one page frame through the file's reader (the disk unless
// UseReader says otherwise), so consecutive fetches from one page cost one
// page read: the paper's raw file, accounted on the build's disk. A raw file
// on a heap disk of its own, whose accounting no one reads, fetches with
// UseReader(nil) instead: it borrows the disk's page slices, with no copy and
// no frame lock.
type RawFile struct {
	disk    Backend
	name    string
	n       int // series length
	perPage int

	reader    PageReader // one-frame fetches read through it; nil: fetches pin the disk's pages
	frameMu   sync.Mutex
	frame     []byte
	framePage int64 // the page in frame, -1 if none

	mu    sync.Mutex // serializes Append
	page  []byte     // the page the next Append writes, zero past its fill records
	fill  int
	count atomic.Int64
}

// bind points a zero RawFile at the file d holds under name, for series of
// length n, fetching through d.
func (r *RawFile) bind(d Backend, name string, n int) error {
	perPage := d.PageSize() / series.Size(max(n, 1))
	if n < 1 || perPage < 1 {
		return fmt.Errorf("storage: series of length %d do not fit a page of %d bytes", n, d.PageSize())
	}
	r.disk, r.name, r.n, r.perPage, r.page = d, name, n, perPage, make([]byte, d.PageSize())
	r.reader, r.frame, r.framePage = d, make([]byte, d.PageSize()), -1
	return nil
}

// CreateRawFile creates the raw series file name on d, which must not exist,
// for series of length n, holding the count series get yields as IDs 0 to
// count-1 (get may be nil when count is 0). They are written as a
// RecordWriter writes, a chunk of whole pages at a time.
func CreateRawFile(d Backend, name string, n, count int, get func(id int) (series.Series, error)) (*RawFile, error) {
	r, size := new(RawFile), series.Size(n)
	if err := r.bind(d, name, n); err != nil {
		return nil, err
	}
	w, err := NewRecordWriter(d, name, size)
	if err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		s, err := get(i)
		if err != nil {
			return nil, err
		}
		if r.fill == r.perPage {
			clear(r.page)
			r.fill = 0
		}
		if err := w.Write(s.AppendBinary(r.page[r.fill*size : r.fill*size])); err != nil {
			return nil, err
		}
		r.fill++
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	r.count.Store(int64(count))
	return r, nil
}

// Open reopens the raw series file d holds under name, for series of length
// n, into r — a zero RawFile, or one nothing is using while Open runs — as
// holding its first count series, which its pages must hold: the next Append
// takes ID count, and overwrites whatever lies past them. An index may be
// handed the zero RawFile before Open — when only the index can say how many
// series the file holds — provided it fetches nothing until Open returns.
func (r *RawFile) Open(d Backend, name string, n int, count int64) error {
	if err := r.bind(d, name, n); err != nil {
		return err
	}
	pages, err := d.NumPages(name)
	if err != nil {
		return err
	}
	if need := (count + int64(r.perPage) - 1) / int64(r.perPage); pages < need {
		return fmt.Errorf("storage: raw file %q has %d pages, %d series need %d", name, pages, count, need)
	}
	if r.fill = int(count % int64(r.perPage)); r.fill > 0 {
		if _, err := d.ReadPage(name, count/int64(r.perPage), r.page); err != nil {
			return err
		}
		clear(r.page[r.fill*series.Size(n):])
	}
	r.count.Store(count)
	return nil
}

// UseReader makes every fetch read one page frame through pr: the disk
// itself, or a buffer pool over it. nil makes fetches pin the disk's pages
// instead — one accounted read each, and on the heap medium a borrowed slice
// with no copy — which suits only a disk no one reads the accounting of.
// Call it before fetches run concurrently.
func (r *RawFile) UseReader(pr PageReader) {
	r.frameMu.Lock()
	r.reader, r.framePage = pr, -1
	r.frameMu.Unlock()
}

// Append adds a series, returning its ID, and writes its page through to the
// disk.
func (r *RawFile) Append(s series.Series) (int, error) {
	if len(s) != r.n {
		return 0, fmt.Errorf("storage: series length %d, want %d", len(s), r.n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fill == r.perPage {
		clear(r.page)
		r.fill = 0
	}
	size := series.Size(r.n)
	rec := s.AppendBinary(r.page[r.fill*size : r.fill*size])
	id := r.count.Load()
	page := id / int64(r.perPage)
	if err := r.disk.WritePage(r.name, page, r.page); err != nil {
		clear(rec)
		return 0, err
	}
	r.fill++
	r.frameMu.Lock()
	if r.framePage == page {
		r.framePage = -1
	}
	r.frameMu.Unlock()
	r.count.Store(id + 1)
	return int(id), nil
}

// Get fetches the series with the given ID into a new slice.
func (r *RawFile) Get(id int) (series.Series, error) {
	return r.GetInto(id, make(series.Series, r.n))
}

// GetInto fetches the series with the given ID into dst, which must have the
// file's series length; a fetch allocates nothing.
func (r *RawFile) GetInto(id int, dst series.Series) (series.Series, error) {
	if len(dst) != r.n {
		return nil, fmt.Errorf("storage: GetInto buffer length %d, want %d", len(dst), r.n)
	}
	if err := r.view(id, func(rec []byte) { series.DecodeBinaryInto(rec, dst) }); err != nil {
		return nil, err
	}
	return dst, nil
}

// SqDistEarlyAbandon returns the early-abandoning squared distance from q to
// the series with the given ID, accumulated on its stored bytes
// (series.SqDistEncodedEarlyAbandon, as a materialized page verifies its
// entries): the hot verification path of non-materialized exact search,
// which so decodes nothing and allocates nothing.
func (r *RawFile) SqDistEarlyAbandon(id int, q series.Series, limitSq float64) (float64, error) {
	if len(q) != r.n {
		return 0, fmt.Errorf("storage: query length %d, want %d", len(q), r.n)
	}
	var d float64
	err := r.view(id, func(rec []byte) { d = q.SqDistEncodedEarlyAbandon(rec, limitSq) })
	return d, err
}

// view hands fn the stored bytes of the series with the given ID, valid only
// inside fn: from the frame, or from the pinned page.
func (r *RawFile) view(id int, fn func(rec []byte)) error {
	if count := r.count.Load(); id < 0 || int64(id) >= count {
		return fmt.Errorf("%w: series %d of %d", ErrOutOfRange, id, count)
	}
	page, off, size := int64(id/r.perPage), id%r.perPage*series.Size(r.n), series.Size(r.n)
	if r.reader == nil {
		h, err := r.disk.PinPage(r.name, page)
		if err != nil {
			return err
		}
		fn(h.Data()[off : off+size])
		h.Release()
		return nil
	}
	r.frameMu.Lock()
	defer r.frameMu.Unlock()
	if page != r.framePage {
		if _, err := r.reader.ReadPage(r.name, page, r.frame); err != nil {
			return err
		}
		r.framePage = page
	}
	fn(r.frame[off : off+size])
	return nil
}

// Count returns the number of series stored.
func (r *RawFile) Count() int { return int(r.count.Load()) }

// Disk returns the disk the file lives on.
func (r *RawFile) Disk() Backend { return r.disk }

var _ series.RawStore = (*RawFile)(nil)
