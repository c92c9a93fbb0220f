// Package storage provides the page-based storage layer beneath every index
// in the repository. It substitutes for the raw disks of the paper's C/C++
// algorithms server: all reads and writes go through fixed-size pages, and
// the layer accounts sequential vs. random accesses separately so that the
// I/O-pattern claims of the paper (compact & contiguous layouts are
// sequential; top-down-built trees are random) become measurable and
// reproducible. An optional access tracer feeds the heat-map visualization.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// DefaultPageSize is the page size used unless configured otherwise.
const DefaultPageSize = 4096

// Errors returned by the storage layer.
var (
	ErrNotFound   = errors.New("storage: file not found")
	ErrExists     = errors.New("storage: file already exists")
	ErrOutOfRange = errors.New("storage: page out of range")
	// ErrClosed is what every call that can fail returns once the disk has
	// been closed.
	ErrClosed = errors.New("storage: disk is closed")
)

// Stats accumulates I/O accounting. The disk models a single head: an
// access to page p of file f is sequential when the immediately preceding
// access touched the same file at page p-1 (or p itself, a buffered
// repeat); anything else — including switching files — counts as random.
// Multi-page operations (ReadPages, AppendPages) therefore cost at most one
// random access followed by sequential ones, which is how buffered
// streaming I/O earns its sequential profile.
//
// CacheHits and CacheMisses account the buffer-pool layer when a cached
// PageReader fronts the disk: a hit is served from memory and never reaches
// the disk (so it adds nothing to the read counters and nothing to Cost),
// while a miss also shows up as the underlying disk read it triggered —
// Cost therefore charges exactly the misses, which is the point of the
// cache. Both stay zero on an uncached disk.
type Stats struct {
	SeqReads   int64
	RandReads  int64
	SeqWrites  int64
	RandWrites int64
	// Buffer-pool accounting (zero unless reads go through a page cache).
	CacheHits   int64
	CacheMisses int64
}

// Reads returns total page reads.
func (s Stats) Reads() int64 { return s.SeqReads + s.RandReads }

// Writes returns total page writes.
func (s Stats) Writes() int64 { return s.SeqWrites + s.RandWrites }

// Total returns total page accesses.
func (s Stats) Total() int64 { return s.Reads() + s.Writes() }

// Sub returns s - o, useful for measuring a window of activity.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		SeqReads:    s.SeqReads - o.SeqReads,
		RandReads:   s.RandReads - o.RandReads,
		SeqWrites:   s.SeqWrites - o.SeqWrites,
		RandWrites:  s.RandWrites - o.RandWrites,
		CacheHits:   s.CacheHits - o.CacheHits,
		CacheMisses: s.CacheMisses - o.CacheMisses,
	}
}

// Add returns s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		SeqReads:    s.SeqReads + o.SeqReads,
		RandReads:   s.RandReads + o.RandReads,
		SeqWrites:   s.SeqWrites + o.SeqWrites,
		RandWrites:  s.RandWrites + o.RandWrites,
		CacheHits:   s.CacheHits + o.CacheHits,
		CacheMisses: s.CacheMisses + o.CacheMisses,
	}
}

// HitRatio returns the cache hit fraction, or 0 when no cached reads were
// observed.
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

func (s Stats) String() string {
	out := fmt.Sprintf("seqR=%d randR=%d seqW=%d randW=%d", s.SeqReads, s.RandReads, s.SeqWrites, s.RandWrites)
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		out += fmt.Sprintf(" cacheHit=%d cacheMiss=%d", s.CacheHits, s.CacheMisses)
	}
	return out
}

// CostModel prices page accesses. The defaults approximate a spinning disk
// where a random access costs 10x a sequential one; the ratio, not the
// absolute unit, drives every comparison in the experiments.
type CostModel struct {
	SeqCost  float64 // cost units per sequential page access
	RandCost float64 // cost units per random page access
}

// DefaultCostModel is the disk-like model used by the benchmarks.
var DefaultCostModel = CostModel{SeqCost: 1, RandCost: 10}

// Cost returns the total cost of the accounted accesses under m. Cache
// hits are free: only the seq/rand counters — which a buffer-pool hit never
// touches, and a miss increments exactly once via its backing disk read —
// contribute to the cost.
func (s Stats) Cost(m CostModel) float64 {
	return float64(s.SeqReads+s.SeqWrites)*m.SeqCost + float64(s.RandReads+s.RandWrites)*m.RandCost
}

// StatsProvider exposes I/O statistics. *Disk implements it (cache fields
// zero); cached readers such as *bufpool.Pool implement it with the
// hit/miss counters filled in, so cost accounting can be threaded through
// layers that no longer know whether their reads are cached.
type StatsProvider interface {
	Stats() Stats
}

// Tracer observes every page access; the heat-map package implements it.
// The parallel query engine issues reads from worker goroutines, so tracers
// must be safe for concurrent Access calls.
type Tracer interface {
	Access(file string, page int64, write bool)
}

// PageReader is the read side of the storage layer: everything a search
// path needs to fetch pages. Both *Disk (uncached — every read reaches the
// simulated head) and *bufpool.Pool (a pinned page cache in front of a
// disk) satisfy it, so indexes read through a PageReader and stay agnostic
// of whether a buffer pool is present. Writes always go to the *Disk;
// write-path coherence is the invalidation hooks' business (Invalidator).
type PageReader interface {
	PageSize() int
	Exists(name string) bool
	NumPages(name string) (int64, error)
	ReadPage(name string, page int64, buf []byte) (int, error)
	ReadPages(name string, page int64, n int, buf []byte) (int, error)
	// PinPage returns a borrowed, read-only view of one page without
	// copying. The caller must Release the handle when done with the bytes;
	// the view is a stable snapshot of the page at pin time.
	PinPage(name string, page int64) (PageHandle, error)
	// Scan opens a cursor over pages [from, to) of the named file: what a
	// sequential page loop reads through, where a point probe calls
	// PinPage. Each reader has its own (see Cursor): a disk on the heap
	// medium lends its pages, one on the host medium reads ahead, a buffer
	// pool keeps a scan it cannot hold out of its frames.
	Scan(name string, from, to int64) Cursor
}

// Unpinner releases one pinned page back to its cache. Cached readers hand
// out frames implementing it; uncached reads need no release (nil).
type Unpinner interface {
	Unpin()
}

// PageHandle is a borrowed, read-only view of one page — the zero-copy
// currency of the PageReader interface. Data remains valid (a stable
// snapshot) until Release; after Release it must not be touched, because a
// cache may recycle the underlying frame. Handles are plain values: pinning
// and releasing allocate nothing.
type PageHandle struct {
	data []byte
	pin  Unpinner
}

// NewPageHandle wraps page bytes (and an optional unpin hook) in a handle;
// cache implementations use it to hand out pinned frames.
func NewPageHandle(data []byte, pin Unpinner) PageHandle {
	return PageHandle{data: data, pin: pin}
}

// Data returns the page bytes. Valid only until Release.
func (h PageHandle) Data() []byte { return h.data }

// Release returns the page to its cache (a no-op for uncached reads).
func (h PageHandle) Release() {
	if h.pin != nil {
		h.pin.Unpin()
	}
}

// Invalidator receives write-path invalidation events from a Disk, keeping
// any page cache in front of it coherent: page writes invalidate one page,
// Remove and Rename invalidate a whole file. Events fire after the disk
// mutation completes and outside the disk lock (so an invalidator may take
// its own locks and read back through the disk); as everywhere else in the
// storage layer, writes therefore require external serialization against
// concurrent reads of the same pages.
type Invalidator interface {
	InvalidatePage(name string, page int64)
	InvalidateFile(name string)
}

// Disk is the page store: named files of PageSize-byte pages that grow by
// appending, kept on the medium its constructor chose (see medium). It is
// safe for concurrent use: reads proceed concurrently under a shared lock,
// while mutations (create/remove/rename/write) are exclusive.
//
// Access accounting is atomic, not lock-protected: the head position is a
// single packed atomic word and the counters are atomic integers, so
// concurrent readers never race on the accounting even though they share
// the read lock. Under concurrency the single simulated head is shared by
// all workers, so interleaved streams classify more accesses as random —
// the same penalty a real spinning disk would charge for interleaved I/O.
// An access is accounted, and traced, once it has happened: one the medium
// fails leaves the counters alone.
type Disk struct {
	pageSize int
	media    medium

	mu         sync.RWMutex
	files      map[string]*file
	nextFileID uint32
	tracer     Tracer
	invs       []Invalidator
	closed     bool

	// cursors pools the disk's scan cursors. One pool per disk, so a cursor
	// drawn from it carries the read-ahead buffer its medium needs, or none.
	cursors sync.Pool
	acct    ioAccounting
}

type file struct {
	id    uint32 // immutable identity for head tracking; never reused
	name  string
	pages int64
	dirty bool // written since its last sync
	gone  bool // removed from the namespace; a cursor holding f looks the name up again
	m     pageFile
}

// medium is where a Disk keeps the pages of its files, the one thing about
// it that has two implementations (see Backend): how a file comes to exist,
// how bytes are moved, what it takes to make them durable. The Disk calls a
// medium under its lock, with arguments it has already checked.
type medium interface {
	kind() string
	// create makes the empty page file of a new name; the file survives a
	// crash once create returns.
	create(name string) (pageFile, error)
	// remove deletes a name's page file and releases pf. When gone is
	// false the file is as it was, still usable through pf.
	remove(name string, pf pageFile) (gone bool, err error)
	// rename moves a page file, already synced, to a new name.
	rename(oldName, newName string) error
	// syncDir makes every create, remove and rename so far durable.
	syncDir() error
}

// pageFile is the pages of one file on a medium.
type pageFile interface {
	// pin returns one page for the caller to keep: the bytes stay as they
	// are whatever is written to the page afterwards.
	pin(page int64) ([]byte, error)
	// read fills dst from the file's bytes starting at page.
	read(dst []byte, page int64) error
	// write stores data, whole pages, starting at page; pages past the end
	// of the file extend it.
	write(data []byte, page int64) error
	// scan returns one page to a cursor, valid until the cursor's next
	// Pin. w is the cursor's read-ahead state, for a medium that has to
	// copy: it may fetch pages up to, not including, limit.
	scan(w *window, page, limit int64) ([]byte, error)
	sync() error
	close() error
}

// heapMedium keeps pages on the heap. A published page slice is never
// mutated — a write installs a freshly allocated one — so pin and scan lend
// the slice itself, a stable snapshot with no copy and no allocation.
type heapMedium struct{ pageSize int }

func (heapMedium) kind() string                          { return "sim" }
func (m heapMedium) create(string) (pageFile, error)     { return &heapFile{pageSize: m.pageSize}, nil }
func (heapMedium) remove(string, pageFile) (bool, error) { return true, nil }
func (heapMedium) rename(string, string) error           { return nil }
func (heapMedium) syncDir() error                        { return nil }

type heapFile struct {
	pageSize int
	pages    [][]byte
}

func (f *heapFile) pin(page int64) ([]byte, error)                { return f.pages[page], nil }
func (f *heapFile) scan(_ *window, page, _ int64) ([]byte, error) { return f.pages[page], nil }
func (f *heapFile) sync() error                                   { return nil }
func (f *heapFile) close() error                                  { return nil }

func (f *heapFile) read(dst []byte, page int64) error {
	for ; len(dst) > 0; page++ {
		dst = dst[copy(dst, f.pages[page]):]
	}
	return nil
}

func (f *heapFile) write(data []byte, page int64) error {
	for ; len(data) > 0; data, page = data[f.pageSize:], page+1 {
		p := append([]byte(nil), data[:f.pageSize]...)
		if page < int64(len(f.pages)) {
			f.pages[page] = p
		} else {
			f.pages = append(f.pages, p)
		}
	}
	return nil
}

// NewDisk creates an empty disk on the heap medium with the given page size
// (0 means DefaultPageSize).
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return newDisk(pageSize, heapMedium{pageSize})
}

func newDisk(pageSize int, m medium) *Disk {
	return &Disk{pageSize: pageSize, media: m, files: make(map[string]*file)}
}

// addFile enters a file with a fresh identity into the namespace; callers
// must hold d.mu.
func (d *Disk) addFile(name string, m pageFile, pages int64) {
	d.files[name] = &file{id: d.nextFileID, name: name, pages: pages, m: m}
	d.nextFileID++
}

// PageSize returns the disk's page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// Kind names the medium ("sim" or "file") for stats and logs.
func (d *Disk) Kind() string { return d.media.kind() }

// SetTracer installs (or removes, if nil) an access tracer.
func (d *Disk) SetTracer(t Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracer = t
}

// Stats returns a snapshot of the accumulated I/O statistics.
func (d *Disk) Stats() Stats { return d.acct.snapshot() }

// ResetStats zeroes the I/O statistics, including the packed head position
// that drives the per-file sequential-vs-random classification. Resetting
// the head matters: without it, the first access of a measurement window
// could classify as sequential purely because the previous window happened
// to park the head on the adjacent page of the same file — the window's
// accounting would then depend on activity it claims to exclude.
func (d *Disk) ResetStats() { d.acct.reset() }

// AddInvalidator registers a cache invalidation hook; every subsequent
// page overwrite, Remove, and Rename notifies it (appends never do: a new
// page number cannot be cached). Hooks cannot be removed — a pool lives as
// long as its disk.
func (d *Disk) AddInvalidator(inv Invalidator) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.invs = append(d.invs, inv)
}

// notifyPage fires page-level invalidation on a snapshot of the hook list
// taken under the disk lock. Called after the lock is released so hooks may
// take their own locks and re-read through the disk without deadlocking.
func notifyPage(invs []Invalidator, name string, page int64) {
	for _, inv := range invs {
		inv.InvalidatePage(name, page)
	}
}

// notifyFile is notifyPage for whole-file invalidation (Remove, Rename).
func notifyFile(invs []Invalidator, name string) {
	for _, inv := range invs {
		inv.InvalidateFile(name)
	}
}

// lookup finds a file by name on an open disk; callers must hold d.mu.
func (d *Disk) lookup(name string) (*file, error) {
	if d.closed {
		return nil, ErrClosed
	}
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f, nil
}

// pageOf is lookup for a read of one page, which must be one of the file's.
func (d *Disk) pageOf(name string, page int64) (*file, error) {
	f, err := d.lookup(name)
	if err == nil && (page < 0 || page >= f.pages) {
		return nil, errPageRange(f, page)
	}
	return f, err
}

func errPageRange(f *file, page int64) error {
	return fmt.Errorf("%w: %q page %d of %d", ErrOutOfRange, f.name, page, f.pages)
}

// readErr names the page a medium failed to read.
func readErr(name string, page int64, err error) error {
	return fmt.Errorf("storage: reading %q page %d: %w", name, page, err)
}

// Create creates an empty file, durably where the medium is. It fails if
// the name already exists.
func (d *Disk) Create(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, ok := d.files[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	m, err := d.media.create(name)
	if err != nil {
		return err
	}
	d.addFile(name, m, 0)
	return nil
}

// Remove deletes a file and reclaims its pages. File identities are never
// reused, so a head position pointing at a removed file simply never
// matches again (the next access counts as random, as it should). Any
// registered caches drop the file's pages. When the medium fails, the file
// is either still there and whole or — the deletion done but not known to
// be durable — gone; Exists tells which.
func (d *Disk) Remove(name string) error {
	d.mu.Lock()
	f, err := d.lookup(name)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	gone, err := d.media.remove(name, f.m)
	var invs []Invalidator
	if gone {
		f.gone = true
		delete(d.files, name)
		invs = d.invs
	}
	d.mu.Unlock()
	notifyFile(invs, name)
	return err
}

// Rename renames a file, failing if the target exists. The file's pages are
// synced first and the rename made durable, so the new name never refers to
// an incomplete file. Any registered caches drop the pages keyed under the
// old name.
func (d *Disk) Rename(oldName, newName string) error {
	d.mu.Lock()
	f, err := d.lookup(oldName)
	if _, ok := d.files[newName]; ok && err == nil {
		err = fmt.Errorf("%w: %q", ErrExists, newName)
	}
	if err == nil {
		err = d.syncFile(f)
	}
	if err == nil {
		err = d.media.rename(oldName, newName)
	}
	if err != nil {
		d.mu.Unlock()
		return err
	}
	delete(d.files, oldName)
	f.name = newName
	d.files[newName] = f
	invs := d.invs
	d.mu.Unlock()
	notifyFile(invs, oldName)
	return nil
}

// Exists reports whether a file exists.
func (d *Disk) Exists(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.files[name]
	return ok
}

// Files returns the names of all files, sorted.
func (d *Disk) Files() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.names(false)
}

// names returns the sorted names of all files, or of those written since
// their last sync; callers must hold d.mu.
func (d *Disk) names(dirtyOnly bool) []string {
	out := make([]string, 0, len(d.files))
	for name, f := range d.files {
		if f.dirty || !dirtyOnly {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// NumPages returns the number of pages in a file.
func (d *Disk) NumPages(name string) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, err := d.lookup(name)
	if err != nil {
		return 0, err
	}
	return f.pages, nil
}

// TotalPages returns the number of pages across all files (the storage
// footprint).
func (d *Disk) TotalPages() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n int64
	for _, f := range d.files {
		n += f.pages
	}
	return n
}

// ReadPage reads page number page of the named file into buf, which must be
// at least PageSize bytes (a shorter one gets a prefix). It returns the
// number of bytes copied. Reads take the shared lock, so any number of
// workers can probe pages concurrently.
func (d *Disk) ReadPage(name string, page int64, buf []byte) (int, error) {
	dst := buf[:min(len(buf), d.pageSize)]
	if _, err := d.read(name, page, 1, dst); err != nil {
		return 0, err
	}
	return len(dst), nil
}

// ReadPages reads up to n consecutive pages starting at page into buf
// (which must hold n*PageSize bytes), returning how many pages were read
// (clamped at end of file). One head movement plus sequential transfers.
func (d *Disk) ReadPages(name string, page int64, n int, buf []byte) (int, error) {
	if len(buf) < n*d.pageSize {
		return 0, fmt.Errorf("storage: buffer %d bytes for %d pages of %d", len(buf), n, d.pageSize)
	}
	return d.read(name, page, n, buf)
}

// read copies up to n pages from page on, as many as the file has, into dst
// and accounts them.
func (d *Disk) read(name string, page int64, n int, dst []byte) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, err := d.pageOf(name, page)
	if err != nil {
		return 0, err
	}
	got := int(min(int64(max(n, 0)), f.pages-page))
	if err := f.m.read(dst[:min(len(dst), got*d.pageSize)], page); err != nil {
		return 0, readErr(name, page, err)
	}
	for i := 0; i < got; i++ {
		d.account(f, page+int64(i), false)
	}
	return got, nil
}

// PinPage returns a read-only view of one page, accounted exactly like a
// ReadPage of it, that stays a stable snapshot even if the page is
// overwritten after the pin: borrowed on the heap medium, a fresh copy on
// the host medium (front the disk with a buffer pool to get pinned frames
// there). The handle needs no release (its Release is a no-op), but callers
// should Release anyway so the same code path works against a pinning cache.
func (d *Disk) PinPage(name string, page int64) (PageHandle, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, err := d.pageOf(name, page)
	if err != nil {
		return PageHandle{}, err
	}
	data, err := f.m.pin(page)
	if err != nil {
		return PageHandle{}, readErr(name, page, err)
	}
	d.account(f, page, false)
	return PageHandle{data: data}, nil
}

// WritePage overwrites page number page of the named file. Writing exactly
// one page past the end appends a new page. Registered caches drop their
// copy of the page.
func (d *Disk) WritePage(name string, page int64, data []byte) error {
	_, err := d.write(name, page, false, data, 1)
	return err
}

// AppendPage appends a page to the named file, returning its page number.
func (d *Disk) AppendPage(name string, data []byte) (int64, error) {
	return d.write(name, 0, true, data, 1)
}

// AppendPages appends len(data)/PageSize full pages plus any trailing
// partial page to the named file, returning the first new page number. One
// head movement plus sequential transfers.
func (d *Disk) AppendPages(name string, data []byte) (int64, error) {
	return d.write(name, 0, true, data, (len(data)+d.pageSize-1)/d.pageSize)
}

// write is the one write path: data becomes n whole pages of the named
// file, the last padded with zeroes, at page — one of the file's or the one
// after them — or, appending, at the end. It returns the first page written.
func (d *Disk) write(name string, page int64, appending bool, data []byte, n int) (int64, error) {
	d.mu.Lock()
	f, err := d.lookup(name)
	if err == nil && appending {
		page = f.pages
	}
	switch {
	case err != nil:
	case page < 0 || page > f.pages:
		err = errPageRange(f, page)
	case len(data) > n*d.pageSize:
		err = fmt.Errorf("storage: write of %d bytes exceeds page size %d", len(data), d.pageSize)
	case n > 0:
		if size := n * d.pageSize; len(data) < size {
			data = append(make([]byte, 0, size), data...)[:size]
		}
		if err = f.m.write(data, page); err == nil {
			f.dirty = true
		}
	}
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	for i := int64(0); i < int64(n); i++ {
		d.account(f, page+i, true)
	}
	// Only an overwrite invalidates. An appended page number cannot be
	// cached: pins are bounds-checked, the disk never truncates, and
	// Remove/Rename already flush a name before it can shrink or be reused.
	var invs []Invalidator
	if page < f.pages {
		invs = d.invs
	}
	f.pages = max(f.pages, page+int64(n))
	d.mu.Unlock()
	notifyPage(invs, name, page)
	return page, nil
}

// syncFile flushes one file's pages if any were written since its last
// sync; callers must hold d.mu exclusively.
func (d *Disk) syncFile(f *file) error {
	if !f.dirty {
		return nil
	}
	if err := f.m.sync(); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

// Sync flushes every file with unflushed writes and then the namespace.
// After Sync returns, all pages written so far survive a crash — on the
// host medium; the heap medium has nothing to flush to.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.syncLocked()
}

func (d *Disk) syncLocked() error {
	for _, name := range d.names(true) {
		if err := d.syncFile(d.files[name]); err != nil {
			return err
		}
	}
	return d.media.syncDir()
}

// Close syncs everything and releases the medium's resources. Idempotent.
// After Close, on either medium, every call that returns an error returns
// ErrClosed; Stats, PageSize, Kind, Exists, Files and TotalPages still
// answer from memory.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	err := d.syncLocked()
	for _, f := range d.files {
		if cerr := f.m.close(); err == nil {
			err = cerr
		}
	}
	d.closed = true
	return err
}

// account classifies one page access as sequential or random and advances
// the head. It must be called with d.mu held (shared or exclusive): the
// head swap and counter increments are atomic, so concurrent readers under
// the shared lock account without racing. With several workers interleaving
// streams the shared head bounces between files and accesses classify as
// random — the honest cost of concurrent streams on a one-head disk.
func (d *Disk) account(f *file, page int64, write bool) {
	d.acct.account(f.id, page, write)
	if d.tracer != nil {
		d.tracer.Access(f.name, page, write)
	}
}
