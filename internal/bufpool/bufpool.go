// Package bufpool implements the shared buffer-pool layer between the
// indexes and the simulated disks: a sharded CLOCK page cache with
// pin/unpin semantics, per-file invalidation, and hit/miss/eviction
// counters. A Pool fronts one storage.Backend and satisfies
// storage.PageReader, so every index read path works identically against a
// bare disk and against a cached one; several Pools may share one Cache
// (the sharded facade attaches every shard's disk to a single cache so the
// configured bytes bound the whole deployment, not each shard).
//
// # Semantics
//
//   - PinPage on a hit hands out a borrowed reference to the cached frame,
//     zero copies and zero allocations; the frame cannot be evicted while
//     pinned. On a miss the page is read from the backing disk into a frame
//     claimed by a CLOCK sweep (evicting an unpinned, unreferenced victim),
//     and that disk read carries the usual sequential/random accounting —
//     Cost therefore charges exactly the misses.
//   - Writes never go through the pool. The pool registers itself as a
//     storage.Invalidator on its disk, so page writes, Remove, and Rename
//     drop stale frames. An invalidated frame that is still pinned stays
//     alive (its bytes remain a stable snapshot for the borrower) and is
//     reclaimed by the clock once the last pin drops.
//   - When every frame is pinned and the budget is exhausted, a miss is
//     served through a transient overflow frame that is never cached —
//     progress is never blocked on eviction.
//   - A sequential scan goes through Scan, not one PinPage per page: hits
//     come from the frames as above, misses from the backing disk's own
//     cursor (read-ahead, on the file backend), and a miss is cached only
//     when the range the scan declared fits the cache. A longer scan would
//     evict its own first pages before it could re-read them — and every
//     other resident page with them — so its misses are counted, charged,
//     and not kept.
//   - A frame is keyed by one integer, (file id, page). Each pool interns
//     the names of its disk's files to ids drawn from the cache, so several
//     disks never share one. A scan resolves its file's id once, when it
//     opens; PinPage resolves it per call. Either way a hit probes an
//     integer map and hashes no name. Invalidation looks a name up and
//     never interns one. InvalidateFile (Remove, Rename) forgets the name,
//     and ids are never reused, so a file created again under that name
//     gets a fresh id and can never hit its predecessor's frames. The
//     table therefore holds only the files being read. A page number that
//     does not fit beside the id is an error, never an alias.
//
// Concurrency: any number of goroutines may pin, read, and unpin
// concurrently with each other and with invalidation. As everywhere else
// in the repo, writes to the underlying pages require external
// serialization against readers of those same pages.
package bufpool

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// numShards is the fixed lock-striping factor of a cache. Sixteen shards
// keep pin/unpin contention negligible at the repo's worker-pool sizes
// while keeping whole-file invalidation a cheap sweep.
const (
	shardBits = 4
	numShards = 1 << shardBits
)

// A frame key packs a file id (the high 32 bits) and a page number (the
// low 32) into one integer, so a map probe hashes eight bytes.
const pageBits = 32

// frameKey is the key of page of the file with the given id. A page the low
// bits cannot hold has no key: it is an error, never another page's alias.
func frameKey(name string, id uint32, page int64) (uint64, error) {
	if uint64(page) >= 1<<pageBits {
		return 0, fmt.Errorf("%w: %q page %d", storage.ErrOutOfRange, name, page)
	}
	return uint64(id)<<pageBits | uint64(page), nil
}

// errIDsSpent is returned once a cache has handed out every file id.
var errIDsSpent = errors.New("bufpool: file ids exhausted")

// frame is one cache slot. pins is atomic so Unpin takes no lock; all
// other fields are guarded by the owning shard's mutex.
type frame struct {
	key  uint64
	disk uint32 // the attached disk whose page this is
	data []byte
	pins atomic.Int32
	ref  bool // CLOCK reference bit
	dead bool // invalidated; reclaim as soon as pins drops to zero
}

// Unpin implements storage.Unpinner: one atomic decrement, no lock.
func (f *frame) Unpin() { f.pins.Add(-1) }

type cacheShard struct {
	mu     sync.Mutex
	frames map[uint64]*frame
	ring   []*frame // every frame this shard owns, swept by the clock hand
	hand   int
}

// Cache is the shared frame store. Create one with NewCache and attach
// each disk with Attach; the byte budget is global across all attached
// disks.
type Cache struct {
	pageSize  int
	capFrames int64
	allocated atomic.Int64 // frames allocated across all shards, <= capFrames
	nextDisk  atomic.Uint32
	nextFile  atomic.Uint64 // the last file id handed out
	evictions atomic.Int64
	shards    [numShards]cacheShard
}

// NewCache creates a cache holding up to cacheBytes worth of pageSize
// pages (at least one frame; pageSize 0 selects storage.DefaultPageSize).
func NewCache(cacheBytes int64, pageSize int) *Cache {
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	frames := cacheBytes / int64(pageSize)
	if frames < 1 {
		frames = 1
	}
	c := &Cache{pageSize: pageSize, capFrames: frames}
	for i := range c.shards {
		c.shards[i].frames = make(map[uint64]*frame)
	}
	return c
}

// CapacityBytes returns the configured capacity in bytes.
func (c *Cache) CapacityBytes() int64 { return c.capFrames * int64(c.pageSize) }

// CapacityFrames returns the capacity in page frames.
func (c *Cache) CapacityFrames() int64 { return c.capFrames }

// Evictions returns how many cached pages were evicted to make room.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// PageSize returns the page size every attached disk must share.
func (c *Cache) PageSize() int { return c.pageSize }

// shardFor maps a frame key to its lock stripe: a Fibonacci hash, whose top
// bits spread consecutive pages of one file over every stripe.
func (c *Cache) shardFor(k uint64) *cacheShard {
	return &c.shards[(k*0x9e3779b97f4a7c15)>>(64-shardBits)]
}

// claim returns a frame of the shard's ring ready to be filled and inserted
// into the map, pinned once, or nil when every frame is pinned and the
// budget is spent. Callers must hold sh.mu.
func (c *Cache) claim(sh *cacheShard) *frame {
	// An empty ring always allocates its first frame, even past the global
	// budget (overshooting by at most numShards-1 frames): otherwise a
	// stripe whose first miss arrives after other stripes consumed the
	// whole budget could never cache anything — its CLOCK sweep has no
	// victims — and every key hashing there would miss forever.
	if len(sh.ring) == 0 {
		c.allocated.Add(1)
		return sh.grow(c.pageSize)
	}
	// Allocate a new frame while the global budget allows.
	if c.allocated.Load() < c.capFrames {
		if c.allocated.Add(1) <= c.capFrames {
			return sh.grow(c.pageSize)
		}
		c.allocated.Add(-1) // raced past the budget; evict instead
	}
	// CLOCK sweep over this shard's ring: dead frames are reclaimed on
	// sight, referenced frames get one more revolution, pinned frames are
	// skipped. Two full revolutions guarantee termination.
	for sweep := 0; sweep < 2*len(sh.ring); sweep++ {
		fr := sh.ring[sh.hand]
		sh.hand++
		if sh.hand == len(sh.ring) {
			sh.hand = 0
		}
		if fr.pins.Load() != 0 {
			continue
		}
		if fr.dead {
			fr.dead = false
			fr.pins.Store(1)
			return fr
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		delete(sh.frames, fr.key)
		c.evictions.Add(1)
		fr.pins.Store(1)
		return fr
	}
	return nil
}

// grow adds a frame to the shard's ring and returns it pinned once.
func (sh *cacheShard) grow(pageSize int) *frame {
	fr := &frame{data: make([]byte, pageSize)}
	fr.pins.Store(1)
	sh.ring = append(sh.ring, fr)
	return fr
}

// Pool is one disk's cached view of a Cache: it implements
// storage.PageReader (reads served from the shared frames, misses filled
// from the disk) and storage.Invalidator (registered on the disk at Attach
// so writes stay coherent). Hit/miss counters are per pool, so per-shard
// stats stay meaningful even when many disks share one cache.
type Pool struct {
	c            *Cache
	d            storage.Backend
	id           uint32
	hits, misses atomic.Int64
	// epoch counts invalidations. A scan fills frames outside the stripe
	// lock (see scanCursor.Pin), so it caches a page only while no
	// invalidation has arrived since the scan opened.
	epoch atomic.Uint64
	// files maps the name of each file being read to its id. It is copied
	// on write, so a lookup takes no lock; filesMu orders the writers.
	files   atomic.Pointer[map[string]uint32]
	filesMu sync.Mutex
}

// Attach registers a disk with the cache and returns its cached reader.
// The disk's page size must match the cache's.
func (c *Cache) Attach(d storage.Backend) (*Pool, error) {
	if d.PageSize() != c.pageSize {
		return nil, fmt.Errorf("bufpool: disk page size %d, cache %d", d.PageSize(), c.pageSize)
	}
	p := &Pool{c: c, d: d, id: c.nextDisk.Add(1)}
	p.files.Store(&map[string]uint32{})
	d.AddInvalidator(p)
	return p, nil
}

// New builds a single-disk pool: a fresh cache of cacheBytes attached to d.
func New(d storage.Backend, cacheBytes int64) *Pool {
	p, err := NewCache(cacheBytes, d.PageSize()).Attach(d)
	if err != nil { // unreachable: the cache adopts the disk's page size
		panic(err)
	}
	return p
}

// lookup returns the id of a file name, if it has one.
func (p *Pool) lookup(name string) (uint32, bool) {
	id, ok := (*p.files.Load())[name]
	return id, ok
}

// intern returns the id of a file name, drawing a fresh one from the cache
// for a name the pool has none for.
func (p *Pool) intern(name string) (uint32, error) {
	if id, ok := p.lookup(name); ok {
		return id, nil
	}
	p.filesMu.Lock()
	defer p.filesMu.Unlock()
	files := *p.files.Load()
	if id, ok := files[name]; ok {
		return id, nil
	}
	id := p.c.nextFile.Add(1)
	if id > math.MaxUint32 {
		return 0, errIDsSpent
	}
	next := maps.Clone(files)
	next[name] = uint32(id)
	p.files.Store(&next)
	return uint32(id), nil
}

// forget drops a file name from the table and returns the id it had.
func (p *Pool) forget(name string) (uint32, bool) {
	p.filesMu.Lock()
	defer p.filesMu.Unlock()
	files := *p.files.Load()
	id, ok := files[name]
	if ok {
		next := maps.Clone(files)
		delete(next, name)
		p.files.Store(&next)
	}
	return id, ok
}

// Cache returns the shared frame store behind this pool.
func (p *Pool) Cache() *Cache { return p.c }

// Disk returns the backing disk.
func (p *Pool) Disk() storage.Backend { return p.d }

// PageSize implements storage.PageReader.
func (p *Pool) PageSize() int { return p.c.pageSize }

// Exists implements storage.PageReader.
func (p *Pool) Exists(name string) bool { return p.d.Exists(name) }

// NumPages implements storage.PageReader.
func (p *Pool) NumPages(name string) (int64, error) { return p.d.NumPages(name) }

// PinPage implements storage.PageReader: the hot path of every cached
// point probe. A hit is a name lookup, an integer map probe, a pin, and a
// borrowed slice — no copy, no allocation. A miss claims a frame and fills
// it from the disk while holding this shard's lock, which deduplicates
// concurrent misses on the same page. On the file backend that read is a
// pread, and every pin on the stripe waits behind it: acceptable for one
// page of a point probe, not for a scan, whose misses go through Scan and
// read unlocked.
func (p *Pool) PinPage(name string, page int64) (storage.PageHandle, error) {
	id, err := p.intern(name)
	if err != nil {
		return storage.PageHandle{}, err
	}
	k, err := frameKey(name, id, page)
	if err != nil {
		return storage.PageHandle{}, err
	}
	sh := p.c.shardFor(k)
	sh.mu.Lock()
	if fr := sh.frames[k]; fr != nil {
		fr.pins.Add(1)
		fr.ref = true
		sh.mu.Unlock()
		p.hits.Add(1)
		return storage.NewPageHandle(fr.data, fr), nil
	}
	fr := p.c.claim(sh)
	tracked := fr != nil
	if !tracked {
		// Everything pinned: a transient frame serves this one pin and is
		// garbage once released.
		fr = &frame{data: make([]byte, p.c.pageSize)}
		fr.pins.Store(1)
	}
	if _, err := p.d.ReadPage(name, page, fr.data); err != nil {
		// Leave the frame reclaimable: dead, unpinned, out of the map.
		fr.dead = true
		fr.pins.Store(0)
		sh.mu.Unlock()
		return storage.PageHandle{}, err
	}
	if tracked {
		p.insert(sh, fr, k)
	}
	sh.mu.Unlock()
	p.misses.Add(1)
	return storage.NewPageHandle(fr.data, fr), nil
}

// insert makes a filled frame the cached copy of key k; callers hold sh.mu.
func (p *Pool) insert(sh *cacheShard, fr *frame, k uint64) {
	fr.key, fr.disk = k, p.id
	fr.ref = true
	sh.frames[k] = fr
}

// scanCursor is the pool's storage.Cursor. A hit pins the cached frame
// until the next Pin. A miss is served by the backing disk's cursor, opened
// at the first one, and — when the declared range fits the cache (keep) —
// copied into a frame for the next scan to hit. Keeps reports keep: a page
// loop then reads every page its envelope leaves live, so a range that fits
// is paid for once and hit from then on, instead of leaving a page unread
// now that a later query would miss on.
type scanCursor struct {
	p        *Pool
	name     string
	id       uint32 // the file's id, resolved when the scan opened
	err      error  // why it could not be resolved
	from, to int64
	keep     bool           // the declared range fits the cache: misses are cached
	epoch    uint64         // p.epoch when the scan opened
	disk     storage.Cursor // nil until the first miss
	fr       *frame         // the hit pinned for the caller, if any
}

var scanCursors = sync.Pool{New: func() any { return new(scanCursor) }}

// Scan implements storage.PageReader. Whether the scan's misses are cached is
// decided here, from two numbers the pool already has: a range of more
// pages than the cache has frames cannot be resident when the scan comes
// round again, so caching it only evicts what could have been.
func (p *Pool) Scan(name string, from, to int64) storage.Cursor {
	c := scanCursors.Get().(*scanCursor)
	id, err := p.intern(name)
	*c = scanCursor{
		p: p, name: name, id: id, err: err, from: from, to: to,
		keep: to-from <= p.c.capFrames, epoch: p.epoch.Load(),
	}
	return c
}

// Pin never holds the stripe lock across the disk read: look up, unlock,
// read, and lock again to insert — so the hits of other goroutines on this
// stripe do not queue behind a pread.
func (c *scanCursor) Pin(page int64) ([]byte, error) {
	c.unpin()
	if c.err != nil {
		return nil, c.err
	}
	if page < c.from || page >= c.to {
		return nil, fmt.Errorf("%w: %q page %d outside scan [%d,%d)", storage.ErrOutOfRange, c.name, page, c.from, c.to)
	}
	k, err := frameKey(c.name, c.id, page)
	if err != nil {
		return nil, err
	}
	p := c.p
	sh := p.c.shardFor(k)
	sh.mu.Lock()
	if fr := sh.frames[k]; fr != nil {
		fr.pins.Add(1)
		fr.ref = true
		sh.mu.Unlock()
		p.hits.Add(1)
		c.fr = fr
		return fr.data, nil
	}
	sh.mu.Unlock()
	if c.disk == nil {
		c.disk = p.d.Scan(c.name, c.from, c.to)
	}
	data, err := c.disk.Pin(page)
	if err != nil {
		return nil, err
	}
	p.misses.Add(1)
	if c.keep {
		sh.mu.Lock()
		// Another scan may have cached the page meanwhile; an invalidation
		// may have made these bytes stale (it bumps the epoch before it
		// takes this lock, so one that has not shown yet will find the
		// frame and kill it).
		if sh.frames[k] == nil && p.epoch.Load() == c.epoch {
			if fr := p.c.claim(sh); fr != nil {
				copy(fr.data, data)
				p.insert(sh, fr, k)
				fr.pins.Store(0)
			}
		}
		sh.mu.Unlock()
	}
	return data, nil
}

func (c *scanCursor) Keeps() bool { return c.keep }

func (c *scanCursor) unpin() {
	if c.fr != nil {
		c.fr.Unpin()
		c.fr = nil
	}
}

func (c *scanCursor) Close() {
	c.unpin()
	if c.disk != nil {
		c.disk.Close()
	}
	*c = scanCursor{}
	scanCursors.Put(c)
}

// ReadPage implements storage.PageReader with copy semantics identical to
// Disk.ReadPage: up to a page's worth of bytes copied into buf.
func (p *Pool) ReadPage(name string, page int64, buf []byte) (int, error) {
	h, err := p.PinPage(name, page)
	if err != nil {
		return 0, err
	}
	n := copy(buf, h.Data())
	h.Release()
	return n, nil
}

// ReadPages implements storage.PageReader, serving each page through the
// cache. Like Disk.ReadPages it clamps at end of file and requires buf to
// hold n pages.
func (p *Pool) ReadPages(name string, page int64, n int, buf []byte) (int, error) {
	npages, err := p.d.NumPages(name)
	if err != nil {
		return 0, err
	}
	if page < 0 || page >= npages {
		return 0, fmt.Errorf("%w: %q page %d of %d", storage.ErrOutOfRange, name, page, npages)
	}
	if len(buf) < n*p.c.pageSize {
		return 0, fmt.Errorf("storage: buffer %d bytes for %d pages of %d", len(buf), n, p.c.pageSize)
	}
	got := 0
	for i := 0; i < n && page+int64(i) < npages; i++ {
		if _, err := p.ReadPage(name, page+int64(i), buf[i*p.c.pageSize:(i+1)*p.c.pageSize]); err != nil {
			return got, err
		}
		got++
	}
	return got, nil
}

// InvalidatePage implements storage.Invalidator.
func (p *Pool) InvalidatePage(name string, page int64) {
	p.epoch.Add(1)
	id, ok := p.lookup(name)
	if !ok {
		return
	}
	k, err := frameKey(name, id, page)
	if err != nil {
		return
	}
	sh := p.c.shardFor(k)
	sh.mu.Lock()
	if fr := sh.frames[k]; fr != nil {
		delete(sh.frames, k)
		fr.dead = true
	}
	sh.mu.Unlock()
}

// InvalidateFile implements storage.Invalidator: forgets the name and drops
// every cached page of the file it named on this pool's disk.
func (p *Pool) InvalidateFile(name string) {
	p.epoch.Add(1)
	if id, ok := p.forget(name); ok {
		p.drop(func(fr *frame) bool { return uint32(fr.key>>pageBits) == id })
	}
}

// Purge drops every cached page of this pool's disk (hit/miss counters are
// kept). Benchmarks use it to measure cold-cache behaviour.
func (p *Pool) Purge() {
	p.drop(func(fr *frame) bool { return fr.disk == p.id })
}

// drop kills every cached frame that matches.
func (p *Pool) drop(match func(*frame) bool) {
	for i := range p.c.shards {
		sh := &p.c.shards[i]
		sh.mu.Lock()
		for k, fr := range sh.frames {
			if match(fr) {
				delete(sh.frames, k)
				fr.dead = true
			}
		}
		sh.mu.Unlock()
	}
}

// Hits returns how many pins were served from the cache.
func (p *Pool) Hits() int64 { return p.hits.Load() }

// Misses returns how many pins had to read from the backing disk.
func (p *Pool) Misses() int64 { return p.misses.Load() }

// Stats implements storage.StatsProvider: the backing disk's accounting
// with this pool's cache counters filled in. Because every miss performed
// exactly one disk read, Stats().Cost charges exactly the misses.
func (p *Pool) Stats() storage.Stats {
	st := p.d.Stats()
	st.CacheHits = p.hits.Load()
	st.CacheMisses = p.misses.Load()
	return st
}

// ResetStats zeroes the cache counters and the backing disk's accounting.
func (p *Pool) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.d.ResetStats()
}

var (
	_ storage.PageReader    = (*Pool)(nil)
	_ storage.Invalidator   = (*Pool)(nil)
	_ storage.StatsProvider = (*Pool)(nil)
	_ storage.Unpinner      = (*frame)(nil)
)
