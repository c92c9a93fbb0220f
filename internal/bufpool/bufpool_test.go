package bufpool

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/storage"
)

// fill creates a file of n pages on d, each page stamped with its page
// number so reads are verifiable.
func fill(t testing.TB, d *storage.Disk, name string, n int) {
	t.Helper()
	if err := d.Create(name); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, d.PageSize())
	for p := 0; p < n; p++ {
		stamp(page, name, p)
		if _, err := d.AppendPage(name, page); err != nil {
			t.Fatal(err)
		}
	}
}

func stamp(page []byte, name string, p int) {
	copy(page, fmt.Sprintf("%s:%08d", name, p))
}

func checkPage(t testing.TB, got []byte, name string, p int) {
	t.Helper()
	want := fmt.Sprintf("%s:%08d", name, p)
	if !bytes.HasPrefix(got, []byte(want)) {
		t.Fatalf("page %s/%d holds %q, want prefix %q", name, p, got[:len(want)], want)
	}
}

// TestOneMissPerDistinctPage is the property test of the capacity
// contract: with capacity >= total pages, any access pattern over those
// pages costs exactly one miss per distinct page — everything else hits,
// and nothing is ever evicted.
func TestOneMissPerDistinctPage(t *testing.T) {
	const pages, files = 37, 3
	d := storage.NewDisk(256)
	for f := 0; f < files; f++ {
		fill(t, d, fmt.Sprintf("f%d", f), pages)
	}
	total := int64(files * pages)
	p := New(d, total*256) // capacity exactly the total page count
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("f%d", rng.Intn(files))
		pg := int64(rng.Intn(pages))
		h, err := p.PinPage(name, pg)
		if err != nil {
			t.Fatal(err)
		}
		checkPage(t, h.Data(), name, int(pg))
		h.Release()
	}
	if p.Misses() != total {
		t.Fatalf("%d misses over %d distinct pages, want exactly one each", p.Misses(), total)
	}
	if p.Hits() != 5000-total {
		t.Fatalf("hits = %d, want %d", p.Hits(), 5000-total)
	}
	if ev := p.Cache().Evictions(); ev != 0 {
		t.Fatalf("%d evictions with a full-fit cache", ev)
	}
	// A second full sweep is all hits.
	before := p.Misses()
	for f := 0; f < files; f++ {
		for pg := 0; pg < pages; pg++ {
			h, err := p.PinPage(fmt.Sprintf("f%d", f), int64(pg))
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	if p.Misses() != before {
		t.Fatalf("full-fit warm sweep missed %d times", p.Misses()-before)
	}
}

// TestEvictionUnderPressure drives a cache far smaller than the data and
// checks every read still returns correct bytes while evictions occur.
func TestEvictionUnderPressure(t *testing.T) {
	const pages = 200
	d := storage.NewDisk(256)
	fill(t, d, "f", pages)
	p := New(d, 8*256) // 8 frames for 200 pages
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		pg := int64(rng.Intn(pages))
		h, err := p.PinPage("f", pg)
		if err != nil {
			t.Fatal(err)
		}
		checkPage(t, h.Data(), "f", int(pg))
		h.Release()
	}
	if p.Cache().Evictions() == 0 {
		t.Fatal("no evictions despite 25x cache pressure")
	}
	if p.Hits() == 0 {
		t.Fatal("no hits at all — CLOCK retained nothing")
	}
}

// TestPinBlocksEviction pins more pages than the cache has frames: the
// pinned pages' bytes must stay valid (overflow frames serve the excess)
// and remain correct after heavy churn evicts everything unpinned.
func TestPinBlocksEviction(t *testing.T) {
	const pages = 64
	d := storage.NewDisk(256)
	fill(t, d, "f", pages)
	p := New(d, 4*256) // 4 frames
	handles := make([]storage.PageHandle, 0, 16)
	for pg := 0; pg < 16; pg++ { // pin 16 pages into a 4-frame cache
		h, err := p.PinPage("f", int64(pg))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Churn the cache with the remaining pages.
	for i := 0; i < 1000; i++ {
		h, err := p.PinPage("f", int64(16+i%(pages-16)))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	for pg, h := range handles {
		checkPage(t, h.Data(), "f", pg)
		h.Release()
	}
}

// TestInvalidationCoherence overwrites and removes pages underneath the
// pool and checks reads never see stale bytes.
func TestInvalidationCoherence(t *testing.T) {
	d := storage.NewDisk(256)
	fill(t, d, "f", 8)
	p := New(d, 64*256)
	// Warm page 3, then overwrite it.
	h, err := p.PinPage("f", 3)
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, h.Data(), "f", 3)
	h.Release()
	page := make([]byte, 256)
	copy(page, "rewritten!")
	if err := d.WritePage("f", 3, page); err != nil {
		t.Fatal(err)
	}
	h, err = p.PinPage("f", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(h.Data(), []byte("rewritten!")) {
		t.Fatalf("stale read after WritePage: %q", h.Data()[:10])
	}
	h.Release()
	// A pinned handle taken before the write keeps its snapshot.
	before, err := p.PinPage("f", 5)
	if err != nil {
		t.Fatal(err)
	}
	copy(page, "changed-5!")
	if err := d.WritePage("f", 5, page); err != nil {
		t.Fatal(err)
	}
	checkPage(t, before.Data(), "f", 5) // old snapshot, not "changed-5!"
	before.Release()
	// Remove + recreate under the same name must not serve the old file.
	if err := d.Remove("f"); err != nil {
		t.Fatal(err)
	}
	fill(t, d, "f", 2)
	h, err = p.PinPage("f", 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, h.Data(), "f", 1)
	h.Release()
	// Rename drops the old name's frames.
	if err := d.Rename("f", "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PinPage("f", 0); err == nil {
		t.Fatal("pin of renamed-away file succeeded")
	}
	h, err = p.PinPage("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, h.Data(), "f", 0) // stamped under its original name
	h.Release()
}

// TestConcurrentPinUnpinInvalidate hammers the pool from many goroutines —
// readers pinning random pages, a writer overwriting pages (invalidating
// through the disk hook), and whole-file invalidations — under the race
// detector. Readers tolerate snapshot-stale bytes but must always see a
// complete page stamped for some epoch, never a torn mix.
func TestConcurrentPinUnpinInvalidate(t *testing.T) {
	const pages = 64
	d := storage.NewDisk(256)
	if err := d.Create("f"); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 256)
	for pg := 0; pg < pages; pg++ {
		stamp(page, "f", pg)
		if _, err := d.AppendPage("f", page); err != nil {
			t.Fatal(err)
		}
	}
	p := New(d, 16*256) // pressure: 16 frames for 64 pages
	var readers, writer sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pg := int64(rng.Intn(pages))
				h, err := p.PinPage("f", pg)
				if err != nil {
					t.Error(err)
					return
				}
				// The page must carry the right page number whatever epoch
				// it was written in ("f:NNNNNNNN" or "e<k>:NNNNNNNN").
				data := h.Data()
				want := fmt.Sprintf(":%08d", pg)
				if !bytes.Contains(data[:16], []byte(want)) {
					t.Errorf("torn or misplaced page %d: %q", pg, data[:16])
					h.Release()
					return
				}
				h.Release()
			}
		}(int64(w))
	}
	// Writer: overwrite random pages with new epochs; the disk hook
	// invalidates through the pool concurrently with the pins above.
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(99))
		buf := make([]byte, 256)
		for epoch := 0; epoch < 2000; epoch++ {
			pg := rng.Intn(pages)
			stamp(buf, fmt.Sprintf("e%d", epoch%7), pg)
			if err := d.WritePage("f", int64(pg), buf); err != nil {
				t.Error(err)
				return
			}
			if epoch%100 == 0 {
				p.InvalidateFile("f")
			}
		}
	}()
	writer.Wait() // writer finishes; then stop the readers
	close(stop)
	readers.Wait()
}

// TestPinPageZeroAllocs pins the acceptance criterion directly: a warm
// page fetch through the pool performs zero allocations.
func TestPinPageZeroAllocs(t *testing.T) {
	d := storage.NewDisk(512)
	fill(t, d, "f", 4)
	p := New(d, 16*512)
	for pg := 0; pg < 4; pg++ { // warm
		h, err := p.PinPage("f", int64(pg))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h, err := p.PinPage("f", 2)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm PinPage allocates %.1f times per op, want 0", allocs)
	}
	// The uncached pin is allocation-free too.
	allocs = testing.AllocsPerRun(1000, func() {
		h, err := d.PinPage("f", 2)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	})
	if allocs != 0 {
		t.Fatalf("Disk.PinPage allocates %.1f times per op, want 0", allocs)
	}
}

// TestSharedCacheAcrossDisks attaches two disks to one cache and checks
// keys never collide and the budget is shared.
func TestSharedCacheAcrossDisks(t *testing.T) {
	c := NewCache(1<<20, 256)
	d1 := storage.NewDisk(256)
	d2 := storage.NewDisk(256)
	fill(t, d1, "f", 4)
	fill(t, d2, "f", 4) // same file name, different disk
	p1, err := c.Attach(d1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Attach(d2)
	if err != nil {
		t.Fatal(err)
	}
	// Distinguish the two disks' contents.
	page := make([]byte, 256)
	copy(page, "disk2-only")
	if err := d2.WritePage("f", 0, page); err != nil {
		t.Fatal(err)
	}
	h1, err := p1.PinPage("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, h1.Data(), "f", 0)
	h1.Release()
	h2, err := p2.PinPage("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(h2.Data(), []byte("disk2-only")) {
		t.Fatalf("cross-disk key collision: %q", h2.Data()[:10])
	}
	h2.Release()
	// Page-size mismatch is rejected.
	if _, err := c.Attach(storage.NewDisk(4096)); err == nil {
		t.Fatal("attach with mismatched page size succeeded")
	}
}

// TestPoolReadPageMatchesDisk checks the copying PageReader methods agree
// with the bare disk byte-for-byte.
func TestPoolReadPageMatchesDisk(t *testing.T) {
	d := storage.NewDisk(256)
	fill(t, d, "f", 10)
	p := New(d, 4*256)
	bufD := make([]byte, 256)
	bufP := make([]byte, 256)
	for pg := int64(0); pg < 10; pg++ {
		nd, err := d.ReadPage("f", pg, bufD)
		if err != nil {
			t.Fatal(err)
		}
		np, err := p.ReadPage("f", pg, bufP)
		if err != nil {
			t.Fatal(err)
		}
		if nd != np || !bytes.Equal(bufD, bufP) {
			t.Fatalf("page %d: pool read diverges from disk", pg)
		}
	}
	big := make([]byte, 4*256)
	n, err := p.ReadPages("f", 7, 4, big)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ReadPages at tail returned %d pages, want 3 (clamped)", n)
	}
	checkPage(t, big[2*256:], "f", 9)
	if _, err := p.ReadPages("f", 100, 1, big); err == nil {
		t.Fatal("out-of-range ReadPages succeeded")
	}
	if _, err := p.PinPage("missing", 0); err == nil {
		t.Fatal("pin of missing file succeeded")
	}
	if p.PageSize() != 256 || !p.Exists("f") || p.Exists("missing") {
		t.Fatal("PageReader surface misbehaves")
	}
	if np, err := p.NumPages("f"); err != nil || np != 10 {
		t.Fatalf("NumPages = %d, %v", np, err)
	}
}

// TestPoolStats checks the StatsProvider contract: misses appear both as
// cache misses and as the disk reads they triggered; hits only as hits.
func TestPoolStats(t *testing.T) {
	d := storage.NewDisk(256)
	fill(t, d, "f", 6)
	p := New(d, 64*256)
	p.ResetStats()
	for pass := 0; pass < 2; pass++ {
		for pg := int64(0); pg < 6; pg++ {
			h, err := p.PinPage("f", pg)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	st := p.Stats()
	if st.CacheMisses != 6 || st.CacheHits != 6 {
		t.Fatalf("hits=%d misses=%d, want 6/6", st.CacheHits, st.CacheMisses)
	}
	if st.Reads() != 6 {
		t.Fatalf("disk reads = %d, want 6 (one per miss)", st.Reads())
	}
	if r := st.HitRatio(); r != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", r)
	}
	p.ResetStats()
	if st := p.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 || st.Reads() != 0 {
		t.Fatalf("ResetStats left %v", st)
	}
}

// TestScanPinZeroAllocs: a warm Scan cursor's Pin, the hit of every
// sequential scan, allocates nothing.
func TestScanPinZeroAllocs(t *testing.T) {
	d := storage.NewDisk(512)
	fill(t, d, "f", 4)
	p := New(d, 16*512)
	scanAll(t, p, "f", 0, 4) // warm
	cur := p.Scan("f", 0, 4)
	defer cur.Close()
	pg := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cur.Pin(pg % 4); err != nil {
			t.Fatal(err)
		}
		pg++
	})
	if allocs != 0 {
		t.Fatalf("warm cursor Pin allocates %.1f times per op, want 0", allocs)
	}
	if p.Misses() != 4 {
		t.Fatalf("%d misses, want only the 4 of the warming scan", p.Misses())
	}
}

// TestPageBeyondKeyIsAnError: a page number too large for a frame key is
// refused, never served from the frame of the page its low bits name.
func TestPageBeyondKeyIsAnError(t *testing.T) {
	d := storage.NewDisk(256)
	fill(t, d, "f", 4)
	p := New(d, 16*256)
	scanAll(t, p, "f", 0, 4) // page 1 is resident
	const alias = 1<<32 | 1
	if _, err := p.PinPage("f", alias); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("PinPage(%#x) = %v, want ErrOutOfRange", alias, err)
	}
	cur := p.Scan("f", 0, 1<<33)
	defer cur.Close()
	if _, err := cur.Pin(alias); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("cursor Pin(%#x) = %v, want ErrOutOfRange", alias, err)
	}
	if p.Hits() != 0 {
		t.Fatalf("%d hits on pages the file does not have", p.Hits())
	}
}

// benchPool is a pool holding every page of a 2 048-page file of 4 KB
// pages, warmed by one scan.
func benchPool(b *testing.B) *Pool {
	const pages = 2048
	d := storage.NewDisk(4096)
	fill(b, d, "f", pages)
	p := New(d, 2*pages*4096)
	scanAll(b, p, "f", 0, pages)
	return p
}

// BenchmarkPoolScanHit times one warm cursor pin: the hit of a scan.
func BenchmarkPoolScanHit(b *testing.B) {
	p := benchPool(b)
	cur := p.Scan("f", 0, 2048)
	defer cur.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cur.Pin(int64(i % 2048)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolPinHit times one warm PinPage and its release: the hit of a
// point probe.
func BenchmarkPoolPinHit(b *testing.B) {
	p := benchPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := p.PinPage("f", int64(i%2048))
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
}
