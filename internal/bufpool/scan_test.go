package bufpool

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fsx"
	"repro/internal/storage"
)

// scanAll pins pages [from, to) of name through one cursor, checking every
// page's stamp.
func scanAll(t testing.TB, p *Pool, name string, from, to int) {
	t.Helper()
	cur := p.Scan(name, int64(from), int64(to))
	defer cur.Close()
	for pg := from; pg < to; pg++ {
		data, err := cur.Pin(int64(pg))
		if err != nil {
			t.Fatal(err)
		}
		checkPage(t, data, name, pg)
	}
}

// TestScanKeepsARangeThatFits: a scan of no more pages than the cache has
// frames fills the cache as it goes, so the next scan hits every page.
func TestScanKeepsARangeThatFits(t *testing.T) {
	d := storage.NewDisk(128)
	fill(t, d, "f", 40)
	p := New(d, 40*128)
	scanAll(t, p, "f", 0, 40)
	if p.Hits() != 0 || p.Misses() != 40 {
		t.Fatalf("cold scan: %d hits, %d misses", p.Hits(), p.Misses())
	}
	scanAll(t, p, "f", 0, 40)
	if p.Hits() != 40 || p.Misses() != 40 {
		t.Fatalf("warm scan: %d hits, %d misses", p.Hits(), p.Misses())
	}
	if st := p.Stats(); st.Reads() != 40 {
		t.Fatalf("disk reads %d, want one per miss", st.Reads())
	}
}

// TestScanBypassesARangeThatCannotFit: a scan of more pages than the cache
// has frames leaves the cache as it found it — what point probes and
// shorter scans made resident stays resident, and nothing is evicted.
func TestScanBypassesARangeThatCannotFit(t *testing.T) {
	d := storage.NewDisk(128)
	fill(t, d, "long", 200)
	fill(t, d, "short", 20)
	p := New(d, 64*128)
	scanAll(t, p, "short", 0, 20)
	for _, pg := range []int64{100, 50, 150} {
		h, err := p.PinPage("long", pg)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	p.ResetStats()
	for pass := 0; pass < 3; pass++ {
		scanAll(t, p, "long", 0, 200)
	}
	if p.Hits() != 3*3 || p.Misses() != 3*197 {
		t.Fatalf("long scans: %d hits, %d misses; want the 3 probed pages to hit and nothing else", p.Hits(), p.Misses())
	}
	if st := p.Stats(); st.Reads() != p.Misses() {
		t.Fatalf("%d disk reads for %d misses", st.Reads(), p.Misses())
	}
	scanAll(t, p, "short", 0, 20)
	if p.Hits() != 3*3+20 {
		t.Fatalf("the short file was flushed by the long scans: %d hits", p.Hits())
	}
	if ev := p.Cache().Evictions(); ev != 0 {
		t.Fatalf("%d evictions", ev)
	}
}

// TestScanStopsCachingAfterInvalidation: a scan reads outside the stripe
// lock, so bytes it fetched before an invalidation must not enter the cache
// after it.
func TestScanStopsCachingAfterInvalidation(t *testing.T) {
	d := storage.NewDisk(128)
	fill(t, d, "f", 8)
	p := New(d, 64*128)
	cur := p.Scan("f", 0, 8)
	if _, err := cur.Pin(0); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 128)
	stamp(page, "g", 5)
	if err := d.WritePage("f", 5, page); err != nil { // invalidates through the hook
		t.Fatal(err)
	}
	for pg := int64(1); pg < 8; pg++ {
		if _, err := cur.Pin(pg); err != nil {
			t.Fatal(err)
		}
	}
	cur.Close()
	p.ResetStats()
	cur = p.Scan("f", 0, 8)
	defer cur.Close()
	for pg := int64(0); pg < 8; pg++ {
		if _, err := cur.Pin(pg); err != nil {
			t.Fatal(err)
		}
	}
	if p.Hits() != 1 {
		t.Fatalf("%d hits after an invalidated scan, want only page 0 (cached before the write)", p.Hits())
	}
}

// sameStripe returns n pages of name, from `from` up, that share a lock
// stripe with (name, anchor).
func sameStripe(t testing.TB, p *Pool, name string, anchor, from int64, n int) []int64 {
	t.Helper()
	id, err := p.intern(name)
	if err != nil {
		t.Fatal(err)
	}
	stripe := func(page int64) *cacheShard {
		k, err := frameKey(name, id, page)
		if err != nil {
			t.Fatal(err)
		}
		return p.c.shardFor(k)
	}
	sh := stripe(anchor)
	var out []int64
	for pg := from; len(out) < n; pg++ {
		if stripe(pg) == sh {
			out = append(out, pg)
		}
	}
	return out
}

// TestScanMissDoesNotBlockStripe: while a scan's miss is inside its pread,
// pins that hit the same stripe go through. The pread is held open by a
// MemFS read hook until every hitter has finished.
func TestScanMissDoesNotBlockStripe(t *testing.T) {
	const pages = 400
	mem := fsx.NewMemFS()
	fd, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "store", PageSize: 128, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if err := fd.Create("f"); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 128)
	for pg := 0; pg < pages; pg++ {
		stamp(page, "f", pg)
		if _, err := fd.AppendPage("f", page); err != nil {
			t.Fatal(err)
		}
	}
	p := New(fd, 64*128)
	const hot = 3
	h, err := p.PinPage("f", hot) // resident from here on
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	cold := sameStripe(t, p, "f", hot, 100, 8)

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	mem.SetFaultHook(func(op, path string) error {
		if op == "read" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return nil
	})
	defer mem.SetFaultHook(nil)

	var scanner sync.WaitGroup
	scanner.Add(1)
	go func() {
		defer scanner.Done()
		cur := p.Scan("f", 0, pages)
		defer cur.Close()
		for _, pg := range cold {
			data, err := cur.Pin(pg)
			if err != nil {
				t.Error(err)
				return
			}
			checkPage(t, data, "f", int(pg))
		}
	}()
	<-entered // the scan's first miss is in its pread, on hot's stripe

	hitters := make(chan struct{})
	go func() {
		defer close(hitters)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					h, err := p.PinPage("f", hot)
					if err != nil {
						t.Error(err)
						return
					}
					checkPage(t, h.Data(), "f", hot)
					h.Release()
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-hitters:
	case <-time.After(10 * time.Second):
		t.Error("hits on the stripe waited for the scan's pread")
	}
	close(release)
	scanner.Wait()
	<-hitters
}

// TestConcurrentScans runs caching scans, a bypassing scan, point hits and
// invalidations over the same pages under the race detector.
func TestConcurrentScans(t *testing.T) {
	const pages = 96
	d := storage.NewDisk(128)
	fill(t, d, "f", pages)
	p := New(d, 48*128)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch g % 3 {
				case 0: // fits: cached
					scanAll(t, p, "f", 8*g, 8*g+40)
				case 1: // does not fit: bypasses
					scanAll(t, p, "f", 0, pages)
				default:
					for pg := 0; pg < pages; pg += 5 {
						h, err := p.PinPage("f", int64(pg))
						if err != nil {
							t.Error(err)
							return
						}
						checkPage(t, h.Data(), "f", pg)
						h.Release()
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			p.InvalidatePage("f", int64(i%pages))
			if i%50 == 0 {
				p.InvalidateFile("f")
			}
		}
	}()
	wg.Wait()
}

// fillStamped creates a file of n pages on d stamped as if they were the
// pages of file label, so a reader can tell two files of one name apart.
func fillStamped(t testing.TB, d *storage.Disk, name, label string, n int) {
	t.Helper()
	if err := d.Create(name); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, d.PageSize())
	for p := 0; p < n; p++ {
		stamp(page, label, p)
		if _, err := d.AppendPage(name, page); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecreatedFileMissesOldFrames: a name that comes back — created again
// after a remove, or renamed onto after one — names a new file, which
// misses every page and reads its own bytes, also through a cursor opened
// on the old file. And a pool under CLSM's run churn interns only the files
// that are live.
func TestRecreatedFileMissesOldFrames(t *testing.T) {
	const pages = 8
	for _, tc := range []struct {
		name       string
		rename     bool // the new file arrives by a rename onto the freed name
		openBefore bool // a cursor is opened on the old file before the remove
	}{
		{"recreate", false, false},
		{"rename onto", true, false},
		{"recreate, cursor open", false, true},
		{"rename onto, cursor open", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := storage.NewDisk(128)
			fill(t, d, "f", pages)
			p := New(d, 64*128)
			scanAll(t, p, "f", 0, pages) // every page of the old file resident
			var old storage.Cursor
			if tc.openBefore {
				old = p.Scan("f", 0, pages)
				defer old.Close()
				data, err := old.Pin(0)
				if err != nil {
					t.Fatal(err)
				}
				checkPage(t, data, "f", 0)
			}
			if err := d.Remove("f"); err != nil {
				t.Fatal(err)
			}
			if tc.rename {
				fillStamped(t, d, "g", "new", pages)
				if err := d.Rename("g", "f"); err != nil {
					t.Fatal(err)
				}
			} else {
				fillStamped(t, d, "f", "new", pages)
			}
			p.ResetStats()
			if old != nil {
				for pg := 0; pg < pages; pg++ {
					data, err := old.Pin(int64(pg))
					if err != nil {
						t.Fatal(err)
					}
					checkPage(t, data, "new", pg)
				}
				if p.Hits() != 0 || p.Misses() != pages {
					t.Fatalf("old cursor on the new file: %d hits, %d misses", p.Hits(), p.Misses())
				}
				p.ResetStats()
			}
			cur := p.Scan("f", 0, pages)
			for pg := 0; pg < pages; pg++ {
				data, err := cur.Pin(int64(pg))
				if err != nil {
					t.Fatal(err)
				}
				checkPage(t, data, "new", pg)
			}
			cur.Close()
			h, err := p.PinPage("f", pages-1)
			if err != nil {
				t.Fatal(err)
			}
			checkPage(t, h.Data(), "new", pages-1)
			h.Release()
			if p.Hits() != 1 || p.Misses() != pages {
				t.Fatalf("new file: %d hits, %d misses; want a miss a page, then a hit", p.Hits(), p.Misses())
			}
		})
	}

	t.Run("churn", func(t *testing.T) {
		d := storage.NewDisk(128)
		fill(t, d, "base", pages)
		p := New(d, 64*128)
		scanAll(t, p, "base", 0, pages)
		for i := 0; i < 1000; i++ {
			name := fmt.Sprintf("run-%d", i%3) // names come back, as run slots do
			fill(t, d, name, 2)
			scanAll(t, p, name, 0, 2)
			if err := d.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		if files := *p.files.Load(); len(files) != 1 || files["base"] == 0 {
			t.Fatalf("intern table after the churn: %v, want only the live file", files)
		}
		if p.Misses() != pages+2*1000 {
			t.Fatalf("%d misses, want one per page of every file", p.Misses())
		}
	})
}
