package storage_test

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync/atomic"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/fsx"
	"repro/internal/storage"
)

// The cursor conformance suite: PageReader.Scan on every reader a search can
// be handed — a disk on the heap medium, one on the host medium over the real
// filesystem and over MemFS, and a buffer pool over either — must return the bytes
// PinPage returns and, as long as the pool's bypass does not engage, leave
// the Stats that one PinPage per Pin leaves.

const (
	scanPageSize = 64
	scanPages    = 50
	scanFile     = "run/0001"
)

func scanStamp(page int64) []byte {
	p := make([]byte, scanPageSize)
	for i := range p {
		p[i] = byte(int(page)*7 + i)
	}
	return p
}

func scanFill(t testing.TB, b storage.Backend, name string, pages int) {
	t.Helper()
	if err := b.Create(name); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if _, err := b.AppendPage(name, scanStamp(int64(p))); err != nil {
			t.Fatal(err)
		}
	}
	b.ResetStats()
}

// scanReader is one reader under test with the backend beneath it.
type scanReader struct {
	r     storage.PageReader
	b     storage.Backend
	stats func() storage.Stats
}

// scanBackends builds one filled instance of every reader kind. Calling it
// twice gives twins: the cursor runs on one, PinPage on the other.
func scanBackends(t *testing.T, cacheFrames int64) map[string]scanReader {
	t.Helper()
	file := func(fsys fsx.FS, dir string) storage.Backend {
		fd, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: dir, PageSize: scanPageSize, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fd.Close() })
		return fd
	}
	out := map[string]scanReader{}
	bare := func(name string, b storage.Backend) {
		scanFill(t, b, scanFile, scanPages)
		out[name] = scanReader{r: b, b: b, stats: b.Stats}
	}
	pooled := func(name string, b storage.Backend) {
		scanFill(t, b, scanFile, scanPages)
		p := bufpool.New(b, cacheFrames*scanPageSize)
		out[name] = scanReader{r: p, b: b, stats: p.Stats}
	}
	bare("sim", storage.NewDisk(scanPageSize))
	bare("file-os", file(nil, t.TempDir()))
	bare("file-mem", file(fsx.NewMemFS(), "store"))
	pooled("pool-sim", storage.NewDisk(scanPageSize))
	pooled("pool-file", file(fsx.NewMemFS(), "store"))
	return out
}

func seq(from, to int64) []int64 {
	var out []int64
	for p := from; p < to; p++ {
		out = append(out, p)
	}
	return out
}

func TestScanCursorConformance(t *testing.T) {
	cases := []struct {
		name     string
		from, to int64
		pins     []int64
	}{
		{"ascending", 0, scanPages, seq(0, scanPages)}, // chunks 1,2,4,8,16,16 and a last short one
		{"sub-range", 7, 31, seq(7, 31)},
		{"gaps", 0, scanPages, []int64{0, 1, 2, 7, 8, 20, 21, 22, 23, 24, 40, 49}},
		{"repeated", 0, scanPages, []int64{3, 3, 4, 4, 4, 5, 5, 6, 7, 8, 8, 9}},
		{"backwards", 0, scanPages, []int64{10, 11, 12, 13, 11, 12, 2, 3}},
	}
	for _, tc := range cases {
		cur, pin := scanBackends(t, 4*scanPages), scanBackends(t, 4*scanPages)
		for kind, c := range cur {
			p := pin[kind]
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				// Two passes: the second runs over a warm pool.
				for pass := 0; pass < 2; pass++ {
					sc := c.r.Scan(scanFile, tc.from, tc.to)
					for _, page := range tc.pins {
						got, err := sc.Pin(page)
						if err != nil {
							t.Fatalf("pass %d Pin(%d): %v", pass, page, err)
						}
						h, err := p.r.PinPage(scanFile, page)
						if err != nil {
							t.Fatal(err)
						}
						if string(got) != string(h.Data()) || string(got) != string(scanStamp(page)) {
							t.Fatalf("pass %d page %d: cursor bytes differ from PinPage's", pass, page)
						}
						h.Release()
					}
					sc.Close()
					if cs, ps := c.stats(), p.stats(); cs != ps {
						t.Fatalf("pass %d: cursor stats %v, per-page stats %v", pass, cs, ps)
					}
				}
			})
		}
	}
}

func TestScanCursorErrors(t *testing.T) {
	cur, pin := scanBackends(t, 4*scanPages), scanBackends(t, 4*scanPages)
	for kind, c := range cur {
		p := pin[kind]
		t.Run(kind, func(t *testing.T) { cursorErrors(t, c, p) })
	}
}

// cursorErrors drives a cursor on c into each of its errors; p is c's twin,
// where PinPage is asked for the same pages. Conformance runs it too.
func cursorErrors(t *testing.T, c, p scanReader) {
	// A range declared past the end of the file: the pages that exist
	// are served, the first that does not is PinPage's error.
	sc := c.r.Scan(scanFile, 0, scanPages+10)
	if _, err := sc.Pin(scanPages - 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Pin(scanPages); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("Pin past EOF: %v, want ErrOutOfRange", err)
	}
	sc.Close()
	for _, page := range []int64{scanPages - 1, scanPages} {
		if h, err := p.r.PinPage(scanFile, page); err == nil {
			h.Release()
		}
	}
	if cs, ps := c.stats(), p.stats(); cs != ps {
		t.Fatalf("past EOF: cursor stats %v, per-page stats %v", cs, ps)
	}

	// A page outside the declared range is refused, not read.
	sc = c.r.Scan(scanFile, 5, 10)
	before := c.stats()
	for _, page := range []int64{4, 10, -1} {
		if _, err := sc.Pin(page); !errors.Is(err, storage.ErrOutOfRange) {
			t.Fatalf("Pin(%d) outside [5,10): %v, want ErrOutOfRange", page, err)
		}
	}
	if after := c.stats(); after != before {
		t.Fatalf("refused pins were accounted: %v -> %v", before, after)
	}
	sc.Close()

	// A file removed mid-scan: the next Pin fails as PinPage does,
	// even for a page the cursor has already read ahead.
	sc = c.r.Scan(scanFile, 0, scanPages)
	for _, page := range []int64{0, 1} {
		if _, err := sc.Pin(page); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.b.Remove(scanFile); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Pin(2); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Pin after Remove: %v, want ErrNotFound", err)
	}
	sc.Close()

	// A missing file fails at the first Pin.
	sc = c.r.Scan("no such file", 0, 4)
	if _, err := sc.Pin(0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Pin on a missing file: %v, want ErrNotFound", err)
	}
	sc.Close()
}

// TestScanCursorRecreatedFile: a name removed and created again mid-scan is
// another file; pages read ahead from the old one are not served for it.
func TestScanCursorRecreatedFile(t *testing.T) {
	for kind, c := range scanBackends(t, 4*scanPages) {
		t.Run(kind, func(t *testing.T) { cursorRecreated(t, c) })
	}
}

func cursorRecreated(t *testing.T, c scanReader) {
	sc := c.r.Scan(scanFile, 0, scanPages)
	defer sc.Close()
	for _, page := range []int64{0, 1} {
		if _, err := sc.Pin(page); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.b.Remove(scanFile); err != nil {
		t.Fatal(err)
	}
	if err := c.b.Create(scanFile); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 4; p++ {
		if _, err := c.b.AppendPage(scanFile, scanStamp(100+p)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sc.Pin(2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(scanStamp(102)) {
		t.Fatal("cursor served a page of the removed file")
	}
}

// TestScanBypassFileMatchesSim: with a cache smaller than the declared
// range the pool stops caching the scan's misses. The decision is the
// pool's and the chunking the backend's, so a pool over the file backend
// and one over the simulated disk still leave identical Stats.
func TestScanBypassFileMatchesSim(t *testing.T) {
	const frames = scanPages / 4
	rs := scanBackends(t, frames)
	sim, file := rs["pool-sim"], rs["pool-file"]
	drive := func(c scanReader) {
		// Point probes first: their pages are cached and a scan hits them.
		for _, page := range []int64{25, 12, 37} {
			h, err := c.r.PinPage(scanFile, page)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
		for pass := 0; pass < 2; pass++ {
			sc := c.r.Scan(scanFile, 0, scanPages)
			for page := int64(0); page < scanPages; page++ {
				if page%7 == 3 {
					continue
				}
				got, err := sc.Pin(page)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(scanStamp(page)) {
					t.Fatalf("page %d: wrong bytes", page)
				}
			}
			sc.Close()
		}
	}
	drive(sim)
	drive(file)
	ss, fs := sim.stats(), file.stats()
	if ss != fs {
		t.Fatalf("bypassed scan: sim stats %v, file stats %v", ss, fs)
	}
	// Two passes of 43 pins, three of them cached by the probes: the scan's
	// own misses were not kept, so the second pass hits nothing more.
	if ss.CacheHits != 2*3 || ss.CacheMisses != 3+2*40 {
		t.Fatalf("bypass did not engage: %v", ss)
	}
	for _, c := range []scanReader{sim, file} {
		if ev := c.r.(*bufpool.Pool).Cache().Evictions(); ev != 0 {
			t.Fatalf("a bypassed scan evicted %d pages", ev)
		}
	}
}

// countFS counts the positioned reads a FileDisk issues.
type countFS struct {
	fsx.FS
	reads, bytes atomic.Int64
}

type countFile struct {
	fsx.File
	fs *countFS
}

func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{File: f, fs: c}, nil
}

func (f countFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	f.fs.bytes.Add(int64(len(p)))
	return f.File.ReadAt(p, off)
}

func TestScanReadAhead(t *testing.T) {
	const pages = 500
	cfs := &countFS{FS: fsx.NewMemFS()}
	fd, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "store", PageSize: scanPageSize, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	scanFill(t, fd, scanFile, pages)
	scan := func(want func(page int64) bool) (consumed, reads, pagesRead int64) {
		cfs.reads.Store(0)
		cfs.bytes.Store(0)
		sc := fd.Scan(scanFile, 0, pages)
		defer sc.Close()
		for page := int64(0); page < pages; page++ {
			if !want(page) {
				continue
			}
			got, err := sc.Pin(page)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(scanStamp(page)) {
				t.Fatalf("page %d: wrong bytes", page)
			}
			consumed++
		}
		return consumed, cfs.reads.Load(), cfs.bytes.Load() / scanPageSize
	}

	// A full scan reads every page once, in a few dozen preads: the window
	// doubles to 16 pages in four steps and stays there.
	consumed, reads, read := scan(func(int64) bool { return true })
	if read != consumed || reads > pages/16+5 {
		t.Fatalf("full scan: %d pages consumed, %d read in %d preads", consumed, read, reads)
	}
	// A scan that skips never reads twice what it consumes.
	patterns := map[string]func(page int64) bool{
		"1-in-5":         func(p int64) bool { return p%5 == 0 },
		"3-of-7":         func(p int64) bool { return p%7 < 3 },
		"17-of-20":       func(p int64) bool { return p%20 < 17 },
		"33-then-a-hole": func(p int64) bool { return p%40 < 33 },
	}
	for name, want := range patterns {
		consumed, _, read := scan(want)
		if read > 2*consumed {
			t.Fatalf("%s: %d pages consumed, %d read", name, consumed, read)
		}
	}
}

// TestScanReadFaults: a failed or short pread fails the Pin that issued it,
// and no page of the failed chunk is served afterwards — the next Pin reads
// again.
func TestScanReadFaults(t *testing.T) {
	for _, fault := range []struct {
		name string
		err  error // what the hook returns
		want error // what the Pin must wrap
	}{
		{"error", fsx.ErrInjected, fsx.ErrInjected},
		{"short", io.EOF, io.ErrUnexpectedEOF},
	} {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pooled=%v", fault.name, pooled), func(t *testing.T) {
				mem := fsx.NewMemFS()
				fd, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "store", PageSize: scanPageSize, FS: mem})
				if err != nil {
					t.Fatal(err)
				}
				defer fd.Close()
				scanFill(t, fd, scanFile, scanPages)
				var r storage.PageReader = fd
				if pooled {
					r = bufpool.New(fd, 4*scanPages*scanPageSize)
				}
				var reads atomic.Int64
				mem.SetFaultHook(func(op, path string) error {
					if op == "read" && reads.Add(1) == 4 {
						return fault.err
					}
					return nil
				})
				defer mem.SetFaultHook(nil)
				sc := r.Scan(scanFile, 0, scanPages)
				defer sc.Close()
				// Preads 1..3 fetch pages [0], [1,2], [3..6]; the fourth,
				// for [7..14], fails.
				for page := int64(0); page < 7; page++ {
					if _, err := sc.Pin(page); err != nil {
						t.Fatalf("Pin(%d): %v", page, err)
					}
				}
				if _, err := sc.Pin(7); !errors.Is(err, fault.want) {
					t.Fatalf("Pin(7) on a failing read: %v, want %v", err, fault.want)
				}
				// Page 4 was in the buffer the failed read wrote over (a pool
				// has it in a frame by now).
				for _, page := range []int64{8, 7, 4} {
					before := reads.Load()
					got, err := sc.Pin(page)
					if err != nil {
						t.Fatalf("Pin(%d) after the fault: %v", page, err)
					}
					if string(got) != string(scanStamp(page)) {
						t.Fatalf("page %d after the fault: wrong bytes", page)
					}
					if !(pooled && page == 4) && reads.Load() == before {
						t.Fatalf("page %d was served from the failed chunk", page)
					}
				}
			})
		}
	}
}

// TestScanZeroAllocs: cursors and their buffers are pooled, so a scan in
// steady state allocates nothing, on any reader.
func TestScanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for kind, c := range scanBackends(t, scanPages/4) {
		scan := func() {
			sc := c.r.Scan(scanFile, 0, scanPages)
			for page := int64(0); page < scanPages; page++ {
				if _, err := sc.Pin(page); err != nil {
					t.Fatal(err)
				}
			}
			sc.Close()
		}
		scan()
		if n := testing.AllocsPerRun(50, scan); n >= 1 {
			t.Errorf("%s: %.1f allocs per scan, want 0", kind, n)
		}
	}
}
