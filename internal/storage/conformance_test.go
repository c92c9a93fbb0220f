package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fsx"
	"repro/internal/storage"
)

// The backend conformance suite: everything a storage.Backend promises,
// asserted once and run over every medium a Disk can be built on — the
// heap, host files on the real filesystem, host files on MemFS. A case that
// needs the host side (a directory in the way, an injected fault) skips
// itself on the heap.

// host is the host side of a backend under test: the directory its page
// files live in and the fault switch on the filesystem beneath it.
type host struct {
	dir string
	fs  *faultFS
}

// path is where the medium keeps a logical file (see fsdisk.go).
func (h *host) path(name string) string {
	return filepath.Join(h.dir, url.PathEscape(name)+".cpg")
}

// faultFS fails the named operation ("create", "remove", "rename",
// "syncdir", "read", "write", "sync") for as long as it is set in fail, and
// passes everything else through.
type faultFS struct {
	fsx.FS
	mu   sync.Mutex
	fail string
}

func (f *faultFS) set(op string) {
	f.mu.Lock()
	f.fail = op
	f.mu.Unlock()
}

func (f *faultFS) check(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail == op {
		return fsx.ErrInjected
	}
	return nil
}

func (f *faultFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	if err := f.check("create"); err != nil {
		return nil, err
	}
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{File: h, fs: f}, nil
}

func (f *faultFS) Remove(name string) error {
	if err := f.check("remove"); err != nil {
		return err
	}
	return f.FS.Remove(name)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.check("rename"); err != nil {
		return err
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *faultFS) SyncDir(name string) error {
	if err := f.check("syncdir"); err != nil {
		return err
	}
	return f.FS.SyncDir(name)
}

type faultFile struct {
	fsx.File
	fs *faultFS
}

func (f faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.check("read"); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.check("write"); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f faultFile) Sync() error {
	if err := f.fs.check("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

const confPageSize = scanPageSize

func TestConformance(t *testing.T) {
	onHost := func(fsys fsx.FS, dir func(t *testing.T) string) func(t *testing.T) (storage.Backend, *host) {
		return func(t *testing.T) (storage.Backend, *host) {
			h := &host{dir: dir(t), fs: &faultFS{FS: fsys}}
			fd, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: h.dir, PageSize: confPageSize, FS: h.fs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fd.Close() })
			return fd, h
		}
	}
	// Either constructor reads a page size of zero as the default.
	fd, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "store", FS: fsx.NewMemFS()})
	must(t, err)
	if h, f := storage.NewDisk(0).PageSize(), fd.PageSize(); h != storage.DefaultPageSize || f != storage.DefaultPageSize {
		t.Fatalf("default page sizes %d and %d, want %d", h, f, storage.DefaultPageSize)
	}
	must(t, fd.Close())
	t.Run("heap", func(t *testing.T) {
		Conformance(t, func(*testing.T) (storage.Backend, *host) { return storage.NewDisk(confPageSize), nil })
	})
	t.Run("host-os", func(t *testing.T) {
		Conformance(t, onHost(fsx.OS, func(t *testing.T) string { return t.TempDir() }))
	})
	t.Run("host-mem", func(t *testing.T) {
		mem, n := fsx.NewMemFS(), 0
		Conformance(t, onHost(mem, func(*testing.T) string { n++; return fmt.Sprintf("store-%d", n) }))
	})
}

// Conformance runs every case against fresh backends from newBackend, which
// returns a nil host for a medium that has none.
func Conformance(t *testing.T, newBackend func(t *testing.T) (storage.Backend, *host)) {
	cases := []struct {
		name string
		run  func(t *testing.T, b storage.Backend, h *host)
	}{
		{"namespace", confNamespace},
		{"obstructed-create", confObstructed},
		{"pages", confPages},
		{"bulk", confBulk},
		{"accounting", confAccounting},
		{"faults-not-accounted", confFaultsNotAccounted},
		{"invalidation", confInvalidation},
		{"pin-snapshot", confPinSnapshot},
		{"concurrent-readers", confConcurrent},
		{"failed-remove", confFailedRemove},
		{"closed", confClosed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, h := newBackend(t)
			tc.run(t, b, h)
		})
	}
	twin := func(t *testing.T) scanReader {
		b, _ := newBackend(t)
		scanFill(t, b, scanFile, scanPages)
		return scanReader{r: b, b: b, stats: b.Stats}
	}
	t.Run("cursor-errors", func(t *testing.T) { cursorErrors(t, twin(t), twin(t)) })
	t.Run("cursor-recreated-file", func(t *testing.T) { cursorRecreated(t, twin(t)) })
	t.Run("snapshot", func(t *testing.T) {
		b, _ := newBackend(t)
		confSnapshot(t, b)
	})
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func wantErr(t *testing.T, what string, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("%s: err = %v, want %v", what, err, want)
	}
}

func numPages(t *testing.T, b storage.Backend, name string) int64 {
	t.Helper()
	n, err := b.NumPages(name)
	must(t, err)
	return n
}

func confNamespace(t *testing.T, b storage.Backend, _ *host) {
	if b.PageSize() != confPageSize {
		t.Fatalf("page size = %d", b.PageSize())
	}
	const odd = "runs/level-0?x=1 %2F" // needs escaping on a host medium
	must(t, b.Create("a"))
	must(t, b.Create(odd))
	wantErr(t, "create existing", b.Create("a"), storage.ErrExists)
	if !b.Exists("a") || !b.Exists(odd) || b.Exists("b") {
		t.Fatal("Exists wrong")
	}
	if got := b.Files(); !reflect.DeepEqual(got, []string{"a", odd}) {
		t.Fatalf("Files = %q", got)
	}
	wantErr(t, "remove missing", b.Remove("b"), storage.ErrNotFound)
	wantErr(t, "rename missing", b.Rename("b", "c"), storage.ErrNotFound)
	wantErr(t, "rename onto existing", b.Rename("a", odd), storage.ErrExists)
	_, err := b.NumPages("b")
	wantErr(t, "NumPages missing", err, storage.ErrNotFound)

	_, err = b.AppendPage("a", []byte("kept"))
	must(t, err)
	must(t, b.Rename("a", "b"))
	if b.Exists("a") || !b.Exists("b") || numPages(t, b, "b") != 1 {
		t.Fatal("rename did not move the file")
	}
	buf := make([]byte, confPageSize)
	_, err = b.ReadPage("b", 0, buf)
	must(t, err)
	if string(buf[:4]) != "kept" {
		t.Fatal("rename lost the page")
	}
	must(t, b.Create("a")) // the old name is free again
	must(t, b.Remove("b"))
	wantErr(t, "remove twice", b.Remove("b"), storage.ErrNotFound)
	if got := b.Files(); !reflect.DeepEqual(got, []string{"a", odd}) {
		t.Fatalf("Files = %q", got)
	}
	if b.TotalPages() != 0 {
		t.Fatalf("TotalPages = %d", b.TotalPages())
	}
}

// confObstructed: a directory sits where the medium would put the file.
func confObstructed(t *testing.T, b storage.Backend, h *host) {
	if h == nil {
		t.Skip("no host path to obstruct")
	}
	must(t, h.fs.MkdirAll(h.path("blocked"), 0o755))
	if err := b.Create("blocked"); err == nil {
		t.Fatal("Create over a directory succeeded")
	}
	if b.Exists("blocked") || len(b.Files()) != 0 {
		t.Fatal("a failed Create left a name behind")
	}
	must(t, b.Create("free"))
}

func confPages(t *testing.T, b storage.Backend, _ *host) {
	must(t, b.Create("f"))
	page, err := b.AppendPage("f", []byte("hello"))
	must(t, err)
	if page != 0 {
		t.Fatalf("first page = %d", page)
	}
	buf := bytes.Repeat([]byte{0xEE}, confPageSize)
	n, err := b.ReadPage("f", 0, buf)
	must(t, err)
	if n != confPageSize || string(buf[:5]) != "hello" || !bytes.Equal(buf[5:], make([]byte, confPageSize-5)) {
		t.Fatalf("short data was not zero-padded to a page: %d %q", n, buf)
	}
	// A short buffer gets a prefix, a long one exactly a page.
	n, err = b.ReadPage("f", 0, buf[:3])
	must(t, err)
	if n != 3 || string(buf[:3]) != "hel" {
		t.Fatalf("short buffer: %d %q", n, buf[:3])
	}
	long := bytes.Repeat([]byte{0xEE}, confPageSize+8)
	n, err = b.ReadPage("f", 0, long)
	must(t, err)
	if n != confPageSize || !bytes.Equal(long[confPageSize:], bytes.Repeat([]byte{0xEE}, 8)) {
		t.Fatalf("long buffer: read %d bytes, tail %x", n, long[confPageSize:])
	}

	must(t, b.WritePage("f", 0, []byte("world"))) // overwrite
	must(t, b.WritePage("f", 1, []byte("x")))     // one past the end appends
	if numPages(t, b, "f") != 2 {
		t.Fatalf("pages = %d, want 2", numPages(t, b, "f"))
	}
	_, err = b.ReadPage("f", 0, buf)
	must(t, err)
	if string(buf[:5]) != "world" || buf[5] != 0 {
		t.Fatalf("overwrite: %q", buf[:8])
	}
	wantErr(t, "write past the append position", b.WritePage("f", 3, []byte("x")), storage.ErrOutOfRange)
	wantErr(t, "write at a negative page", b.WritePage("f", -1, []byte("x")), storage.ErrOutOfRange)
	wantErr(t, "write to a missing file", b.WritePage("g", 0, []byte("x")), storage.ErrNotFound)
	if err := b.WritePage("f", 0, make([]byte, confPageSize+1)); err == nil {
		t.Fatal("oversized write succeeded")
	}
	if _, err := b.AppendPage("f", make([]byte, confPageSize+1)); err == nil {
		t.Fatal("oversized append succeeded")
	}
	_, err = b.AppendPage("g", nil)
	wantErr(t, "append to a missing file", err, storage.ErrNotFound)
	for _, page := range []int64{2, -1} {
		_, err = b.ReadPage("f", page, buf)
		wantErr(t, "read out of range", err, storage.ErrOutOfRange)
		_, err = b.PinPage("f", page)
		wantErr(t, "pin out of range", err, storage.ErrOutOfRange)
	}
	_, err = b.ReadPage("g", 0, buf)
	wantErr(t, "read a missing file", err, storage.ErrNotFound)
	_, err = b.PinPage("g", 0)
	wantErr(t, "pin a missing file", err, storage.ErrNotFound)
	if numPages(t, b, "f") != 2 || b.TotalPages() != 2 {
		t.Fatal("a refused write grew the file")
	}
}

func confBulk(t *testing.T, b storage.Backend, _ *host) {
	must(t, b.Create("f"))
	data := make([]byte, 3*confPageSize+10) // three pages and a partial one
	for i := range data {
		data[i] = byte(i)
	}
	first, err := b.AppendPages("f", data)
	must(t, err)
	if first != 0 || numPages(t, b, "f") != 4 {
		t.Fatalf("first = %d, pages = %d", first, numPages(t, b, "f"))
	}
	first, err = b.AppendPages("f", nil) // nothing to append: no page, no access
	must(t, err)
	if first != 4 || numPages(t, b, "f") != 4 {
		t.Fatalf("empty append: first = %d, pages = %d", first, numPages(t, b, "f"))
	}
	first, err = b.AppendPages("f", data[:confPageSize])
	must(t, err)
	if first != 4 || numPages(t, b, "f") != 5 {
		t.Fatalf("second append: first = %d, pages = %d", first, numPages(t, b, "f"))
	}

	buf := make([]byte, 8*confPageSize)
	got, err := b.ReadPages("f", 0, 4, buf)
	must(t, err)
	want := append(append([]byte{}, data...), make([]byte, confPageSize-10)...)
	if got != 4 || !bytes.Equal(buf[:4*confPageSize], want) {
		t.Fatalf("read %d pages, or the wrong bytes", got)
	}
	got, err = b.ReadPages("f", 3, 8, buf) // clamped at the end of the file
	must(t, err)
	if got != 2 || !bytes.Equal(buf[confPageSize:2*confPageSize], data[:confPageSize]) {
		t.Fatalf("clamped read = %d pages", got)
	}
	before := b.Stats()
	got, err = b.ReadPages("f", 1, 0, buf)
	must(t, err)
	if got != 0 || b.Stats() != before {
		t.Fatalf("a read of no pages read %d, stats %v -> %v", got, before, b.Stats())
	}
	_, err = b.ReadPages("g", 0, 1, buf)
	wantErr(t, "bulk read of a missing file", err, storage.ErrNotFound)
	_, err = b.ReadPages("f", 5, 1, buf)
	wantErr(t, "bulk read from the end", err, storage.ErrOutOfRange)
	if _, err := b.ReadPages("f", 0, 4, buf[:10]); err == nil {
		t.Fatal("bulk read into a short buffer succeeded")
	}
	_, err = b.AppendPages("g", data)
	wantErr(t, "bulk append to a missing file", err, storage.ErrNotFound)
}

type access struct {
	file  string
	page  int64
	write bool
}

type recorder struct {
	mu       sync.Mutex
	accesses []access
	pages    []access // InvalidatePage calls
	files    []string // InvalidateFile calls
}

func (r *recorder) Access(file string, page int64, write bool) {
	r.mu.Lock()
	r.accesses = append(r.accesses, access{file, page, write})
	r.mu.Unlock()
}
func (r *recorder) InvalidatePage(name string, page int64) {
	r.pages = append(r.pages, access{file: name, page: page})
}
func (r *recorder) InvalidateFile(name string) { r.files = append(r.files, name) }

// confAccounting runs a fixed access script: the Stats and the trace it
// leaves are the same on every medium, and an access that was refused
// leaves none.
func confAccounting(t *testing.T, b storage.Backend, _ *host) {
	rec := &recorder{}
	b.SetTracer(rec)
	page := make([]byte, confPageSize)
	buf := make([]byte, 8*confPageSize)
	must(t, b.Create("f"))
	must(t, b.Create("g"))
	for i := 0; i < 3; i++ { // f: one head movement, two sequential writes
		_, err := b.AppendPage("f", page)
		must(t, err)
	}
	_, err := b.AppendPages("g", buf[:2*confPageSize+1]) // g: the same, for three pages
	must(t, err)
	must(t, b.WritePage("f", 1, page))   // back to f: random
	must(t, b.WritePage("f", 2, page))   // sequential
	must(t, b.WritePage("f", 3, page))   // sequential, and an append
	for _, p := range []int64{0, 0, 1} { // random, then a repeat and a successor
		_, err = b.ReadPage("f", p, buf)
		must(t, err)
	}
	got, err := b.ReadPages("g", 1, 5, buf) // g:1 random, g:2 sequential
	must(t, err)
	if got != 2 {
		t.Fatalf("ReadPages = %d", got)
	}
	h, err := b.PinPage("g", 0) // backwards: random
	must(t, err)
	h.Release()
	sc := b.Scan("f", 0, 4)
	for _, p := range []int64{0, 1, 3} { // random, sequential, random
		_, err = sc.Pin(p)
		must(t, err)
	}

	want := storage.Stats{SeqReads: 4, RandReads: 5, SeqWrites: 6, RandWrites: 3}
	if got := b.Stats(); got != want {
		t.Fatalf("stats = %v, want %v", got, want)
	}
	wantTrace := []access{
		{"f", 0, true}, {"f", 1, true}, {"f", 2, true},
		{"g", 0, true}, {"g", 1, true}, {"g", 2, true},
		{"f", 1, true}, {"f", 2, true}, {"f", 3, true},
		{"f", 0, false}, {"f", 0, false}, {"f", 1, false},
		{"g", 1, false}, {"g", 2, false}, {"g", 0, false},
		{"f", 0, false}, {"f", 1, false}, {"f", 3, false},
	}
	if !reflect.DeepEqual(rec.accesses, wantTrace) {
		t.Fatalf("trace = %v\nwant    %v", rec.accesses, wantTrace)
	}

	// Nothing refused is accounted or traced.
	b.ReadPage("f", 9, buf)
	b.ReadPage("missing", 0, buf)
	b.ReadPages("f", 0, 4, buf[:1])
	b.PinPage("f", -1)
	b.WritePage("f", 9, page)
	b.WritePage("f", 0, buf)
	b.AppendPage("missing", page)
	b.AppendPages("f", nil)
	sc.Pin(4)
	sc.Close()
	if got := b.Stats(); got != want || len(rec.accesses) != len(wantTrace) {
		t.Fatalf("refused accesses were accounted: stats %v, %d traced", got, len(rec.accesses))
	}

	// A reset parks the head: the page it sat on is a random access again.
	b.ResetStats()
	_, err = b.ReadPage("f", 3, buf)
	must(t, err)
	if got := b.Stats(); got != (storage.Stats{RandReads: 1}) {
		t.Fatalf("after ResetStats: %v", got)
	}
	// So does removing the file under the head.
	must(t, b.Remove("f"))
	must(t, b.Create("f"))
	b.SetTracer(nil)
	_, err = b.AppendPage("f", page)
	must(t, err)
	if got := b.Stats(); got != (storage.Stats{RandReads: 1, RandWrites: 1}) {
		t.Fatalf("after Remove and Create: %v", got)
	}
	if len(rec.accesses) != len(wantTrace)+1 {
		t.Fatal("a removed tracer was called")
	}
}

// confFaultsNotAccounted: an access the medium fails did not happen.
func confFaultsNotAccounted(t *testing.T, b storage.Backend, h *host) {
	if h == nil {
		t.Skip("the heap medium cannot fail an access")
	}
	rec := &recorder{}
	b.SetTracer(rec)
	scanFill(t, b, "f", 4)
	buf := make([]byte, 4*confPageSize)

	h.fs.set("write")
	_, err := b.AppendPage("f", buf[:confPageSize])
	wantErr(t, "AppendPage", err, fsx.ErrInjected)
	_, err = b.AppendPages("f", buf)
	wantErr(t, "AppendPages", err, fsx.ErrInjected)
	wantErr(t, "WritePage", b.WritePage("f", 0, buf[:confPageSize]), fsx.ErrInjected)
	h.fs.set("read")
	_, err = b.ReadPage("f", 0, buf)
	wantErr(t, "ReadPage", err, fsx.ErrInjected)
	_, err = b.ReadPages("f", 0, 4, buf)
	wantErr(t, "ReadPages", err, fsx.ErrInjected)
	_, err = b.PinPage("f", 0)
	wantErr(t, "PinPage", err, fsx.ErrInjected)
	sc := b.Scan("f", 0, 4)
	_, err = sc.Pin(0)
	wantErr(t, "cursor Pin", err, fsx.ErrInjected)
	h.fs.set("")

	if got := b.Stats(); got != (storage.Stats{}) || len(rec.accesses) != 4 {
		t.Fatalf("failed accesses were accounted: %v, %d traced", got, len(rec.accesses))
	}
	if numPages(t, b, "f") != 4 {
		t.Fatalf("a failed append left %d pages", numPages(t, b, "f"))
	}
	got, err := sc.Pin(0)
	must(t, err)
	if !bytes.Equal(got, scanStamp(0)) {
		t.Fatal("a failed overwrite changed the page")
	}
	sc.Close()
}

func confInvalidation(t *testing.T, b storage.Backend, _ *host) {
	rec := &recorder{}
	b.AddInvalidator(rec)
	page := make([]byte, confPageSize)
	must(t, b.Create("f"))
	_, err := b.AppendPage("f", page)
	must(t, err)
	_, err = b.AppendPages("f", make([]byte, 2*confPageSize))
	must(t, err)
	must(t, b.WritePage("f", 3, page)) // an append by another name
	if len(rec.pages) != 0 || len(rec.files) != 0 {
		t.Fatalf("appends invalidated: %v %v", rec.pages, rec.files)
	}
	must(t, b.WritePage("f", 2, page))
	if !reflect.DeepEqual(rec.pages, []access{{file: "f", page: 2}}) {
		t.Fatalf("overwrite invalidated %v", rec.pages)
	}
	// Refused operations invalidate nothing.
	b.WritePage("f", 9, page)
	b.Remove("g")
	b.Rename("g", "h")
	must(t, b.Create("g"))
	b.Rename("f", "g")
	if len(rec.pages) != 1 || len(rec.files) != 0 {
		t.Fatalf("refused operations invalidated: %v %v", rec.pages, rec.files)
	}
	must(t, b.Rename("f", "h"))
	must(t, b.Remove("g"))
	if !reflect.DeepEqual(rec.files, []string{"f", "g"}) {
		t.Fatalf("Rename and Remove invalidated %v", rec.files)
	}
}

// confPinSnapshot: a pinned page keeps the bytes it was pinned with.
func confPinSnapshot(t *testing.T, b storage.Backend, _ *host) {
	scanFill(t, b, "f", 2)
	h0, err := b.PinPage("f", 0)
	must(t, err)
	h1, err := b.PinPage("f", 1)
	must(t, err)
	if got := b.Stats(); got != (storage.Stats{RandReads: 1, SeqReads: 1}) {
		t.Fatalf("pins accounted as %v", got)
	}
	must(t, b.WritePage("f", 0, scanStamp(7)))
	must(t, b.Remove("f"))
	if !bytes.Equal(h0.Data(), scanStamp(0)) || !bytes.Equal(h1.Data(), scanStamp(1)) {
		t.Fatal("a pinned page changed under its holder")
	}
	h0.Release()
	h1.Release()
}

func confConcurrent(t *testing.T, b storage.Backend, _ *host) {
	const pages, workers, rounds = 32, 4, 50
	scanFill(t, b, "f", pages)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, confPageSize)
			for i := 0; i < rounds; i++ {
				page := int64((w*7 + i*3) % pages)
				if _, err := b.ReadPage("f", page, buf); err != nil || !bytes.Equal(buf, scanStamp(page)) {
					t.Errorf("ReadPage(%d): %v", page, err)
					return
				}
				h, err := b.PinPage("f", page)
				if err != nil || !bytes.Equal(h.Data(), scanStamp(page)) {
					t.Errorf("PinPage(%d): %v", page, err)
					return
				}
				h.Release()
				sc := b.Scan("f", 0, pages)
				got, err := sc.Pin(page)
				if err != nil || !bytes.Equal(got, scanStamp(page)) {
					t.Errorf("cursor Pin(%d): %v", page, err)
				}
				sc.Close()
			}
		}(w)
	}
	wg.Wait()
	if got := b.Stats().Reads(); got != 3*workers*rounds {
		t.Fatalf("reads = %d, want %d", got, 3*workers*rounds)
	}
}

// confFailedRemove: a Remove the host fails leaves the file whole — it
// reads, grows and closes as before — or, when only the directory sync
// failed, gone: never a name whose handle is closed.
func confFailedRemove(t *testing.T, b storage.Backend, h *host) {
	if h == nil {
		t.Skip("the heap medium cannot fail a Remove")
	}
	scanFill(t, b, "kept", 2)
	scanFill(t, b, "gone", 2)
	rec := &recorder{}
	b.AddInvalidator(rec)

	h.fs.set("remove")
	wantErr(t, "Remove", b.Remove("kept"), fsx.ErrInjected)
	h.fs.set("")
	if !b.Exists("kept") || len(rec.files) != 0 {
		t.Fatal("a failed Remove took the name, or invalidated it")
	}
	buf := make([]byte, confPageSize)
	_, err := b.ReadPage("kept", 1, buf)
	must(t, err)
	if !bytes.Equal(buf, scanStamp(1)) {
		t.Fatal("wrong bytes after a failed Remove")
	}
	_, err = b.AppendPage("kept", buf)
	must(t, err)

	h.fs.set("syncdir")
	wantErr(t, "Remove", b.Remove("gone"), fsx.ErrInjected)
	h.fs.set("")
	if b.Exists("gone") || !reflect.DeepEqual(rec.files, []string{"gone"}) {
		t.Fatalf("a Remove whose directory sync failed left the name, or a cache entry: %v", rec.files)
	}
	must(t, b.Create("gone"))
	must(t, b.Remove("kept"))
	must(t, b.Close())
}

func confClosed(t *testing.T, b storage.Backend, h *host) {
	scanFill(t, b, "f", 2)
	sc := b.Scan("f", 0, 2)
	_, err := sc.Pin(0)
	must(t, err)
	stats := b.Stats()
	must(t, b.Close())
	must(t, b.Close())

	page := make([]byte, confPageSize)
	calls := map[string]func() error{
		"Create":      func() error { return b.Create("g") },
		"Remove":      func() error { return b.Remove("f") },
		"Rename":      func() error { return b.Rename("f", "g") },
		"NumPages":    func() error { _, err := b.NumPages("f"); return err },
		"ReadPage":    func() error { _, err := b.ReadPage("f", 0, page); return err },
		"ReadPages":   func() error { _, err := b.ReadPages("f", 0, 1, page); return err },
		"PinPage":     func() error { _, err := b.PinPage("f", 0); return err },
		"WritePage":   func() error { return b.WritePage("f", 0, page) },
		"AppendPage":  func() error { _, err := b.AppendPage("f", page); return err },
		"AppendPages": func() error { _, err := b.AppendPages("f", page); return err },
		"open cursor": func() error { _, err := sc.Pin(1); return err },
		"new cursor":  func() error { _, err := b.Scan("f", 0, 2).Pin(0); return err },
		"Sync":        b.Sync,
		"WriteTo":     func() error { _, err := b.WriteTo(&bytes.Buffer{}); return err },
		"SaveFile":    func() error { return b.SaveFile(fsx.NewMemFS(), "snap") },
	}
	for name, call := range calls {
		wantErr(t, name+" after Close", call(), storage.ErrClosed)
	}
	if b.Stats() != stats {
		t.Fatalf("stats after Close: %v, were %v", b.Stats(), stats)
	}
	if h != nil {
		if _, err := h.fs.Stat(h.path("g")); err == nil {
			t.Fatal("Create after Close made a host file")
		}
	}
}

// confSnapshot: WriteTo's bytes depend on the contents alone — they equal
// those of a heap disk with the same contents — do not touch the
// accounting, and read back.
func confSnapshot(t *testing.T, b storage.Backend) {
	fill := func(b storage.Backend) {
		scanFill(t, b, "b/second", 3)
		scanFill(t, b, "a first", 1)
		must(t, b.Create("empty"))
		must(t, b.WritePage("b/second", 1, []byte("overwritten")))
		must(t, b.Rename("a first", "c third"))
		b.ResetStats()
	}
	ref := storage.NewDisk(confPageSize)
	fill(ref)
	fill(b)
	var want, got bytes.Buffer
	_, err := ref.WriteTo(&want)
	must(t, err)
	n, err := b.WriteTo(&got)
	must(t, err)
	if n != int64(got.Len()) || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("snapshot of %d bytes (%d reported) differs from the heap medium's %d", got.Len(), n, want.Len())
	}
	if b.Stats() != (storage.Stats{}) {
		t.Fatalf("WriteTo was accounted: %v", b.Stats())
	}

	mem := fsx.NewMemFS()
	must(t, b.SaveFile(mem, "snap"))
	back, err := storage.LoadDiskFile(mem, "snap")
	must(t, err)
	if !reflect.DeepEqual(back.Files(), b.Files()) || back.Stats() != (storage.Stats{}) {
		t.Fatalf("loaded files %q, stats %v", back.Files(), back.Stats())
	}
	var again bytes.Buffer
	_, err = back.WriteTo(&again)
	must(t, err)
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Fatal("a loaded snapshot does not write the bytes it was loaded from")
	}
}
