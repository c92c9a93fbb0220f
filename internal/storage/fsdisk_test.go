package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fsx"
)

// opLog applies one write-path operation to a backend; the fuzz-style
// equivalence driver below runs the same script against both backends.
type backendOp func(b Backend) error

// runScript drives a deterministic mixed workload (creates, appends,
// overwrites, renames, removes) against a backend.
func backendScript(pageSize int) []backendOp {
	payload := func(i int) []byte {
		p := make([]byte, pageSize)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		return p
	}
	var ops []backendOp
	add := func(op backendOp) { ops = append(ops, op) }
	add(func(b Backend) error { return b.Create("alpha") })
	add(func(b Backend) error { return b.Create("beta/with slash?") })
	for i := 0; i < 5; i++ {
		i := i
		add(func(b Backend) error { _, err := b.AppendPage("alpha", payload(i)); return err })
	}
	add(func(b Backend) error {
		var bulk []byte
		for i := 5; i < 9; i++ {
			bulk = append(bulk, payload(i)...)
		}
		bulk = append(bulk, []byte("partial tail")...)
		_, err := b.AppendPages("beta/with slash?", bulk)
		return err
	})
	add(func(b Backend) error { return b.WritePage("alpha", 2, payload(99)) })
	add(func(b Backend) error { return b.WritePage("alpha", 5, payload(55)) }) // append via WritePage
	add(func(b Backend) error { return b.Create("doomed") })
	add(func(b Backend) error { _, err := b.AppendPage("doomed", payload(7)); return err })
	add(func(b Backend) error { return b.Remove("doomed") })
	add(func(b Backend) error { return b.Rename("beta/with slash?", "gamma") })
	return ops
}

// TestFileDiskMatchesSimDisk runs the same workload on the simulated disk
// and the file backend and demands identical namespaces, page bytes, read
// results, and I/O accounting.
func TestFileDiskMatchesSimDisk(t *testing.T) {
	const pageSize = 128
	sim := NewDisk(pageSize)
	fd, err := NewFileDisk(FileDiskOptions{Dir: t.TempDir(), PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()

	for i, op := range backendScript(pageSize) {
		errSim, errFile := op(sim), op(Backend(fd))
		if (errSim == nil) != (errFile == nil) {
			t.Fatalf("op %d: sim err=%v, file err=%v", i, errSim, errFile)
		}
	}

	if simFiles, fdFiles := fmt.Sprint(sim.Files()), fmt.Sprint(fd.Files()); simFiles != fdFiles {
		t.Fatalf("namespaces differ: sim=%v file=%v", simFiles, fdFiles)
	}
	if sim.TotalPages() != fd.TotalPages() {
		t.Fatalf("total pages: sim=%d file=%d", sim.TotalPages(), fd.TotalPages())
	}
	for _, name := range sim.Files() {
		np, _ := sim.NumPages(name)
		fp, _ := fd.NumPages(name)
		if np != fp {
			t.Fatalf("%q: sim pages=%d file pages=%d", name, np, fp)
		}
		bufS, bufF := make([]byte, pageSize), make([]byte, pageSize)
		for p := int64(0); p < np; p++ {
			if _, err := sim.ReadPage(name, p, bufS); err != nil {
				t.Fatal(err)
			}
			if _, err := fd.ReadPage(name, p, bufF); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bufS, bufF) {
				t.Fatalf("%q page %d differs", name, p)
			}
			hS, err := sim.PinPage(name, p)
			if err != nil {
				t.Fatal(err)
			}
			hF, err := fd.PinPage(name, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(hS.Data(), hF.Data()) {
				t.Fatalf("%q pinned page %d differs", name, p)
			}
			hS.Release()
			hF.Release()
		}
		// Bulk reads agree too (including the end-of-file clamp).
		big := int(np) + 3
		bulkS, bulkF := make([]byte, big*pageSize), make([]byte, big*pageSize)
		gotS, err := sim.ReadPages(name, 0, big, bulkS)
		if err != nil {
			t.Fatal(err)
		}
		gotF, err := fd.ReadPages(name, 0, big, bulkF)
		if err != nil {
			t.Fatal(err)
		}
		if gotS != gotF || !bytes.Equal(bulkS[:gotS*pageSize], bulkF[:gotF*pageSize]) {
			t.Fatalf("%q bulk read differs: %d vs %d pages", name, gotS, gotF)
		}
	}
	// Same ops, same classifier: the accounting must agree exactly.
	if sim.Stats() != fd.Stats() {
		t.Fatalf("stats differ:\n sim=%v\nfile=%v", sim.Stats(), fd.Stats())
	}
	// And the snapshot serializations must be byte-identical.
	var snapS, snapF bytes.Buffer
	if _, err := sim.WriteTo(&snapS); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.WriteTo(&snapF); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapS.Bytes(), snapF.Bytes()) {
		t.Fatal("snapshot bytes differ between backends")
	}
}

// TestFileDiskReopen closes a store and reopens the directory: contents
// must be intact, including names that needed host-filename escaping.
func TestFileDiskReopen(t *testing.T) {
	dir := t.TempDir()
	fd, err := NewFileDisk(FileDiskOptions{Dir: dir, PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Create("runs/level-0?x=1"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, 64)
	if _, err := fd.AppendPage("runs/level-0?x=1", want); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}

	fd2, err := NewFileDisk(FileDiskOptions{Dir: dir, PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer fd2.Close()
	got := make([]byte, 64)
	if _, err := fd2.ReadPage("runs/level-0?x=1", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page contents lost across reopen")
	}
}

// TestFileDiskCrashRecovery drives the store on the crash-simulating
// filesystem: after Sync everything survives a crash; a torn trailing
// page from an unsynced append is discarded on reopen.
func TestFileDiskCrashRecovery(t *testing.T) {
	mem := fsx.NewMemFS()
	const pageSize = 32
	fd, err := NewFileDisk(FileDiskOptions{Dir: "store", PageSize: pageSize, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Create("data"); err != nil {
		t.Fatal(err)
	}
	durable := bytes.Repeat([]byte{1}, pageSize)
	if _, err := fd.AppendPage("data", durable); err != nil {
		t.Fatal(err)
	}
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced writes after the sync point: lost on crash, and that's fine.
	if _, err := fd.AppendPage("data", bytes.Repeat([]byte{2}, pageSize)); err != nil {
		t.Fatal(err)
	}

	mem.Crash()
	fd2, err := NewFileDisk(FileDiskOptions{Dir: "store", PageSize: pageSize, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	np, err := fd2.NumPages("data")
	if err != nil {
		t.Fatalf("synced file lost in crash: %v", err)
	}
	if np != 1 {
		t.Fatalf("pages after crash = %d, want the 1 synced page", np)
	}
	got := make([]byte, pageSize)
	if _, err := fd2.ReadPage("data", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, durable) {
		t.Fatal("synced page corrupted by crash")
	}
}

// TestFileDiskFaultInjection: a failed page write surfaces the error and a
// store on a failing filesystem degrades with errors, not corruption.
func TestFileDiskFaultInjection(t *testing.T) {
	mem := fsx.NewMemFS()
	fd, err := NewFileDisk(FileDiskOptions{Dir: "store", PageSize: 32, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Create("data"); err != nil {
		t.Fatal(err)
	}
	mem.FailAfter(0, nil)
	if _, err := fd.AppendPage("data", make([]byte, 32)); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("append on failing fs: err=%v, want injected fault", err)
	}
	if err := fd.Sync(); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("sync on failing fs: err=%v, want injected fault", err)
	}
	mem.SetFaultHook(nil)
	// The failed append must not have claimed a page.
	if np, _ := fd.NumPages("data"); np != 0 {
		t.Fatalf("failed append left %d pages", np)
	}
}

// TestHeadPackingWideFiles is the regression test for the 32-bit page
// packing bug: page 2³² of the same file used to alias page 0, so the
// access classified as a sequential repeat. With 40-bit page packing it
// classifies as random.
func TestHeadPackingWideFiles(t *testing.T) {
	var a ioAccounting
	a.account(3, 0, false)       // park the head at (file 3, page 0)
	a.account(3, 1<<32, false)   // page 2³² — far away, must be random
	a.account(3, 1<<32+1, false) // the next page — sequential
	s := a.snapshot()
	if s.RandReads != 2 || s.SeqReads != 1 {
		t.Fatalf("stats = %+v, want 2 random (park + 2³² jump) and 1 sequential", s)
	}

	// Distinct files far apart in id space never alias either.
	var b ioAccounting
	b.account(0, 5, false)
	b.account(1, 6, false) // different file, "next" page number: random
	if s := b.snapshot(); s.RandReads != 2 {
		t.Fatalf("cross-file stats = %+v, want 2 random", s)
	}
}

// TestSnapshotAtomicSave: a crash right after SaveFile keeps the complete
// snapshot; a crash mid-save keeps the previous one. This is the storage
// half of the checkpoint-ordering fix.
func TestSnapshotAtomicSave(t *testing.T) {
	mem := fsx.NewMemFS()
	mem.MkdirAll("snaps", 0o755)

	mk := func(tag byte) *Disk {
		d := NewDisk(32)
		if err := d.Create("f"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AppendPage("f", bytes.Repeat([]byte{tag}, 32)); err != nil {
			t.Fatal(err)
		}
		return d
	}
	readTag := func() byte {
		t.Helper()
		d, err := LoadDiskFile(mem, "snaps/idx")
		if err != nil {
			t.Fatalf("snapshot unreadable: %v", err)
		}
		buf := make([]byte, 32)
		if _, err := d.ReadPage("f", 0, buf); err != nil {
			t.Fatal(err)
		}
		return buf[0]
	}

	if err := mk(1).SaveFile(mem, "snaps/idx"); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	if got := readTag(); got != 1 {
		t.Fatalf("snapshot after clean save+crash has tag %d, want 1", got)
	}

	// Now fail the save at every possible fault point: the surviving
	// snapshot must always be the complete v1 or the complete v2.
	for fail := int64(0); ; fail++ {
		mem.FailAfter(fail, nil)
		err := mk(2).SaveFile(mem, "snaps/idx")
		mem.SetFaultHook(nil)
		mem.Crash()
		if got := readTag(); got != 1 && got != 2 {
			t.Fatalf("fail=%d: snapshot has tag %d, want complete 1 or 2", fail, got)
		}
		if err == nil {
			if got := readTag(); got != 2 {
				t.Fatalf("fail=%d: save succeeded but snapshot has tag %d", fail, got)
			}
			break
		}
	}
}
