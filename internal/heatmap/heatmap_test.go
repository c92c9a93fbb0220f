package heatmap

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestRecorderCountsAndFiles(t *testing.T) {
	r := NewRecorder()
	r.Access("a", 0, false)
	r.Access("a", 1, false)
	r.Access("b", 0, true)
	if r.Total() != 3 {
		t.Fatalf("total = %d", r.Total())
	}
	files := r.Files()
	if len(files) != 2 || files[0] != "a" || files[1] != "b" {
		t.Fatalf("files = %v", files)
	}
	r.Reset()
	if r.Total() != 0 || len(r.Files()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestRenderBuckets(t *testing.T) {
	r := NewRecorder()
	// 100 pages; hit page 0 ten times, page 99 once.
	for i := 0; i < 10; i++ {
		r.Access("f", 0, false)
	}
	r.Access("f", 99, false)
	m := r.Render("f", 10)
	if m.Pages != 100 {
		t.Fatalf("pages = %d", m.Pages)
	}
	if m.Buckets[0] != 10 || m.Buckets[9] != 1 {
		t.Fatalf("buckets = %v", m.Buckets)
	}
	for i := 1; i < 9; i++ {
		if m.Buckets[i] != 0 {
			t.Fatalf("bucket %d = %d, want 0", i, m.Buckets[i])
		}
	}
	if m.Max != 10 {
		t.Fatalf("max = %d", m.Max)
	}
}

func TestRenderEmptyAndUnknownFile(t *testing.T) {
	r := NewRecorder()
	m := r.Render("missing", 5)
	if len(m.Buckets) != 5 || m.Max != 0 {
		t.Fatalf("empty render = %+v", m)
	}
	m = r.Render("missing", 0)
	if len(m.Buckets) != 1 {
		t.Fatal("zero buckets should clamp to 1")
	}
}

func TestASCII(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 100; i++ {
		r.Access("f", 0, false)
	}
	r.Access("f", 9, false)
	line := r.Render("f", 10).ASCII()
	if !strings.Contains(line, "@") {
		t.Errorf("hottest bucket should render @: %q", line)
	}
	if !strings.Contains(line, "f") {
		t.Errorf("file name missing: %q", line)
	}
	// Empty map renders blanks without panicking.
	empty := Map{File: "x", Buckets: make([]int, 4)}
	if !strings.Contains(empty.ASCII(), "x") {
		t.Error("empty ASCII missing name")
	}
}

func TestJumpsSequentialVsRandom(t *testing.T) {
	seqR := NewRecorder()
	for i := int64(0); i < 100; i++ {
		seqR.Access("f", i, false)
	}
	seq := seqR.Jumps()
	if seq.SeqFrac < 0.99 {
		t.Fatalf("sequential trace seqFrac = %v", seq.SeqFrac)
	}
	if seq.AvgJump > 1.01 {
		t.Fatalf("sequential trace avgJump = %v", seq.AvgJump)
	}

	rndR := NewRecorder()
	pages := []int64{0, 50, 3, 97, 12, 88}
	for _, p := range pages {
		rndR.Access("f", p, false)
	}
	rnd := rndR.Jumps()
	if rnd.SeqFrac > 0.2 {
		t.Fatalf("random trace seqFrac = %v", rnd.SeqFrac)
	}
	if rnd.AvgJump < 10 {
		t.Fatalf("random trace avgJump = %v", rnd.AvgJump)
	}
}

func TestJumpsFileSwapsAndWrites(t *testing.T) {
	r := NewRecorder()
	r.Access("a", 0, true)
	r.Access("b", 0, false)
	r.Access("a", 1, true)
	s := r.Jumps()
	if s.FileSwaps != 2 {
		t.Fatalf("file swaps = %d", s.FileSwaps)
	}
	if s.WriteShare < 0.6 || s.WriteShare > 0.7 {
		t.Fatalf("write share = %v", s.WriteShare)
	}
	if NewRecorder().Jumps().Accesses != 0 {
		t.Fatal("empty jumps should be zero")
	}
}

// A recorder lives as long as the server's build it traces: what it retains
// must be bounded by the pages it has seen, not by how often they were read.
// (A per-access trace is 32 bytes an access: 32 MB over this loop.)
func TestRecorderMemoryBoundedByPages(t *testing.T) {
	const pages, accesses = 64, 1_000_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	r := NewRecorder()
	for p := int64(0); p < pages; p++ {
		r.Access("f", p, false)
	}
	before := heap()
	for i := int64(0); i < accesses; i++ {
		r.Access("f", i*7%pages, false)
	}
	if grown := int64(heap()) - int64(before); grown > 1<<20 {
		t.Fatalf("recorder retained %d bytes across %d repeat accesses to %d pages", grown, accesses, pages)
	}
	if js := r.Jumps(); js.Accesses != pages+accesses || r.Total() != pages+accesses {
		t.Fatalf("accesses = %d, total = %d, want %d", js.Accesses, r.Total(), pages+accesses)
	}
}

func TestIntegratesWithDisk(t *testing.T) {
	d := storage.NewDisk(64)
	rec := NewRecorder()
	d.SetTracer(rec)
	d.Create("f")
	for i := 0; i < 20; i++ {
		d.AppendPage("f", []byte{byte(i)})
	}
	buf := make([]byte, 64)
	for i := int64(0); i < 20; i++ {
		d.ReadPage("f", i, buf)
	}
	if rec.Total() != 40 {
		t.Fatalf("traced %d accesses, want 40", rec.Total())
	}
	maps := rec.RenderAll(5)
	if len(maps) != 1 || maps[0].File != "f" {
		t.Fatalf("RenderAll = %+v", maps)
	}
	for i, b := range maps[0].Buckets {
		if b != 8 { // 4 pages per bucket x 2 accesses each
			t.Fatalf("bucket %d = %d, want 8", i, b)
		}
	}
}
