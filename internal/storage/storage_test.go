package storage

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/series"
)

func TestSequentialVsRandomAccounting(t *testing.T) {
	d := NewDisk(64)
	d.Create("f")
	for i := 0; i < 10; i++ {
		d.AppendPage("f", []byte{byte(i)})
	}
	// 10 appends: the first moves the head (random), the rest follow it.
	st := d.Stats()
	if st.SeqWrites != 9 || st.RandWrites != 1 {
		t.Fatalf("append stats = %v, want 9 seq + 1 rand writes", st)
	}
	d.ResetStats()
	buf := make([]byte, 64)
	// Sequential scan: page 0 is random (last points at page 9), rest sequential.
	for i := int64(0); i < 10; i++ {
		d.ReadPage("f", i, buf)
	}
	st = d.Stats()
	if st.SeqReads != 9 || st.RandReads != 1 {
		t.Fatalf("scan stats = %v, want 9 seq + 1 rand", st)
	}
	d.ResetStats()
	// Random hops.
	for _, p := range []int64{5, 2, 8, 1} {
		d.ReadPage("f", p, buf)
	}
	st = d.Stats()
	if st.RandReads != 4 {
		t.Fatalf("random stats = %v, want 4 random reads", st)
	}
	// Re-reading the same page counts sequential (buffered); the hop to it
	// does not (the previous loop ended on page 1).
	d.ResetStats()
	d.ReadPage("f", 4, buf)
	d.ReadPage("f", 4, buf)
	st = d.Stats()
	if st.SeqReads != 1 || st.RandReads != 1 {
		t.Fatalf("repeat stats = %v", st)
	}
}

func TestStatsCostAndArithmetic(t *testing.T) {
	s := Stats{SeqReads: 10, RandReads: 2, SeqWrites: 5, RandWrites: 1}
	m := CostModel{SeqCost: 1, RandCost: 10}
	if got := s.Cost(m); got != 15+30 {
		t.Fatalf("cost = %v, want 45", got)
	}
	if s.Reads() != 12 || s.Writes() != 6 || s.Total() != 18 {
		t.Fatal("totals wrong")
	}
	diff := s.Sub(Stats{SeqReads: 1})
	if diff.SeqReads != 9 {
		t.Fatal("Sub wrong")
	}
	sum := s.Add(Stats{RandWrites: 2})
	if sum.RandWrites != 3 {
		t.Fatal("Add wrong")
	}
}

type traceRec struct {
	file  string
	page  int64
	write bool
}

type sliceTracer struct{ recs []traceRec }

func (t *sliceTracer) Access(file string, page int64, write bool) {
	t.recs = append(t.recs, traceRec{file, page, write})
}

func TestTracer(t *testing.T) {
	d := NewDisk(64)
	tr := &sliceTracer{}
	d.SetTracer(tr)
	d.Create("f")
	d.AppendPage("f", []byte("a"))
	buf := make([]byte, 64)
	d.ReadPage("f", 0, buf)
	if len(tr.recs) != 2 {
		t.Fatalf("traced %d accesses, want 2", len(tr.recs))
	}
	if !tr.recs[0].write || tr.recs[1].write {
		t.Fatal("trace write flags wrong")
	}
	d.SetTracer(nil)
	d.ReadPage("f", 0, buf)
	if len(tr.recs) != 2 {
		t.Fatal("tracer not removed")
	}
}

func TestRecordWriterReader(t *testing.T) {
	d := NewDisk(100) // 100/12 = 8 records per page
	const recSize = 12
	w, err := NewRecordWriter(d, "recs", recSize)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		rec := make([]byte, recSize)
		rec[0] = byte(i)
		rec[1] = byte(i >> 8)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != n {
		t.Fatalf("count = %d, want %d", w.Count(), n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(make([]byte, recSize)); err == nil {
		t.Fatal("write after close should fail")
	}
	r, err := NewRecordReader(d, "recs", recSize, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got := int(rec[0]) | int(rec[1])<<8; got != i {
			t.Fatalf("record %d holds %d", i, got)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatal("Remaining should be 0")
	}
}

func TestRecordWriterWrongSize(t *testing.T) {
	d := NewDisk(64)
	w, err := NewRecordWriter(d, "f", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(make([]byte, 9)); err == nil {
		t.Fatal("wrong-size write should fail")
	}
	if _, err := NewRecordWriter(d, "g", 100); err == nil {
		t.Fatal("record larger than page should fail")
	}
}

func TestRecordReaderCountValidation(t *testing.T) {
	d := NewDisk(64)
	w, _ := NewRecordWriter(d, "f", 8)
	w.Write(make([]byte, 8))
	w.Close()
	if _, err := NewRecordReader(d, "f", 8, 100); err == nil {
		t.Fatal("reader over-count should fail")
	}
	if _, err := NewRecordReader(d, "missing", 8, 0); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestRecordFileRandomAccess(t *testing.T) {
	d := NewDisk(64) // 8 records of 8 bytes per page
	w, _ := NewRecordWriter(d, "f", 8)
	const n = 100
	for i := 0; i < n; i++ {
		rec := make([]byte, 8)
		rec[0] = byte(i)
		w.Write(rec)
	}
	w.Close()
	rf, err := OpenRecordFile(d, "f", 8)
	if err != nil {
		t.Fatal(err)
	}
	if rf.RecordsPerPage() != 8 {
		t.Fatalf("records per page = %d, want 8", rf.RecordsPerPage())
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		i := int64(rng.Intn(n))
		rec, err := rf.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if rec[0] != byte(i) {
			t.Fatalf("record %d holds %d", i, rec[0])
		}
	}
	if _, err := rf.Get(-1); err == nil {
		t.Fatal("negative index should fail")
	}
	// Same-page consecutive gets incur only one page read.
	d.ResetStats()
	rf.curPage = -1
	rf.Get(0)
	rf.Get(1)
	if got := d.Stats().Reads(); got != 1 {
		t.Fatalf("same-page gets cost %d reads, want 1", got)
	}
}

func TestRawFile(t *testing.T) {
	d := NewDisk(0)
	rf, err := CreateRawFile(d, "raw", 4)
	if err != nil {
		t.Fatal(err)
	}
	id0, err := rf.Append(series.Series{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := rf.Append(series.Series{5, 6, 7, 8})
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids = %d,%d", id0, id1)
	}
	if _, err := rf.Append(series.Series{1}); err == nil {
		t.Fatal("wrong length should fail")
	}
	if _, err := rf.Get(0); err == nil {
		t.Fatal("get before seal should fail")
	}
	if err := rf.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Append(series.Series{1, 1, 1, 1}); err == nil {
		t.Fatal("append after seal should fail")
	}
	s, err := rf.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 5 || s[3] != 8 {
		t.Fatalf("got %v", s)
	}
	if _, err := rf.Get(2); err == nil {
		t.Fatal("out-of-range get should fail")
	}
	if rf.Count() != 2 || rf.SeriesLen() != 4 {
		t.Fatal("count/len wrong")
	}
}

func TestConcurrentDiskAccess(t *testing.T) {
	d := NewDisk(64)
	d.Create("f")
	for i := 0; i < 100; i++ {
		d.AppendPage("f", []byte{byte(i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 64)
			for i := 0; i < 1000; i++ {
				if _, err := d.ReadPage("f", int64(rng.Intn(100)), buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got := d.Stats().Reads(); got != 8000 {
		t.Fatalf("reads = %d, want 8000", got)
	}
}

func TestPropertyRecordRoundTrip(t *testing.T) {
	f := func(recs [][16]byte) bool {
		d := NewDisk(128)
		w, err := NewRecordWriter(d, "f", 16)
		if err != nil {
			return false
		}
		for _, rec := range recs {
			if err := w.Write(rec[:]); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewRecordReader(d, "f", 16, int64(len(recs)))
		if err != nil {
			return false
		}
		for _, want := range recs {
			got, err := r.Next()
			if err != nil || !bytes.Equal(got, want[:]) {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := NewDisk(128)
	d.Create("a")
	d.AppendPage("a", []byte("hello"))
	d.Create("b")
	for i := 0; i < 5; i++ {
		d.AppendPage("b", []byte{byte(i)})
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDisk(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PageSize() != 128 {
		t.Fatalf("page size = %d", got.PageSize())
	}
	files := got.Files()
	if len(files) != 2 || files[0] != "a" || files[1] != "b" {
		t.Fatalf("files = %v", files)
	}
	page := make([]byte, 128)
	got.ReadPage("a", 0, page)
	if !bytes.Equal(page[:5], []byte("hello")) {
		t.Fatal("page content lost")
	}
	if n, _ := got.NumPages("b"); n != 5 {
		t.Fatalf("b pages = %d", n)
	}
	// Restored disk starts with zero stats (the read above counted 1).
	if got.Stats().Reads() != 1 {
		t.Fatalf("stats = %v", got.Stats())
	}
}

func TestSnapshotErrors(t *testing.T) {
	// Bad magic.
	if _, err := ReadDisk(bytes.NewReader([]byte("XXXXXXXX\x01\x00\x00\x00"))); err == nil {
		t.Fatal("bad magic should fail")
	}
	// Short stream.
	if _, err := ReadDisk(bytes.NewReader([]byte("CCNUT"))); err == nil {
		t.Fatal("short stream should fail")
	}
	// Good header, truncated file table.
	d := NewDisk(64)
	d.Create("f")
	d.AppendPage("f", []byte("x"))
	var buf bytes.Buffer
	d.WriteTo(&buf)
	raw := buf.Bytes()
	if _, err := ReadDisk(bytes.NewReader(raw[:len(raw)-10])); err == nil {
		t.Fatal("truncated snapshot should fail")
	}
	// Implausible version.
	bad := append([]byte{}, raw...)
	bad[8] = 99
	if _, err := ReadDisk(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version should fail")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	d := NewDisk(64)
	d.Create("f")
	d.AppendPage("f", []byte("persisted"))
	path := t.TempDir() + "/disk.snap"
	if err := d.SaveFile(nil, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDiskFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 64)
	got.ReadPage("f", 0, page)
	if !bytes.Equal(page[:9], []byte("persisted")) {
		t.Fatal("file snapshot content lost")
	}
	if _, err := LoadDiskFile(nil, t.TempDir()+"/missing"); err == nil {
		t.Fatal("missing snapshot file should fail")
	}
}

func TestRemoveResetsHead(t *testing.T) {
	// Removing the file under the head must not leave a dangling pointer:
	// the next access to a recreated file of the same name is random.
	d := NewDisk(64)
	d.Create("f")
	d.AppendPage("f", []byte("x"))
	d.Remove("f")
	d.Create("f")
	d.ResetStats()
	d.AppendPage("f", []byte("y"))
	if st := d.Stats(); st.RandWrites != 1 {
		t.Fatalf("stats after recreate = %v, want 1 random write", st)
	}
}

// TestResetStatsResetsHead is the regression test for the stale-head bug:
// ResetStats used to zero the counters but leave the packed head position
// (the per-file state behind sequential-vs-random classification), so the
// first access of a fresh measurement window could ride the previous
// window's head position and classify as sequential.
func TestResetStatsResetsHead(t *testing.T) {
	d := NewDisk(0)
	if err := d.Create("f"); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, d.PageSize())
	for i := 0; i < 3; i++ {
		if _, err := d.AppendPage("f", page); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, d.PageSize())
	if _, err := d.ReadPage("f", 0, buf); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	// Page 1 is adjacent to the pre-reset head; with a stale head it would
	// count as sequential. A reset window must charge it as random.
	if _, err := d.ReadPage("f", 1, buf); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.RandReads != 1 || st.SeqReads != 0 {
		t.Fatalf("first read after ResetStats classified seq=%d rand=%d, want rand=1 seq=0", st.SeqReads, st.RandReads)
	}
	// And the stream continues to classify normally afterwards.
	if _, err := d.ReadPage("f", 2, buf); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.SeqReads != 1 {
		t.Fatalf("second read should be sequential, got %v", st)
	}
}

// TestPinPageAccounting checks Disk.PinPage charges exactly like ReadPage
// and borrows stable snapshots across overwrites.
func TestPinPageAccounting(t *testing.T) {
	d := NewDisk(0)
	if err := d.Create("f"); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, d.PageSize())
	page[0] = 'a'
	for i := 0; i < 2; i++ {
		if _, err := d.AppendPage("f", page); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	h0, err := d.PinPage("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PinPage("f", 1); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.RandReads != 1 || st.SeqReads != 1 {
		t.Fatalf("pin accounting = %v, want 1 random + 1 sequential", st)
	}
	// Overwrite page 0: the pinned view keeps its snapshot.
	page[0] = 'b'
	if err := d.WritePage("f", 0, page); err != nil {
		t.Fatal(err)
	}
	if h0.Data()[0] != 'a' {
		t.Fatalf("pinned snapshot mutated: %q", h0.Data()[0])
	}
	h0.Release() // no-op on a disk pin
	if _, err := d.PinPage("f", 9); err == nil {
		t.Fatal("pin out of range succeeded")
	}
	if _, err := d.PinPage("missing", 0); err == nil {
		t.Fatal("pin of missing file succeeded")
	}
}
