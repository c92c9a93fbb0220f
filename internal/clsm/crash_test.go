package clsm

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The crash-recovery harness: build a durable LSM, acknowledge N inserts,
// then "crash" — drop the in-memory LSM entirely, keeping only the disk
// (runs + persisted manifest + raw series file) and the WAL directory — and
// Recover. Every acknowledged insert must be searchable afterwards.

// crashDisk is the store of a durable LSM whose flushes truncate its log: on
// a file-backed disk (here over the fault-injection filesystem, which a
// dropped LSM leaves as it is), beside the raw series file of ds, so the
// series are as durable as the runs.
func crashDisk(t *testing.T, ds *series.Dataset) *storage.Disk {
	t.Helper()
	disk, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "store", FS: fsx.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	if _, err := storage.CreateRawFile(disk, "raw", ds.Len, ds.Count(), normStore{ds}.Get); err != nil {
		t.Fatal(err)
	}
	return disk
}

// crashOpts describes a durable LSM over a crashDisk and the log in dir.
func crashOpts(t *testing.T, disk *storage.Disk, dir string, ds *series.Dataset, bufEntries int) (Options, *wal.Log) {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	raw := new(storage.RawFile)
	if err := raw.Open(disk, "raw", ds.Len, int64(ds.Count())); err != nil {
		t.Fatal(err)
	}
	return Options{Disk: disk, Config: testConfig(false), GrowthFactor: 3, BufferEntries: bufEntries, Raw: raw, WAL: w}, w
}

func durableLSM(t *testing.T, disk *storage.Disk, dir string, ds *series.Dataset, bufEntries int) (*LSM, *wal.Log) {
	t.Helper()
	opts, w := crashOpts(t, disk, dir, ds, bufEntries)
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, w
}

func recoverLSM(t *testing.T, disk *storage.Disk, dir string, ds *series.Dataset, bufEntries int) (*LSM, *wal.Log) {
	t.Helper()
	opts, w := crashOpts(t, disk, dir, ds, bufEntries)
	l, err := Open(opts)
	if err == nil {
		err = l.Replay(nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return l, w
}

// checkSummaries holds every run of the current manifest to the invariant of
// its resident summary (run.Store.Verify: the summary is its file's pages').
// A recovered run got its summary from a pass over the file; one flushed or
// merged since got it from the writer.
func checkSummaries(t *testing.T, l *LSM) {
	t.Helper()
	for _, r := range allRuns(l.cur.Load().man) {
		if err := l.store.Verify(r); err != nil {
			t.Fatal(err)
		}
	}
}

func assertAllSearchable(t *testing.T, l *LSM, ds *series.Dataset, n int, trials int, seed int64) {
	t.Helper()
	if got := l.Count(); got != int64(n) {
		t.Fatalf("recovered count = %d, want %d", got, n)
	}
	checkSummaries(t, l)
	// Exact searches must agree with brute force over the acknowledged set
	// — i.e. every acknowledged entry is reachable with its right distance.
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(false))
		want := bruteKNNFirst(q, ds, n, 5)
		got, err := exactSearch(l, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d result %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// bruteKNNFirst is bruteKNN restricted to the first n series (the
// acknowledged prefix).
func bruteKNNFirst(q index.Query, ds *series.Dataset, n, k int) []index.Result {
	col := index.NewCollector(k)
	for id := 0; id < n; id++ {
		s, _ := ds.Get(id)
		col.Add(index.Result{ID: int64(id), Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
	}
	return col.Results()
}

func TestCrashRecoveryAfterNInserts(t *testing.T) {
	ds := makeDataset(700, 41)
	for _, n := range []int{1, 37, 260, 700} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			disk := crashDisk(t, ds)
			dir := t.TempDir()
			l, w := durableLSM(t, disk, dir, ds, 64)
			for id := 0; id < n; id++ {
				s, _ := ds.Get(id)
				if err := l.Insert(s, int64(id)); err != nil {
					t.Fatal(err)
				}
			}
			// The acknowledgement boundary: force the group commit out.
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			// Crash: the LSM struct (and its buffer) is gone; only disk +
			// WAL survive. The log object is abandoned un-closed, as a real
			// crash would leave it.
			l = nil
			rec, w2 := recoverLSM(t, disk, dir, ds, 64)
			defer w2.Close()
			assertAllSearchable(t, rec, ds, n, 6, int64(n))
		})
	}
}

func TestCrashRecoveryTruncatedWALOnlyReplaysTail(t *testing.T) {
	// On a store that holds the series, flushed entries leave the log;
	// recovery must come from the persisted manifest plus only the buffered
	// tail.
	ds := makeDataset(500, 42)
	disk := crashDisk(t, ds)
	dir := t.TempDir()
	l, w := durableLSM(t, disk, dir, ds, 64)
	for id := 0; id < 500; id++ {
		s, _ := ds.Get(id)
		if err := l.Insert(s, int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	w.Sync()
	st := w.Stats()
	if st.FirstLSN == 0 {
		t.Fatal("expected flush-time truncation to advance FirstLSN")
	}
	if st.FirstLSN > st.NextLSN {
		t.Fatalf("FirstLSN %d beyond NextLSN %d", st.FirstLSN, st.NextLSN)
	}
	rec, w2 := recoverLSM(t, disk, dir, ds, 64)
	defer w2.Close()
	assertAllSearchable(t, rec, ds, 500, 6, 4242)
	// Recovery replayed only the un-flushed tail: the buffer holds at most
	// one flush interval's worth.
	if got := rec.buffer.Len(); got >= 64 {
		t.Fatalf("recovered buffer holds %d entries, want < 64", got)
	}
}

func TestCrashRecoveryTornTailSegment(t *testing.T) {
	// A crash mid-append leaves a torn frame at the log's tail; replay must
	// tolerate it and recover every entry before the tear.
	ds := makeDataset(200, 43)
	disk := crashDisk(t, ds)
	dir := t.TempDir()
	l, w := durableLSM(t, disk, dir, ds, 1024) // no flush: all 200 in the WAL tail
	for id := 0; id < 200; id++ {
		s, _ := ds.Get(id)
		if err := l.Insert(s, int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail by hand: a frame header promising more bytes than
	// follow, exactly what an interrupted append leaves behind.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("wal dir: %v %d", err, len(entries))
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	tail := filepath.Join(dir, names[len(names)-1])
	f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xaa, 0xbb, 0xcc}) // torn frame
	f.Close()

	rec, w2 := recoverLSM(t, disk, dir, ds, 1024)
	defer w2.Close()
	assertAllSearchable(t, rec, ds, 200, 6, 99)
	// The log keeps working past the tear.
	s, _ := ds.Get(0)
	if err := rec.Insert(s, 200); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 201 {
		t.Fatalf("count after post-recovery insert = %d", rec.Count())
	}
}

func TestCrashRecoveryOrphanRunFile(t *testing.T) {
	// A crash after a flush (or merge) wrote its run file but before the
	// manifest naming it was persisted leaves the file behind, under the
	// very name the recovered index hands out next. Recovery must remove
	// it — and nothing that merely resembles a run name — or every flush
	// from then on fails in Create.
	ds := makeDataset(300, 47)
	disk := crashDisk(t, ds)
	dir := t.TempDir()
	l, w := durableLSM(t, disk, dir, ds, 64)
	insert := func(l *LSM, from, to int) {
		t.Helper()
		for id := from; id < to; id++ {
			s, _ := ds.Get(id)
			if err := l.Insert(s, int64(id)); err != nil {
				t.Fatalf("insert %d: %v", id, err)
			}
		}
	}
	insert(l, 0, 100) // one flush (run 000001, manifest persisted), 36 in the log's tail
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	orphan := fmt.Sprintf("clsm.run.%06d", l.seq.Load()+1)
	bystanders := []string{orphan + ".bak", "clsm.run.", "other.run.000002"}
	for _, name := range append(bystanders, orphan) {
		if err := disk.Create(name); err != nil {
			t.Fatal(err)
		}
		if _, err := disk.AppendPages(name, make([]byte, 3*disk.PageSize())); err != nil {
			t.Fatal(err)
		}
	}

	rec, w2 := recoverLSM(t, disk, dir, ds, 64)
	defer w2.Close()
	if disk.Exists(orphan) {
		t.Errorf("recovery left the unreferenced run %q on the disk", orphan)
	}
	for _, name := range bystanders {
		if !disk.Exists(name) {
			t.Errorf("recovery removed %q, which is not a run name of this index", name)
		}
	}
	if got := rec.CompactionStats().ReclaimedRuns; got != 1 {
		t.Errorf("ReclaimedRuns = %d after recovery, want 1", got)
	}
	flushes := rec.Flushes()
	insert(rec, 100, 300) // through three more flushes
	if got := rec.Flushes() - flushes; got < 3 {
		t.Fatalf("%d flushes after recovery, want at least 3", got)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	assertAllSearchable(t, rec, ds, 300, 6, 47)
}

func TestRecoverFreshDirIsEmpty(t *testing.T) {
	ds := makeDataset(1, 44)
	disk := crashDisk(t, ds)
	rec, w := recoverLSM(t, disk, t.TempDir(), ds, 64)
	defer w.Close()
	if rec.Count() != 0 {
		t.Fatalf("fresh recovery count = %d", rec.Count())
	}
}

func TestRecoveryIsRepeatable(t *testing.T) {
	// Crashing again right after recovery must land in the same state:
	// recovery's own flushes persist manifests and truncate the log.
	ds := makeDataset(300, 45)
	disk := crashDisk(t, ds)
	dir := t.TempDir()
	l, w := durableLSM(t, disk, dir, ds, 32)
	for id := 0; id < 300; id++ {
		s, _ := ds.Get(id)
		l.Insert(s, int64(id))
	}
	w.Sync()
	for round := 0; round < 3; round++ {
		rec, w2 := recoverLSM(t, disk, dir, ds, 32)
		assertAllSearchable(t, rec, ds, 300, 3, int64(round))
		w2.Close()
	}
}

func TestDurableMatchesNonDurable(t *testing.T) {
	// The WAL must not change what the index contains: a durable LSM and a
	// plain one fed the same inserts answer identically.
	ds := makeDataset(400, 46)
	plain, _ := buildLSM(t, ds, false, 3, 64)
	disk := crashDisk(t, ds)
	durable, w := durableLSM(t, disk, t.TempDir(), ds, 64)
	defer w.Close()
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if err := durable.Insert(s, int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 8; trial++ {
		q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(false))
		want, err := exactSearch(plain, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exactSearch(durable, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d result %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}
