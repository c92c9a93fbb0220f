package coconut

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// Facade-level crash-recovery harness: acknowledged inserts must survive
// losing every in-memory structure, with only the WAL directory (and
// optionally a SaveFile snapshot) carrying state across the "crash".

func randSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

func makeData(n, length int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = randSeries(rng, length)
	}
	return out
}

func lsmOpts(walDir string) Options {
	return Options{
		SeriesLen: 64, Segments: 8, Bits: 8,
		BufferEntries: 32, GrowthFactor: 3,
		Parallelism: 1,
		WALDir:      walDir,
		Durability:  DurabilitySync,
	}
}

// referenceLSM builds a WAL-free LSM over the same data for byte-identity
// comparison.
func referenceLSM(t *testing.T, data [][]float64) *LSM {
	t.Helper()
	opts := lsmOpts("")
	ref, err := NewLSM(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := ref.Insert(s, int64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

func assertSameAnswers(t *testing.T, tag string, want, got *LSM, seed int64, trials int) {
	t.Helper()
	if want.Count() != got.Count() {
		t.Fatalf("%s: count %d, want %d", tag, got.Count(), want.Count())
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		q := randSeries(rng, 64)
		wm, err := want.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		gm, err := got.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(wm) != len(gm) {
			t.Fatalf("%s trial %d: %d vs %d results", tag, trial, len(gm), len(wm))
		}
		for i := range wm {
			if wm[i] != gm[i] {
				t.Fatalf("%s trial %d result %d: %+v, want %+v", tag, trial, i, gm[i], wm[i])
			}
		}
	}
}

func TestLSMCrashRecoveryFromWALAlone(t *testing.T) {
	data := makeData(300, 64, 71)
	dir := t.TempDir()
	l, err := NewLSM(lsmOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := l.Insert(s, int64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: abandon the handle without Close. Only the WAL survives (the
	// simulated disk dies with the process).
	l = nil

	rec, err := NewLSM(lsmOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	ref := referenceLSM(t, data)
	defer ref.Close()
	assertSameAnswers(t, "wal-only recovery", ref, rec, 710, 8)

	// The recovered index keeps ingesting durably.
	extra := makeData(40, 64, 72)
	for i, s := range extra {
		if err := rec.Insert(s, 9); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	if got := rec.Count(); got != 340 {
		t.Fatalf("count after post-recovery inserts = %d, want 340", got)
	}
}

func TestLSMCrashRecoverySnapshotPlusWALTail(t *testing.T) {
	data := makeData(400, 64, 73)
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "lsm.snapshot")
	l, err := NewLSM(lsmOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data[:250] {
		if err := l.Insert(s, int64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint: the snapshot holds the first 250; the log truncates.
	if err := l.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	if st, ok := l.WALStats(); !ok || st.FirstLSN == 0 {
		t.Fatalf("checkpoint did not truncate the WAL: %+v ok=%v", st, ok)
	}
	for i, s := range data[250:] {
		if err := l.Insert(s, int64((250+i)%7)); err != nil {
			t.Fatal(err)
		}
	}
	l = nil // crash after 150 post-checkpoint acknowledged inserts

	// A WAL-only reopen must refuse: part of the data lives in the
	// snapshot.
	if _, err := NewLSM(lsmOpts(dir)); err == nil {
		t.Fatal("NewLSM over a checkpoint-truncated WAL should fail")
	}
	rec, err := OpenLSM(snap, lsmOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	ref := referenceLSM(t, data)
	defer ref.Close()
	assertSameAnswers(t, "snapshot+tail recovery", ref, rec, 730, 8)
}

func TestOpenLSMWithoutWALUnchanged(t *testing.T) {
	// The legacy single-argument OpenLSM path must behave exactly as
	// before: snapshot only, no WAL machinery.
	data := makeData(150, 64, 74)
	snap := filepath.Join(t.TempDir(), "plain.snapshot")
	l, err := NewLSM(lsmOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, s := range data {
		if err := l.Insert(s, int64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	got, err := OpenLSM(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	got.SetParallelism(1)
	assertSameAnswers(t, "plain reopen", l, got, 740, 6)
	if _, ok := got.WALStats(); ok {
		t.Fatal("plain reopen should have no WAL")
	}
}

func TestShardedLSMCrashRecoveryPerShardWALs(t *testing.T) {
	data := makeData(500, 64, 75)
	dir := t.TempDir()
	opts := lsmOpts(dir)
	opts.CompactionWorkers = 2
	sh, err := NewShardedLSM(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := sh.Insert(s, int64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Pre-crash answers are the reference.
	rng := rand.New(rand.NewSource(75))
	queries := make([][]float64, 10)
	want := make([][]Match, len(queries))
	for i := range queries {
		queries[i] = randSeries(rng, 64)
		want[i], err = sh.Search(queries[i], 5)
		if err != nil {
			t.Fatal(err)
		}
	}
	sh = nil // crash: all three shards' in-memory state gone

	rec, err := NewShardedLSM(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Count() != len(data) {
		t.Fatalf("recovered count = %d, want %d", rec.Count(), len(data))
	}
	for i, q := range queries {
		got, err := rec.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[i]) {
			t.Fatalf("query %d: %d vs %d results", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("query %d result %d: %+v, want %+v", i, j, got[j], want[i][j])
			}
		}
	}
	// Recovery must reject a different shard count: the hash placement of
	// the recovered totals cannot match.
	if _, err := NewShardedLSM(4, opts); err == nil {
		t.Fatal("recovering 3 shard WALs as 4 shards should fail")
	}
}

func TestOpenLSMDurableKeepsPersistedShape(t *testing.T) {
	// The durable reopen path must restore the snapshot's growth factor
	// and buffer size, not silently fall back to the defaults.
	data := makeData(200, 64, 77)
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "shaped.snapshot")
	opts := lsmOpts(dir)
	opts.GrowthFactor = 9
	opts.BufferEntries = 57
	l, err := NewLSM(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := l.Insert(s, int64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	l.Close()
	rec, err := OpenLSM(snap, Options{WALDir: dir, Durability: DurabilitySync})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	// Shape check by behavior: with the persisted growth factor of 9, the
	// reopened index must not merge runs the snapshot legally held (the
	// defaults, growth 4, would cascade immediately on the next flush).
	runsBefore := rec.lsm.Runs()
	for i, s := range data[:60] {
		if err := rec.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	st := rec.CompactionStats()
	if st.Merges != 0 && runsBefore < 9 {
		t.Fatalf("reopened index merged at %d runs: persisted growth factor not honored (stats %+v)", runsBefore, st)
	}
}

func TestOpenLSMHonoursCompactionWorkers(t *testing.T) {
	// A reopened LSM merges on the workers it is given, as one from NewLSM
	// does — with or without a WAL.
	data := makeData(400, 64, 78)
	snap := filepath.Join(t.TempDir(), "workers.snapshot")
	opts := lsmOpts("")
	opts.CompactionWorkers = 2
	l, err := NewLSM(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, s := range data[:200] {
		if err := l.Insert(s, int64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	saved := l.CompactionStats()
	rec, err := OpenLSM(snap, Options{CompactionWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for i, s := range data[200:] {
		if err := l.Insert(s, int64((200+i)%7)); err != nil {
			t.Fatal(err)
		}
		if err := rec.Insert(s, int64((200+i)%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Growth factor 3: a quiesced level holds at most two runs.
	st := rec.CompactionStats()
	if !st.Background || st.Pending || st.Merges <= saved.Merges || st.Runs > 2*st.Levels {
		t.Fatalf("reopened with CompactionWorkers 2: %+v", st)
	}
	assertSameAnswers(t, "reopened with workers", l, rec, 780, 6)
}

func TestLSMCloseIdempotentAndStats(t *testing.T) {
	dir := t.TempDir()
	opts := lsmOpts(dir)
	opts.CompactionWorkers = 1
	opts.Durability = DurabilityBatched
	l, err := NewLSM(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := makeData(200, 64, 76)
	for i, s := range data {
		if err := l.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Quiesce(); err != nil {
		t.Fatal(err)
	}
	cst := l.CompactionStats()
	if !cst.Background || cst.Flushes == 0 || cst.Merges == 0 {
		t.Fatalf("compaction stats: %+v", cst)
	}
	wst, ok := l.WALStats()
	if !ok || wst.Appends != 200 || wst.Syncs == 0 {
		t.Fatalf("wal stats: %+v ok=%v", wst, ok)
	}
	if wst.Syncs >= wst.Appends {
		t.Fatalf("batched durability issued %d syncs for %d appends", wst.Syncs, wst.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cst.DurableLSN) == "" { // keep fmt imported
		t.Fatal("unreachable")
	}
}
