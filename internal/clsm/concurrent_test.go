package clsm

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compact"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/storage"
)

// backgroundLSM builds an LSM whose merges run on a scheduler.
func backgroundLSM(t *testing.T, ds *series.Dataset, sched *compact.Scheduler, growth, bufEntries int) *LSM {
	t.Helper()
	l, err := New(Options{
		Disk:          storage.NewDisk(0),
		Config:        testConfig(false),
		GrowthFactor:  growth,
		BufferEntries: bufEntries,
		Raw:           normStore{ds},
		Scheduler:     sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func sameExact(t *testing.T, tag string, a, b []index.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", tag, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s result %d: %+v vs %+v", tag, i, a[i], b[i])
		}
	}
}

func TestBackgroundCompactionMatchesInline(t *testing.T) {
	// Same inserts through inline cascades and through background jobs must
	// produce identical answers, and a quiesced background LSM must satisfy
	// the tiering invariant exactly like the inline one.
	ds := makeDataset(900, 51)
	inline, _ := buildLSM(t, ds, false, 3, 48)
	sched := compact.NewScheduler(2)
	defer sched.Close()
	bg := backgroundLSM(t, ds, sched, 3, 48)
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if err := bg.Insert(s, int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-compaction searches already answer identically...
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 6; trial++ {
		q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(false))
		want, err := inline.ExactSearch(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bg.ExactSearch(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameExact(t, "mid-compaction", want, got)
	}
	// ...and after quiescing, the structure converges to the invariant.
	if err := bg.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for lvl, runs := range bg.cur.Load().man.levels {
		if len(runs) >= 3 {
			t.Fatalf("quiesced level %d holds %d runs, growth factor 3", lvl, len(runs))
		}
	}
	if bg.Merges() == 0 {
		t.Fatal("background path performed no merges")
	}
	if st := bg.CompactionStats(); !st.Background || st.Pending {
		t.Fatalf("compaction stats after quiesce: %+v", st)
	}
}

func TestConcurrentInsertSearchMerge(t *testing.T) {
	// The tentpole guarantee: searches overlapping inserts, flushes, and
	// background merges return results byte-identical to a quiesced copy of
	// the same data. Established data carries ts=0 and concurrent inserts
	// carry ts=1, so a ts-windowed query pins the comparable set while the
	// structure churns underneath it.
	ds := makeDataset(800, 52)
	extra := makeDataset(400, 53)

	quiesced, err := New(Options{
		Disk: storage.NewDisk(0), Config: testConfig(false),
		GrowthFactor: 3, BufferEntries: 32, Raw: normStore{ds},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := compact.NewScheduler(2)
	defer sched.Close()
	live := backgroundLSM(t, ds, sched, 3, 32)
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if err := quiesced.Insert(s, 0); err != nil {
			t.Fatal(err)
		}
		if err := live.Insert(s, 0); err != nil {
			t.Fatal(err)
		}
	}

	const queries = 40
	rng := rand.New(rand.NewSource(52))
	qs := make([]index.Query, queries)
	want := make([][]index.Result, queries)
	for i := range qs {
		qs[i] = index.NewQuery(gen.RandomWalk(rng, 64), testConfig(false)).WithWindow(0, 0)
		var err error
		want[i], err = quiesced.ExactSearch(qs[i].WithWindow(0, 0), 5)
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// Writer: a bounded stream of ts=1 inserts (three buffer generations'
	// worth), forcing flushes and background merges while the searchers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 4; round++ {
			for id := 0; id < extra.Count(); id++ {
				s, _ := extra.Get(id)
				if err := live.Insert(s, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// Searchers: windowed exact queries must match the quiesced reference
	// byte for byte, every time.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 15; round++ {
				i := (w*7 + round) % queries
				got, err := live.ExactSearch(qs[i], 5)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want[i]) {
					t.Errorf("query %d: %d vs %d results", i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("query %d result %d: %+v vs %+v", i, j, got[j], want[i][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := live.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkSummaries(t, live)
}

func TestQuiesceAfterSchedulerClose(t *testing.T) {
	// A closed scheduler must not strand over-full levels (or spin
	// Quiesce): the remaining merges finish inline.
	ds := makeDataset(600, 56)
	sched := compact.NewScheduler(1)
	l := backgroundLSM(t, ds, sched, 3, 32)
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if err := l.Insert(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	// Force an over-full level after the close: flushes still work, their
	// background submission fails silently, and Quiesce must finish the
	// job inline rather than looping.
	more := makeDataset(200, 57)
	for id := 0; id < more.Count(); id++ {
		s, _ := more.Get(id)
		if err := l.Insert(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for lvl, runs := range l.cur.Load().man.levels {
		if len(runs) >= 3 {
			t.Fatalf("level %d holds %d runs after quiesce over a closed scheduler", lvl, len(runs))
		}
	}
}

func TestObsoleteRunsReclaimedAfterUnpin(t *testing.T) {
	// A search pinned to a pre-merge manifest keeps the victim run files
	// alive; once it unpins, the files go (and with them any cached pages,
	// via the disk's invalidation hooks).
	ds := makeDataset(600, 54)
	l, disk := buildLSM(t, ds, false, 3, 32)

	v := l.pinView()
	before := len(disk.Files())
	runsBefore := v.man.runsIn()

	// Force merges: more inserts cascade the levels while v stays pinned.
	more := makeDataset(600, 55)
	for id := 0; id < more.Count(); id++ {
		s, _ := more.Get(id)
		if err := l.Insert(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	if l.cur.Load().man == v.man {
		t.Fatal("expected manifest swaps while pinned")
	}
	// Victim files of every transition since v must still exist: v's runs
	// are all readable.
	for _, r := range allRuns(v.man) {
		if !disk.Exists(r.File) {
			t.Fatalf("run %q reclaimed while pinned", r.File)
		}
	}
	if runsBefore == 0 || before == 0 {
		t.Fatal("test needs a non-empty pinned manifest")
	}
	st := l.CompactionStats()
	if st.RetainedManifests < 2 {
		t.Fatalf("retained manifests = %d, want >= 2 while pinned", st.RetainedManifests)
	}
	l.unpinView(v)
	st = l.CompactionStats()
	if st.RetainedManifests != 1 {
		t.Fatalf("retained manifests = %d after unpin, want 1", st.RetainedManifests)
	}
	if st.ReclaimedRuns == 0 {
		t.Fatal("no obsolete runs reclaimed after unpin")
	}
	// Everything the current manifest references exists; nothing dangling.
	for _, r := range allRuns(l.cur.Load().man) {
		if !disk.Exists(r.File) {
			t.Fatalf("live run %q missing", r.File)
		}
	}
}
