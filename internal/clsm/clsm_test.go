package clsm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/storage"
)

func testConfig(materialized bool) index.Config {
	return index.Config{SeriesLen: 64, Segments: 8, Bits: 8, Materialized: materialized}
}

// testPool fans the tests' searches out on GOMAXPROCS workers, so the run
// fan-out runs whenever the test binary has several procs.
var testPool = parallel.New(0)

// exactSearch, approxSearch and rangeSearch search l through the entries on
// testPool.
func exactSearch(l *LSM, q index.Query, k int) ([]index.Result, error) {
	return index.Rendered(index.Into(q, l.Config(), testPool, nil, nil, index.NewCollector(k), l.ExactInto))
}

func approxSearch(l *LSM, q index.Query, k int) ([]index.Result, error) {
	return index.Rendered(index.Into(q, l.Config(), testPool, nil, nil, index.NewCollector(k), l.ApproxInto))
}

func rangeSearch(l *LSM, q index.Query, eps float64) ([]index.Result, error) {
	return index.Rendered(index.Into(q, l.Config(), testPool, nil, nil, index.NewRangeCollector(eps), l.RangeInto))
}

type normStore struct{ d *series.Dataset }

func (n normStore) Get(id int) (series.Series, error) {
	s, err := n.d.Get(id)
	if err != nil {
		return nil, err
	}
	return s.ZNormalize(), nil
}
func (n normStore) Count() int { return n.d.Count() }

func makeDataset(n int, seed int64) *series.Dataset {
	d := series.NewDataset(64)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		d.Append(gen.RandomWalk(rng, 64))
	}
	return d
}

func buildLSM(t *testing.T, ds *series.Dataset, materialized bool, growth, bufEntries int) (*LSM, *storage.Disk) {
	t.Helper()
	disk := storage.NewDisk(0)
	l, err := Open(Options{
		Disk:          disk,
		Config:        testConfig(materialized),
		GrowthFactor:  growth,
		BufferEntries: bufEntries,
		Raw:           normStore{ds},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if err := l.Insert(s, int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	return l, disk
}

// TestBufferCandidatesTraced: the write buffer is evaluated like any page of
// entries, so a traced search over a CLSM that holds only buffered entries
// reports every in-window entry as a candidate seen.
func TestBufferCandidatesTraced(t *testing.T) {
	ds := makeDataset(300, 5)
	l, _ := buildLSM(t, ds, true, 4, 1000) // entry i at TS i, none flushed
	if l.Runs() != 0 {
		t.Fatalf("fixture: %d runs, want the buffer alone", l.Runs())
	}
	s, _ := ds.Get(150)
	for _, c := range []struct {
		q    index.Query
		seen int64
	}{
		{index.NewQuery(s, l.Config()), 300},
		{index.NewQuery(s, l.Config()).WithWindow(100, 199), 100},
	} {
		c.q.Trace = obs.NewQueryTrace()
		if _, err := exactSearch(l, c.q, 5); err != nil {
			t.Fatal(err)
		}
		if got := c.q.Trace.Snapshot(new(obs.Tally)).Candidates.Seen; got != c.seen {
			t.Errorf("window %v: %d candidates seen, want the %d in-window entries", c.q.Windowed, got, c.seen)
		}
	}
}

func bruteKNN(q series.Series, ds *series.Dataset, k int) []index.Result {
	col := index.NewCollector(k)
	zq := q.ZNormalize()
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		col.Add(index.Result{ID: int64(id), Dist: math.Sqrt(zq.SqDist(s.ZNormalize()))})
	}
	return col.Results()
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("missing disk should fail")
	}
	d := storage.NewDisk(0)
	if _, err := Open(Options{Disk: d, Config: testConfig(false), GrowthFactor: 1}); err == nil {
		t.Fatal("growth factor 1 should fail")
	}
	if _, err := Open(Options{Disk: d, Config: testConfig(false), BufferEntries: -1}); err == nil {
		t.Fatal("negative buffer should fail")
	}
	if _, err := Open(Options{Disk: d, Config: index.Config{}}); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestNameAndCounters(t *testing.T) {
	ds := makeDataset(10, 1)
	l, _ := buildLSM(t, ds, false, 4, 100)
	if l.Name() != "CLSM" {
		t.Fatalf("name = %q", l.Name())
	}
	if l.Count() != 10 {
		t.Fatalf("count = %d", l.Count())
	}
	lm, _ := buildLSM(t, ds, true, 4, 100)
	if lm.Name() != "CLSMFull" {
		t.Fatalf("materialized name = %q", lm.Name())
	}
}

func TestFlushAndMergeCascade(t *testing.T) {
	ds := makeDataset(1000, 2)
	l, _ := buildLSM(t, ds, false, 4, 50) // 20 flushes -> cascading merges
	if l.Flushes() != 20 {
		t.Fatalf("flushes = %d, want 20", l.Flushes())
	}
	if l.Merges() == 0 {
		t.Fatal("expected merges")
	}
	// Tiering invariant: every level has fewer than GrowthFactor runs.
	for lvl, runs := range l.cur.Load().man.levels {
		if len(runs) >= 4 {
			t.Fatalf("level %d holds %d runs, growth factor 4", lvl, len(runs))
		}
	}
	if l.Depth() < 2 {
		t.Fatalf("depth = %d, want >= 2 after 20 flushes", l.Depth())
	}
	// Total entries across runs + buffer must equal count.
	var total int64
	for _, r := range allRuns(l.cur.Load().man) {
		total += r.Count
	}
	total += int64(l.buffer.Len())
	if total != 1000 {
		t.Fatalf("entries across runs+buffer = %d, want 1000", total)
	}
}

func TestGrowthFactorControlsRunCount(t *testing.T) {
	ds := makeDataset(2000, 3)
	small, _ := buildLSM(t, ds, false, 2, 50)  // aggressive merging, few runs
	large, _ := buildLSM(t, ds, false, 10, 50) // lazy merging, many runs
	if small.Runs() >= large.Runs() {
		t.Fatalf("T=2 runs %d >= T=10 runs %d", small.Runs(), large.Runs())
	}
	if small.Merges() <= large.Merges() {
		t.Fatalf("T=2 merges %d <= T=10 merges %d", small.Merges(), large.Merges())
	}
}

func TestExactSearchMatchesBruteForce(t *testing.T) {
	ds := makeDataset(600, 4)
	for _, mat := range []bool{false, true} {
		l, _ := buildLSM(t, ds, mat, 3, 64)
		rng := rand.New(rand.NewSource(40))
		for trial := 0; trial < 15; trial++ {
			q := gen.RandomWalk(rng, 64)
			want := bruteKNN(q, ds, 5)
			got, err := exactSearch(l, index.NewQuery(q, testConfig(mat)), 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("mat=%v trial %d: %d results, want %d", mat, trial, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("mat=%v trial %d result %d: %v vs %v", mat, trial, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestExactSearchSeesBufferedEntries(t *testing.T) {
	// Entries still in the write buffer (never flushed) must be findable.
	ds := makeDataset(10, 5)
	l, _ := buildLSM(t, ds, false, 4, 1000) // buffer never fills
	if l.Flushes() != 0 {
		t.Fatal("expected no flushes")
	}
	s, _ := ds.Get(7)
	got, err := exactSearch(l, index.NewQuery(s, testConfig(false)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 7 || got[0].Dist > 1e-9 {
		t.Fatalf("buffered entry not found: %+v", got)
	}
}

func TestApproxSearchFindsNearDuplicates(t *testing.T) {
	ds := makeDataset(800, 6)
	l, _ := buildLSM(t, ds, true, 4, 64)
	rng := rand.New(rand.NewSource(60))
	hits := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		id := rng.Intn(ds.Count())
		base, _ := ds.Get(id)
		q := gen.Add(base, gen.Noise(rng, 64, 0.001))
		got, err := approxSearch(l, index.NewQuery(q, testConfig(true)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 1 && got[0].ID == int64(id) {
			hits++
		}
	}
	if hits < trials/2 {
		t.Errorf("approx found planted neighbor %d/%d", hits, trials)
	}
}

func TestWindowedSearch(t *testing.T) {
	ds := makeDataset(300, 7)
	l, _ := buildLSM(t, ds, false, 4, 32) // TS = insertion id
	s, _ := ds.Get(100)
	q := index.NewQuery(s, testConfig(false))
	got, err := exactSearch(l, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 100 {
		t.Fatalf("unwindowed best = %+v", got[0])
	}
	got, err = exactSearch(l, q.WithWindow(200, 299), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TS < 200 || got[0].TS > 299 {
		t.Fatalf("windowed result %+v", got)
	}
}

func TestIngestIsSequentialIO(t *testing.T) {
	ds := makeDataset(5000, 8)
	disk := storage.NewDisk(0)
	// A realistically sized write buffer (8 pages per run) keeps the flush
	// and merge streams long relative to the seeks between them.
	l, err := Open(Options{Disk: disk, Config: testConfig(false), GrowthFactor: 4, BufferEntries: 1024, Raw: normStore{ds}})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if err := l.Insert(s, int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	st := disk.Stats()
	seq := st.SeqReads + st.SeqWrites
	rnd := st.RandReads + st.RandWrites
	// Merges seek once per input run (a random read each); everything else
	// is streaming, so sequential I/O must still dominate clearly.
	if seq < 5*rnd {
		t.Errorf("ingest I/O %d sequential vs %d random; log-structured writes should dominate", seq, rnd)
	}
}

func TestFlushIdempotentOnEmpty(t *testing.T) {
	d := storage.NewDisk(0)
	l, _ := Open(Options{Disk: d, Config: testConfig(false)})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.Flushes() != 0 {
		t.Fatal("empty flush should not count")
	}
}

func TestSearchEmptyLSM(t *testing.T) {
	d := storage.NewDisk(0)
	l, _ := Open(Options{Disk: d, Config: testConfig(false)})
	q := index.NewQuery(make(series.Series, 64), testConfig(false))
	got, err := exactSearch(l, q, 3)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty search: %v %v", got, err)
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	ds := makeDataset(500, 60)
	l, _ := buildLSM(t, ds, true, 3, 64)
	rng := rand.New(rand.NewSource(600))
	for trial := 0; trial < 8; trial++ {
		q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(true))
		for _, eps := range []float64{6, 10} {
			col := index.NewRangeCollector(eps)
			for id := 0; id < ds.Count(); id++ {
				s, _ := ds.Get(id)
				col.Add(index.Result{ID: int64(id), Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
			}
			want := col.Results()
			got, err := rangeSearch(l, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("eps=%v: %d results, want %d", eps, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("eps=%v result %d: %+v vs %+v", eps, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	ds := makeDataset(700, 70)
	for _, mat := range []bool{false, true} {
		l, disk := buildLSM(t, ds, mat, 3, 64)
		if err := l.Save(); err != nil {
			t.Fatal(err)
		}
		got, err := Open(Options{Disk: disk, Raw: normStore{ds}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() != l.Count() || got.Runs() != l.Runs() || got.Depth() != l.Depth() {
			t.Fatalf("mat=%v: reopened count=%d runs=%d depth=%d, want %d/%d/%d",
				mat, got.Count(), got.Runs(), got.Depth(), l.Count(), l.Runs(), l.Depth())
		}
		// The synopses and resident summaries Open rebuilt from the run
		// files are the ones the flushes and merges built as they wrote
		// them.
		if !reflect.DeepEqual(allRuns(got.cur.Load().man), allRuns(l.cur.Load().man)) {
			t.Fatalf("mat=%v: reopened runs differ from the saved ones", mat)
		}
		live, _ := l.PlanSynopses()
		if syns, complete := got.PlanSynopses(); !complete || !reflect.DeepEqual(syns, live) {
			t.Fatalf("mat=%v: reopened synopses %+v (complete=%v), the live ones %+v", mat, syns, complete, live)
		}
		rng := rand.New(rand.NewSource(700))
		for trial := 0; trial < 8; trial++ {
			q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(mat))
			want, err := exactSearch(l, q, 3)
			if err != nil {
				t.Fatal(err)
			}
			have, err := exactSearch(got, q, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if want[i].ID != have[i].ID || math.Abs(want[i].Dist-have[i].Dist) > 1e-12 {
					t.Fatalf("mat=%v trial %d: %+v vs %+v", mat, trial, want[i], have[i])
				}
			}
		}
		// Reopened LSM keeps ingesting with fresh IDs and consistent state.
		s, _ := ds.Get(0)
		if err := got.Insert(s, 99); err != nil {
			t.Fatal(err)
		}
		if got.Count() != l.Count()+1 {
			t.Fatalf("count after insert = %d", got.Count())
		}
	}
}

func TestOpenErrors(t *testing.T) {
	d := storage.NewDisk(0)
	if _, err := Open(Options{Name: "x"}); err == nil {
		t.Fatal("nil disk should fail")
	}
	if _, err := Open(Options{Disk: d, Name: "missing"}); err == nil {
		t.Fatal("missing meta should fail")
	}
	d.Create("bad.meta")
	d.AppendPage("bad.meta", []byte("WRONGMAG000000000000"))
	if _, err := Open(Options{Disk: d, Name: "bad"}); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestOpenDetectsMissingRun(t *testing.T) {
	ds := makeDataset(300, 71)
	l, disk := buildLSM(t, ds, false, 3, 64)
	if err := l.Save(); err != nil {
		t.Fatal(err)
	}
	// Remove one run file.
	for _, f := range disk.Files() {
		if f != "clsm.meta" {
			disk.Remove(f)
			break
		}
	}
	if _, err := Open(Options{Disk: disk, Raw: normStore{ds}}); err == nil {
		t.Fatal("missing run should fail")
	}
}
