package adsplus

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/storage"
)

func testConfig(materialized bool) index.Config {
	return index.Config{SeriesLen: 64, Segments: 8, Bits: 8, Materialized: materialized}
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

func buildADS(t *testing.T, ds *series.Dataset, materialized bool) (*Tree, *storage.Disk) {
	t.Helper()
	disk := storage.NewDisk(0)
	tr, err := New(Options{Disk: disk, Config: testConfig(materialized), Raw: normStore{ds}, LeafCapacity: 64, BufferEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		gotID, err := tr.InsertID(s, int64(id))
		if err != nil {
			t.Fatal(err)
		}
		if gotID != int64(id) {
			t.Fatalf("assigned ID %d, want %d", gotID, id)
		}
	}
	return tr, disk
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
	if _, err := New(Options{}); err == nil {
		t.Fatal("missing disk should fail")
	}
	d := storage.NewDisk(0)
	if _, err := New(Options{Disk: d, Config: index.Config{}}); err == nil {
		t.Fatal("invalid config should fail")
	}
	if _, err := New(Options{Disk: d, Config: testConfig(false), LeafCapacity: -1}); err == nil {
		t.Fatal("negative leaf capacity should fail")
	}
	if _, err := New(Options{Disk: d, Config: testConfig(false), BufferEntries: -1}); err == nil {
		t.Fatal("negative buffer should fail")
	}
}

func TestNamesAndCounts(t *testing.T) {
	ds := makeDataset(100, 1)
	tr, _ := buildADS(t, ds, false)
	if tr.Name() != "ADS+" {
		t.Fatalf("name = %q", tr.Name())
	}
	if tr.Count() != 100 {
		t.Fatalf("count = %d", tr.Count())
	}
	trM, _ := buildADS(t, ds, true)
	if trM.Name() != "ADSFull" {
		t.Fatalf("materialized name = %q", trM.Name())
	}
}

func TestTreeGrowsAndSplits(t *testing.T) {
	ds := makeDataset(2000, 2)
	tr, _ := buildADS(t, ds, false)
	if tr.Splits() == 0 {
		t.Fatal("expected leaf splits with capacity 64 and 2000 series")
	}
	if tr.Leaves() < 10 {
		t.Fatalf("only %d leaves", tr.Leaves())
	}
	// Entry conservation: sum across leaves == count.
	var total int64
	tr.walk(func(n *node) {
		if n.leaf {
			total += n.onDisk + int64(len(n.buffered))
		}
	})
	if total != 2000 {
		t.Fatalf("entries across leaves = %d, want 2000", total)
	}
}

func TestLeafCapacityRespected(t *testing.T) {
	ds := makeDataset(1500, 3)
	tr, _ := buildADS(t, ds, false)
	tr.walk(func(n *node) {
		if n.leaf {
			if got := n.onDisk + int64(len(n.buffered)); got > 64 {
				// Oversized leaves are only allowed when all segments are
				// at max cardinality, which cannot happen at 8 bits here
				// until depth 64.
				t.Fatalf("leaf holds %d entries, capacity 64", got)
			}
		}
	})
}

func TestExactSearchMatchesBruteForce(t *testing.T) {
	ds := makeDataset(600, 4)
	for _, mat := range []bool{false, true} {
		tr, _ := buildADS(t, ds, mat)
		rng := rand.New(rand.NewSource(40))
		for trial := 0; trial < 15; trial++ {
			q := gen.RandomWalk(rng, 64)
			want := bruteKNN(q, ds, 5)
			got, err := tr.ExactSearch(index.NewQuery(q, testConfig(mat)), 5)
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
	ds := makeDataset(50, 5)
	disk := storage.NewDisk(0)
	tr, err := New(Options{Disk: disk, Config: testConfig(false), Raw: normStore{ds}, BufferEntries: 100000})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		tr.Insert(s, int64(id))
	}
	if tr.LeafFlushes() != 0 {
		t.Fatal("expected everything buffered")
	}
	s, _ := ds.Get(30)
	got, err := tr.ExactSearch(index.NewQuery(s, testConfig(false)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 30 || got[0].Dist > 1e-9 {
		t.Fatalf("buffered entry not found: %+v", got)
	}
}

func TestApproxSearchFindsNearDuplicates(t *testing.T) {
	ds := makeDataset(800, 6)
	tr, _ := buildADS(t, ds, true)
	rng := rand.New(rand.NewSource(60))
	hits := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		id := rng.Intn(ds.Count())
		base, _ := ds.Get(id)
		q := gen.Add(base, gen.Noise(rng, 64, 0.001))
		got, err := tr.ApproxSearch(index.NewQuery(q, testConfig(true)), 1)
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

func TestApproxSearchOnMissingRegion(t *testing.T) {
	// A query whose root subtree does not exist must still return results.
	ds := series.NewDataset(64)
	// All-increasing series cluster in one region.
	for i := 0; i < 50; i++ {
		s := make(series.Series, 64)
		for j := range s {
			s[j] = float64(j) + float64(i)*0.01
		}
		ds.Append(s)
	}
	tr, _ := buildADS(t, ds, true)
	// Query a decreasing series: opposite region.
	q := make(series.Series, 64)
	for j := range q {
		q[j] = float64(64 - j)
	}
	got, err := tr.ApproxSearch(index.NewQuery(q, testConfig(true)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results from fallback root", len(got))
	}
}

func TestSearchEmptyTree(t *testing.T) {
	tr, err := New(Options{Disk: storage.NewDisk(0), Config: testConfig(false)})
	if err != nil {
		t.Fatal(err)
	}
	q := index.NewQuery(make(series.Series, 64), testConfig(false))
	for _, f := range []func(index.Query, int) ([]index.Result, error){tr.ApproxSearch, tr.ExactSearch} {
		got, err := f(q, 3)
		if err != nil || len(got) != 0 {
			t.Fatalf("empty search: %v %v", got, err)
		}
	}
}

func TestWindowedSearch(t *testing.T) {
	ds := makeDataset(300, 7)
	tr, _ := buildADS(t, ds, false) // TS = insertion id
	s, _ := ds.Get(100)
	q := index.NewQuery(s, testConfig(false))
	got, err := tr.ExactSearch(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 100 {
		t.Fatalf("unwindowed best = %+v", got[0])
	}
	got, err = tr.ExactSearch(q.WithWindow(200, 299), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TS < 200 || got[0].TS > 299 {
		t.Fatalf("windowed result %+v", got)
	}
}

func TestConstructionIsRandomIOHeavy(t *testing.T) {
	// The baseline's defining property: flushing scattered leaves causes
	// proportionally far more random I/O than Coconut's sequential builds.
	ds := makeDataset(3000, 8)
	disk := storage.NewDisk(0)
	tr, err := New(Options{Disk: disk, Config: testConfig(false), Raw: normStore{ds}, LeafCapacity: 64, BufferEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if err := tr.Insert(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FlushBuffers(); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	rnd := st.RandReads + st.RandWrites
	seq := st.SeqReads + st.SeqWrites
	if rnd*3 < seq {
		t.Errorf("ADS+ construction: %d random vs %d sequential; expected random-heavy", rnd, seq)
	}
}

func TestFlushBuffersPersistsEverything(t *testing.T) {
	ds := makeDataset(500, 9)
	tr, _ := buildADS(t, ds, false)
	if err := tr.FlushBuffers(); err != nil {
		t.Fatal(err)
	}
	if tr.inBuf != 0 {
		t.Fatalf("inBuf = %d after FlushBuffers", tr.inBuf)
	}
	var buffered int
	tr.walk(func(n *node) {
		if n.leaf {
			buffered += len(n.buffered)
		}
	})
	if buffered != 0 {
		t.Fatalf("%d entries still buffered", buffered)
	}
	// Searches still exact after full flush.
	s, _ := ds.Get(250)
	got, err := tr.ExactSearch(index.NewQuery(s, testConfig(false)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 250 || got[0].Dist > 1e-9 {
		t.Fatalf("got %+v", got)
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	ds := makeDataset(500, 61)
	tr, _ := buildADS(t, ds, true)
	rng := rand.New(rand.NewSource(610))
	for trial := 0; trial < 8; trial++ {
		q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(true))
		for _, eps := range []float64{6, 10} {
			col := index.NewRangeCollector(eps)
			for id := 0; id < ds.Count(); id++ {
				s, _ := ds.Get(id)
				col.Add(index.Result{ID: int64(id), Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
			}
			want := col.Results()
			got, err := tr.RangeSearch(q, eps)
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

// TestEntryRoutingDoesNotAllocate pins the per-entry decode of the insert
// and split paths: recovering an entry's word from its key and reading the
// routing bits off it costs no heap allocation (it used to allocate a word
// per entry).
func TestEntryRoutingDoesNotAllocate(t *testing.T) {
	tr, _ := buildADS(t, makeDataset(10, 30), false)
	cfg := testConfig(false)
	key, _ := cfg.Summarize(gen.RandomWalk(rand.New(rand.NewSource(31)), 64))
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		var syms [sortable.MaxSegments]uint8
		w := tr.entryWord(key, &syms)
		sink += tr.rootKey(w) + uint64(segBit(w, 3, 2))
	})
	if allocs != 0 {
		t.Fatalf("routing an entry allocated %v times per run, want 0", allocs)
	}
	var syms [sortable.MaxSegments]uint8
	got, want := tr.entryWord(key, &syms), sortable.Deinterleave(key, cfg.Segments, cfg.Bits)
	if string(got.Symbols) != string(want.Symbols) || got.Bits != want.Bits {
		t.Fatalf("entryWord %v, Deinterleave %v", got, want)
	}
}
