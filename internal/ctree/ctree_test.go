package ctree

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fsx"
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

// testPool fans the tests' searches out on GOMAXPROCS workers, so the
// parallel scan runs whenever the test binary has several procs.
var testPool = parallel.New(0)

// exactSearch, approxSearch and rangeSearch search tr through the entries
// on testPool.
func exactSearch(tr *Tree, q index.Query, k int) ([]index.Result, error) {
	return index.Rendered(index.Into(q, tr.Config(), testPool, nil, nil, index.NewCollector(k), tr.ExactInto))
}

func approxSearch(tr *Tree, q index.Query, k int) ([]index.Result, error) {
	return index.Rendered(index.Into(q, tr.Config(), testPool, nil, nil, index.NewCollector(k), tr.ApproxInto))
}

func rangeSearch(tr *Tree, q index.Query, eps float64) ([]index.Result, error) {
	return index.Rendered(index.Into(q, tr.Config(), testPool, nil, nil, index.NewRangeCollector(eps), tr.RangeInto))
}

// normStore wraps a dataset, z-normalizing on access, matching the
// convention that indexes store z-normalized data.
type normStore struct{ d *series.Dataset }

func (n normStore) Get(id int) (series.Series, error) {
	s, err := n.d.Get(id)
	if err != nil {
		return nil, err
	}
	return s.ZNormalize(), nil
}
func (n normStore) Count() int { return n.d.Count() }

func buildDataset(t *testing.T, n int, seed int64) *series.Dataset {
	t.Helper()
	d := series.NewDataset(64)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		d.Append(gen.RandomWalk(rng, 64))
	}
	return d
}

func buildTree(t *testing.T, ds *series.Dataset, materialized bool, fill float64) (*Tree, *storage.Disk) {
	t.Helper()
	disk := storage.NewDisk(0)
	opts := Options{
		Disk:       disk,
		Config:     testConfig(materialized),
		FillFactor: fill,
		Raw:        normStore{ds},
	}
	tr, err := Build(opts, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, disk
}

// bruteKNN computes ground-truth nearest neighbors by linear scan over
// z-normalized series.
func bruteKNN(q series.Series, ds *series.Dataset, k int) []index.Result {
	col := index.NewCollector(k)
	zq := q.ZNormalize()
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		d := math.Sqrt(zq.SqDist(s.ZNormalize()))
		col.Add(index.Result{ID: int64(id), Dist: d})
	}
	return col.Results()
}

func TestBuildBasics(t *testing.T) {
	ds := buildDataset(t, 1000, 1)
	tr, _ := buildTree(t, ds, false, 1.0)
	if tr.Count() != 1000 {
		t.Fatalf("count = %d", tr.Count())
	}
	if tr.Name() != "CTree" {
		t.Fatalf("name = %q", tr.Name())
	}
	if tr.Leaves() == 0 {
		t.Fatal("no leaves")
	}
	trM, _ := buildTree(t, ds, true, 1.0)
	if trM.Name() != "CTreeFull" {
		t.Fatalf("materialized name = %q", trM.Name())
	}
	// Materialized entries are bigger, so more leaves.
	if trM.Leaves() <= tr.Leaves() {
		t.Fatalf("materialized leaves %d <= non-materialized %d", trM.Leaves(), tr.Leaves())
	}
}

func TestBuildEmptyAndOptionValidation(t *testing.T) {
	ds := series.NewDataset(64)
	tr, _ := buildTree(t, ds, false, 1.0)
	if tr.Count() != 0 {
		t.Fatal("empty build should have 0 entries")
	}
	res, err := exactSearch(tr, index.NewQuery(make(series.Series, 64), testConfig(false)), 5)
	if err != nil || len(res) != 0 {
		t.Fatalf("search on empty tree: %v %v", res, err)
	}
	if _, err := Build(Options{}, ds, 0); err == nil {
		t.Fatal("missing disk should fail")
	}
	if _, err := Build(Options{Disk: storage.NewDisk(0), Config: testConfig(false), FillFactor: 1.5}, ds, 0); err == nil {
		t.Fatal("bad fill factor should fail")
	}
	if _, err := Build(Options{Disk: storage.NewDisk(0), Config: index.Config{}}, ds, 0); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestLeavesInKeyOrder(t *testing.T) {
	ds := buildDataset(t, 2000, 2)
	tr, _ := buildTree(t, ds, false, 1.0)
	m := tr.leaves.Sum
	total := 0
	for li := 0; li < tr.Leaves(); li++ {
		entries, err := tr.readLeaf(li)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != m.Entries(li) {
			t.Fatalf("leaf %d count mismatch", li)
		}
		if entries[0].Key != m.FirstKey(li) {
			t.Fatalf("leaf %d fence key mismatch", li)
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].Less(entries[i-1]) {
				t.Fatalf("leaf %d not internally sorted", li)
			}
		}
		if li > 0 && entries[0].Key.Less(m.FirstKey(li-1)) {
			t.Fatalf("leaf %d out of order with previous", li)
		}
		total += len(entries)
	}
	if total != 2000 {
		t.Fatalf("total entries %d", total)
	}
}

func TestFillFactorLeafCount(t *testing.T) {
	ds := buildDataset(t, 2000, 3)
	full, _ := buildTree(t, ds, false, 1.0)
	half, _ := buildTree(t, ds, false, 0.5)
	if half.Leaves() <= full.Leaves() {
		t.Fatalf("fill 0.5 leaves %d <= fill 1.0 leaves %d", half.Leaves(), full.Leaves())
	}
	// Roughly double.
	ratio := float64(half.Leaves()) / float64(full.Leaves())
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("leaf ratio = %v, want ~2", ratio)
	}
}

func TestExactSearchMatchesBruteForce(t *testing.T) {
	ds := buildDataset(t, 500, 4)
	for _, mat := range []bool{false, true} {
		tr, _ := buildTree(t, ds, mat, 1.0)
		rng := rand.New(rand.NewSource(40))
		for trial := 0; trial < 20; trial++ {
			q := gen.RandomWalk(rng, 64)
			want := bruteKNN(q, ds, 5)
			got, err := exactSearch(tr, index.NewQuery(q, testConfig(mat)), 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("mat=%v trial %d: got %d results, want %d", mat, trial, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("mat=%v trial %d result %d: dist %v, want %v (id %d vs %d)",
						mat, trial, i, got[i].Dist, want[i].Dist, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

func TestExactSearchSelfQuery(t *testing.T) {
	ds := buildDataset(t, 300, 5)
	tr, _ := buildTree(t, ds, false, 1.0)
	// Querying with a stored series must return it at distance ~0.
	s, _ := ds.Get(123)
	got, err := exactSearch(tr, index.NewQuery(s, testConfig(false)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 123 || got[0].Dist > 1e-9 {
		t.Fatalf("self query = %+v", got)
	}
}

func TestApproxSearchQuality(t *testing.T) {
	ds := buildDataset(t, 1000, 6)
	tr, _ := buildTree(t, ds, true, 1.0)
	rng := rand.New(rand.NewSource(60))
	// Approximate search on a slightly perturbed stored series should find
	// the original most of the time (they share a summarization region).
	hits := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		id := rng.Intn(ds.Count())
		base, _ := ds.Get(id)
		q := gen.Add(base, gen.Noise(rng, 64, 0.001))
		got, err := approxSearch(tr, index.NewQuery(q, testConfig(true)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 1 && got[0].ID == int64(id) {
			hits++
		}
	}
	if hits < trials*5/10 {
		t.Errorf("approximate search found the planted neighbor %d/%d times", hits, trials)
	}
}

func TestApproxSearchReturnsK(t *testing.T) {
	ds := buildDataset(t, 500, 7)
	tr, _ := buildTree(t, ds, false, 1.0)
	q := index.NewQuery(gen.RandomWalk(rand.New(rand.NewSource(70)), 64), testConfig(false))
	got, err := approxSearch(tr, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("approx returned %d results, want 10", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestApproxSearchFewerThanK(t *testing.T) {
	ds := buildDataset(t, 3, 8)
	tr, _ := buildTree(t, ds, false, 1.0)
	q := index.NewQuery(gen.RandomWalk(rand.New(rand.NewSource(80)), 64), testConfig(false))
	got, err := approxSearch(tr, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results, want all 3", len(got))
	}
}

// TestTracedLeavesAreLeavesRead: a traced search's "leaf" kind counts the
// leaves it read, each read once, and skips none in its approximate phase:
// on a leaf level of 143 pages, probed at the covering leaf and its
// neighbours; on one of 343 pages, whose approximate probe reads the leaves
// its summary ranks best (run.Store.RanksLeaves), at most its budget of two,
// enough for k = 5; and on one of 1 200 pages of two entries, whose
// eight ranked leaves hold fewer than k = 20, so that its probe goes on
// from the covering leaf. An exact search's count is its approximate
// phase's plus the pages its scan read.
func TestTracedLeavesAreLeavesRead(t *testing.T) {
	for _, c := range []struct {
		series int
		fill   float64
		k      int
		leaves int
		ranked bool
		// The approximate phase's fewest and most reads; 0: unchecked.
		least, most int
	}{{1000, 1, 5, 143, false, 0, 0}, {2400, 1, 5, 343, true, 0, 2}, {2400, 0.3, 20, 1200, true, 9, 0}} {
		ds := buildDataset(t, c.series, 9)
		tr, disk := buildTree(t, ds, true, c.fill)
		if tr.Leaves() != c.leaves || tr.store.RanksLeaves(tr.leaves) != c.ranked {
			t.Fatalf("fixture: %d leaves, ranks them %v", tr.Leaves(), tr.store.RanksLeaves(tr.leaves))
		}
		rng := rand.New(rand.NewSource(91))
		for i := 0; i < 20; i++ {
			q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(true))
			for _, mode := range []struct {
				name   string
				search func(index.Query, *index.Collector, *index.SearchCtx) error
			}{{"approx", tr.ApproxInto}, {"exact", tr.ExactInto}} {
				q.Trace, q.Tally = obs.NewQueryTrace(), new(obs.Tally)
				before := disk.Stats()
				if _, err := index.Into(q, tr.Config(), nil, nil, nil, index.NewCollector(c.k), mode.search); err != nil {
					t.Fatal(err)
				}
				reads := disk.Stats().Sub(before).Reads()
				var leaf obs.KindCount
				for _, k := range q.Trace.Snapshot(q.Tally).Kinds {
					if k.Kind == "leaf" {
						leaf = k
					}
				}
				if leaf.Probed != reads || reads == 0 || mode.name == "approx" && (leaf.Skipped != 0 || reads < int64(c.least) || c.most > 0 && reads > int64(c.most)) {
					t.Fatalf("%d leaves, query %d, %s: %d leaves read, trace %+v", c.leaves, i, mode.name, reads, leaf)
				}
			}
		}
	}
}

// TestApproxSearchRankedReturnsK: a tree whose ranked leaves hold fewer
// entries than k answers an approximate search with k results all the same:
// 1 200 leaves of two entries, eight of them ranked, and k from 1 to past
// the ranked leaves' sixteen entries. A key-only tree of 400 leaves of six
// entries, which does not rank them, answers with k as well.
func TestApproxSearchRankedReturnsK(t *testing.T) {
	ds := buildDataset(t, 2400, 12)
	rng := rand.New(rand.NewSource(120))
	for _, materialized := range []bool{true, false} {
		fill := 0.05
		if materialized {
			fill = 0.3
		}
		tr, _ := buildTree(t, ds, materialized, fill)
		if tr.store.RanksLeaves(tr.leaves) != materialized || tr.Leaves() < 256 {
			t.Fatalf("fixture: materialized %v, %d leaves, ranks them %v", materialized, tr.Leaves(), tr.store.RanksLeaves(tr.leaves))
		}
		for trial := 0; trial < 20; trial++ {
			q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(materialized))
			for _, k := range []int{1, 10, 16, 17, 50} {
				got, err := approxSearch(tr, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("materialized %v, query %d: approx returned %d results, want %d", materialized, trial, len(got), k)
				}
			}
		}
	}
}

func TestExactBeatsOrEqualsApprox(t *testing.T) {
	ds := buildDataset(t, 800, 9)
	tr, _ := buildTree(t, ds, true, 1.0)
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 20; trial++ {
		q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(true))
		ap, err := approxSearch(tr, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := exactSearch(tr, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex) > 0 && len(ap) > 0 && ex[0].Dist > ap[0].Dist+1e-9 {
			t.Fatalf("trial %d: exact %v worse than approx %v", trial, ex[0].Dist, ap[0].Dist)
		}
	}
}

func TestInsertThenSearch(t *testing.T) {
	ds := buildDataset(t, 400, 10)
	// Fill factor 0.5 leaves room for inserts.
	disk := storage.NewDisk(0)
	cfg := testConfig(true)
	tr, err := Build(Options{Disk: disk, Config: cfg, FillFactor: 0.5}, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	extra := make([]series.Series, 50)
	for i := range extra {
		extra[i] = gen.RandomWalk(rng, 64)
		if err := tr.Insert(extra[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != 450 {
		t.Fatalf("count after inserts = %d", tr.Count())
	}
	// Each inserted series must now be findable exactly.
	for i, s := range extra {
		got, err := exactSearch(tr, index.NewQuery(s, cfg), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Dist > 1e-9 {
			t.Fatalf("inserted series %d not found: %+v", i, got)
		}
		if got[0].TS != 1 {
			t.Fatalf("inserted series %d TS = %d", i, got[0].TS)
		}
	}
}

func TestInsertSplits(t *testing.T) {
	ds := buildDataset(t, 500, 11)
	disk := storage.NewDisk(0)
	cfg := testConfig(true) // big entries, few per page -> splits happen fast
	tr, err := Build(Options{Disk: disk, Config: cfg, FillFactor: 1.0}, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Leaves()
	rng := rand.New(rand.NewSource(110))
	for i := 0; i < 100; i++ {
		if err := tr.Insert(gen.RandomWalk(rng, 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Leaves() <= before {
		t.Fatalf("full tree did not split: %d -> %d leaves", before, tr.Leaves())
	}
	// Directory still in key order and searches still correct vs brute force
	// over a reconstructed view: verify self-queries.
	for li := 1; li < tr.Leaves(); li++ {
		if tr.leaves.Sum.FirstKey(li).Less(tr.leaves.Sum.FirstKey(li - 1)) {
			t.Fatal("fence keys out of order after splits")
		}
	}
}

// TestInsertRejectsMisreadLeaf: an insert reads its leaf before it writes
// anything. A leaf that cannot be read — a read fault on the file-backed
// disk — fails the insert with the read's error, with no page written and
// the tree's count and leaves as they were; once the fault clears, the same
// insert goes through and every leaf's envelope is still its entries'.
func TestInsertRejectsMisreadLeaf(t *testing.T) {
	ds := buildDataset(t, 300, 12)
	for _, mat := range []bool{false, true} {
		t.Run(map[bool]string{false: "key-only", true: "materialized"}[mat], func(t *testing.T) {
			fsys := fsx.NewMemFS()
			disk, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "store", PageSize: 1024, FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			tr, err := Build(Options{Disk: disk, Name: "t", Config: testConfig(mat), Raw: normStore{ds}}, ds, 0)
			if err != nil {
				t.Fatal(err)
			}
			count, leaves, writes := tr.Count(), tr.Leaves(), disk.Stats().Writes()
			fsys.SetFaultHook(func(op, path string) error {
				if op == "read" && strings.Contains(path, "t.leaves") {
					return fsx.ErrInjected
				}
				return nil
			})
			s := gen.RandomWalk(rand.New(rand.NewSource(13)), 64)
			if err := tr.Insert(s, 0); !errors.Is(err, fsx.ErrInjected) {
				t.Fatalf("insert into a leaf that cannot be read: err %v, want the injected fault", err)
			}
			if w := disk.Stats().Writes() - writes; w != 0 || tr.Count() != count || tr.Leaves() != leaves {
				t.Fatalf("the failed insert wrote %d pages, count %d -> %d, leaves %d -> %d", w, count, tr.Count(), leaves, tr.Leaves())
			}
			fsys.SetFaultHook(nil)
			if err := tr.Insert(s, 0); err != nil {
				t.Fatal(err)
			}
			if tr.Count() != count+1 {
				t.Fatalf("count %d after one insert into %d", tr.Count(), count)
			}
			if err := tr.store.Verify(tr.leaves); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStatisticsStayExactUnderInserts holds the planner statistics to a
// rebuild from the leaves after bulk load, in-place inserts and splits, in
// trees materialized or not: every leaf's symbol envelope
// (run.Store.Verify) and the tree synopsis equal what folding the leaf's
// entries one by one gives. An insert that fits widens its leaf's envelope
// by the new entry alone; this is the check that doing so loses nothing.
func TestStatisticsStayExactUnderInserts(t *testing.T) {
	for _, mat := range []bool{false, true} {
		t.Run(map[bool]string{false: "key-only", true: "materialized"}[mat], func(t *testing.T) {
			ds := buildDataset(t, 500, 12)
			tr := buildShape(t, ds, mat, 0.7, 0)
			before := tr.Leaves()
			rng := rand.New(rand.NewSource(120))
			for i := 0; i < 300; i++ {
				if err := tr.Insert(gen.RandomWalk(rng, 64), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Leaves() <= before {
				t.Fatalf("no split in %d inserts", 300)
			}
			if err := tr.store.Verify(tr.leaves); err != nil {
				t.Fatal(err)
			}
			whole := foldLeaves(t, tr)
			got := tr.leaves.Syn
			if got.Count != whole.Count || got.MinTS != whole.MinTS || got.MaxTS != whole.MaxTS ||
				string(got.MinSym) != string(whole.MinSym) || string(got.MaxSym) != string(whole.MaxSym) {
				t.Fatalf("tree synopsis %+v, rebuilt %+v", got, whole)
			}
		})
	}
}

func TestInsertIntoEmptyTree(t *testing.T) {
	disk := storage.NewDisk(0)
	cfg := testConfig(true)
	tr, err := Build(Options{Disk: disk, Config: cfg}, series.NewDataset(64), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := gen.RandomWalk(rand.New(rand.NewSource(120)), 64)
	if err := tr.Insert(s, 5); err != nil {
		t.Fatal(err)
	}
	got, err := exactSearch(tr, index.NewQuery(s, cfg), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Dist > 1e-9 || got[0].TS != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestWindowedSearch(t *testing.T) {
	// Build with per-ID timestamps, then restrict queries by window.
	ds := buildDataset(t, 200, 12)
	disk := storage.NewDisk(0)
	cfg := testConfig(true)
	tr, err := BuildTS(Options{Disk: disk, Config: cfg}, ds, func(id int) int64 { return int64(id) })
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ds.Get(50)
	q := index.NewQuery(s, cfg)
	// Unwindowed: finds ID 50 at distance 0.
	got, _ := exactSearch(tr, q, 1)
	if got[0].ID != 50 {
		t.Fatalf("unwindowed best = %d", got[0].ID)
	}
	// Window excluding TS 50: must not return it.
	got, err = exactSearch(tr, q.WithWindow(100, 199), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID == 50 || got[0].TS < 100 {
		t.Fatalf("windowed search returned %+v", got)
	}
	// Approximate honors windows too.
	ap, err := approxSearch(tr, q.WithWindow(100, 199), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ap {
		if r.TS < 100 || r.TS > 199 {
			t.Fatalf("approx result outside window: %+v", r)
		}
	}
}

func TestBuildSequentialIO(t *testing.T) {
	// Construction must be dominated by sequential I/O: that is the claim.
	ds := buildDataset(t, 5000, 13)
	disk := storage.NewDisk(0)
	tr, err := Build(Options{Disk: disk, Config: testConfig(false), Raw: normStore{ds}}, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr
	st := disk.Stats()
	seq := st.SeqReads + st.SeqWrites
	rnd := st.RandReads + st.RandWrites
	if seq < 20*rnd {
		t.Errorf("construction I/O: %d sequential vs %d random; expected overwhelmingly sequential", seq, rnd)
	}
}

func TestExactSearchPrunes(t *testing.T) {
	// With materialized entries the exact search should compute true
	// distances for far fewer entries than the dataset size. We proxy this
	// via I/O: the scan reads each leaf page once, sequentially.
	ds := buildDataset(t, 3000, 14)
	tr, disk := buildTree(t, ds, true, 1.0)
	q := index.NewQuery(gen.RandomWalk(rand.New(rand.NewSource(140)), 64), testConfig(true))
	disk.ResetStats()
	if _, err := exactSearch(tr, q, 1); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	// Leaf file scan: ~Leaves() reads; approx adds a couple.
	maxReads := int64(tr.Leaves()) + 10
	if st.Reads() > maxReads {
		t.Errorf("exact search read %d pages, want <= %d", st.Reads(), maxReads)
	}
	if st.Writes() != 0 {
		t.Errorf("search performed %d writes", st.Writes())
	}
}
