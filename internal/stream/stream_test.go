package stream

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/adsplus"
	"repro/internal/clsm"
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
// partition fan-out runs whenever the test binary has several procs.
var testPool = parallel.New(0)

// search runs a scheme's core through the search entry on pool under pl,
// folding its record into total.
func search(core func(index.Query, *index.Collector, *index.SearchCtx) error, q index.Query, k int, pool *parallel.Pool, pl *index.Planner, total *obs.Tally) ([]index.Result, error) {
	return index.Rendered(index.Into(q, testConfig(false), pool, pl, total, index.NewCollector(k), core))
}

// exactSearch and approxSearch search idx on testPool under the default
// planner.
func exactSearch(idx index.Index, q index.Query, k int) ([]index.Result, error) {
	return search(idx.ExactInto, q, k, testPool, nil, nil)
}

func approxSearch(idx index.Index, q index.Query, k int) ([]index.Result, error) {
	return search(idx.ApproxInto, q, k, testPool, nil, nil)
}

// ingester is what a stream is ingested into: a scheme, or the plain index
// that is the PP scheme.
type ingester interface {
	index.Index
	index.Inserter
}

// memRaw collects ingested z-normalized series as the schemes' raw store.
type memRaw struct{ ss []series.Series }

func (m *memRaw) Get(id int) (series.Series, error) { return m.ss[id], nil }
func (m *memRaw) Count() int                        { return len(m.ss) }
func (m *memRaw) add(s series.Series)               { m.ss = append(m.ss, s.ZNormalize()) }

// streamData generates a deterministic timestamped stream.
func streamData(n int, seed int64) ([]series.Series, []int64) {
	rng := rand.New(rand.NewSource(seed))
	ss := make([]series.Series, n)
	ts := make([]int64, n)
	for i := range ss {
		ss[i] = gen.RandomWalk(rng, 64)
		ts[i] = int64(i) // one arrival per tick
	}
	return ss, ts
}

// ingestAll pushes the stream through a scheme or a plain index, mirroring
// series into raw: each takes the next dense ID.
func ingestAll(t *testing.T, sc ingester, raw *memRaw, ss []series.Series, ts []int64) {
	t.Helper()
	for i, s := range ss {
		raw.add(s)
		if err := sc.Insert(s, ts[i]); err != nil {
			t.Fatal(err)
		}
		if n := sc.Count(); n != int64(i+1) {
			t.Fatalf("ingest %d left the count at %d", i, n)
		}
	}
}

// bruteWindowKNN is ground truth: linear scan restricted to the window.
func bruteWindowKNN(q series.Series, ss []series.Series, ts []int64, minTS, maxTS int64, k int) []index.Result {
	col := index.NewCollector(k)
	zq := q.ZNormalize()
	for i, s := range ss {
		if ts[i] < minTS || ts[i] > maxTS {
			continue
		}
		col.Add(index.Result{ID: int64(i), TS: ts[i], Dist: math.Sqrt(zq.SqDist(s.ZNormalize()))})
	}
	return col.Results()
}

// The PP scheme is its base index, ingesting in arrival order: its rows
// are a plain CLSM and a plain ADS+.
func newPPCLSM(t *testing.T, raw *memRaw, mat bool) *clsm.LSM {
	t.Helper()
	disk := storage.NewDisk(0)
	base, err := clsm.Open(clsm.Options{Disk: disk, Config: testConfig(mat), BufferEntries: 128, Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func newPPADS(t *testing.T, raw *memRaw, mat bool) *adsplus.Tree {
	t.Helper()
	disk := storage.NewDisk(0)
	base, err := adsplus.New(adsplus.Options{Disk: disk, Config: testConfig(mat), Raw: raw, LeafCapacity: 64, BufferEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func schemes(t *testing.T, raw *memRaw, mat bool) map[string]ingester {
	t.Helper()
	out := map[string]ingester{
		"PP-CLSM": newPPCLSM(t, raw, mat),
		"PP-ADS":  newPPADS(t, raw, mat),
	}
	diskTP := storage.NewDisk(0)
	tp, err := NewTP("CTree", testConfig(mat), CTreeFactory(diskTP, nil, testConfig(mat), raw), 128, raw)
	if err != nil {
		t.Fatal(err)
	}
	out["TP-CTree"] = tp
	diskTPA := storage.NewDisk(0)
	tpa, err := NewTP("ADS+", testConfig(mat), ADSFactory(diskTPA, nil, testConfig(mat), raw), 128, raw)
	if err != nil {
		t.Fatal(err)
	}
	out["TP-ADS"] = tpa
	btp, err := NewBTP(storage.NewDisk(0), nil, "btp", testConfig(mat), 128, raw)
	if err != nil {
		t.Fatal(err)
	}
	out["BTP"] = btp
	return out
}

func TestAllSchemesExactMatchesBruteForce(t *testing.T) {
	ss, ts := streamData(600, 1)
	names := []string{"PP-CLSM", "PP-ADS", "TP-CTree", "TP-ADS", "BTP"}
	for _, mat := range []bool{false, true} {
		// Every scheme over the same stream, each bound to a raw store of
		// its own.
		scs := map[string]ingester{}
		for _, name := range names {
			raw := &memRaw{}
			scs[name] = schemes(t, raw, mat)[name]
			ingestAll(t, scs[name], raw, ss, ts)
		}
		rng := rand.New(rand.NewSource(10))
		for trial := 0; trial < 5; trial++ {
			q := gen.RandomWalk(rng, 64)
			// Full-range window, a narrow window, and no window at all.
			for _, w := range []*[2]int64{{0, 599}, {200, 350}, nil} {
				qq := index.NewQuery(q, testConfig(mat))
				lo, hi := int64(0), int64(599)
				if w != nil {
					lo, hi = w[0], w[1]
					qq = qq.WithWindow(lo, hi)
				}
				want := bruteWindowKNN(q, ss, ts, lo, hi, 3)
				for _, workers := range []int{1, 4} {
					var first []index.Result
					for _, name := range names {
						got, err := search(scs[name].ExactInto, qq, 3, parallel.New(workers), nil, nil)
						if err != nil {
							t.Fatalf("%s mat=%v: %v", name, mat, err)
						}
						if len(got) != len(want) {
							t.Fatalf("%s mat=%v window %v: %d results, want %d", name, mat, w, len(got), len(want))
						}
						for i := range want {
							if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
								t.Fatalf("%s mat=%v window %v result %d: dist %v want %v",
									name, mat, w, i, got[i].Dist, want[i].Dist)
							}
							if got[i].TS < lo || got[i].TS > hi {
								t.Fatalf("%s: result outside window: %+v", name, got[i])
							}
						}
						// PP ≡ TP ≡ BTP bit for bit: a partition's answer
						// merges on the same accumulated squared sums one
						// index over the whole stream compares.
						if first == nil {
							first = got
						} else if !reflect.DeepEqual(got, first) {
							t.Fatalf("%s mat=%v window %v workers=%d diverges from %s\n got %+v\nwant %+v",
								name, mat, w, workers, names[0], got, first)
						}
					}
				}
			}
		}
	}
}

func TestTPPartitionsGrowLinearly(t *testing.T) {
	raw := &memRaw{}
	disk := storage.NewDisk(0)
	tp, err := NewTP("CTree", testConfig(false), CTreeFactory(disk, nil, testConfig(false), raw), 100, raw)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Name() != "CTree+TP" {
		t.Fatalf("name before the first partition = %q", tp.Name())
	}
	ss, ts := streamData(1000, 3)
	ingestAll(t, tp, raw, ss, ts)
	if tp.Partitions() != 10 {
		t.Fatalf("TP partitions = %d, want 10", tp.Partitions())
	}
	if tp.Name() != "CTree+TP" {
		t.Fatalf("name = %q", tp.Name())
	}
}

func TestBTPBoundsPartitions(t *testing.T) {
	raw := &memRaw{}
	btp, err := NewBTP(storage.NewDisk(0), nil, "btp", testConfig(false), 100, raw)
	if err != nil {
		t.Fatal(err)
	}
	ss, ts := streamData(1600, 4)
	ingestAll(t, btp, raw, ss, ts)
	// 16 flushes with merge factor 2: partition count stays logarithmic
	// (binary-counter behavior), far below TP's 16.
	if btp.Partitions() > 5 {
		t.Fatalf("BTP partitions = %d, want <= 5 (log of 16 flushes)", btp.Partitions())
	}
	if btp.Merges() == 0 {
		t.Fatal("expected merges")
	}
	if btp.Name() != "CLSM+BTP" {
		t.Fatalf("name = %q", btp.Name())
	}
}

func TestBTPTimeRangesDisjointOrdered(t *testing.T) {
	raw := &memRaw{}
	btp, err := NewBTP(storage.NewDisk(0), nil, "btp", testConfig(false), 64, raw)
	if err != nil {
		t.Fatal(err)
	}
	ss, ts := streamData(1000, 5)
	ingestAll(t, btp, raw, ss, ts)
	for i := 1; i < len(btp.parts); i++ {
		if btp.parts[i].Syn.MinTS <= btp.parts[i-1].Syn.MaxTS {
			t.Fatalf("partitions %d,%d time-overlap: [%d,%d] then [%d,%d]",
				i-1, i, btp.parts[i-1].Syn.MinTS, btp.parts[i-1].Syn.MaxTS, btp.parts[i].Syn.MinTS, btp.parts[i].Syn.MaxTS)
		}
	}
	// Newer partitions have smaller class (newest data in small parts).
	for i := 1; i < len(btp.parts); i++ {
		if btp.parts[i].class > btp.parts[i-1].class {
			t.Fatalf("class increases toward newer data: %d then %d", btp.parts[i-1].class, btp.parts[i].class)
		}
	}
	// Entry conservation.
	var total int64
	for _, p := range btp.parts {
		total += p.Count
	}
	total += int64(btp.buffer.Len())
	if total != 1000 {
		t.Fatalf("entries = %d, want 1000", total)
	}
}

// fileReads is a storage.Tracer counting page reads by file (safe for the
// concurrent reads of a parallel search).
type fileReads struct {
	mu sync.Mutex
	n  map[string]int
}

func (f *fileReads) Access(file string, _ int64, write bool) {
	if !write {
		f.mu.Lock()
		f.n[file]++
		f.mu.Unlock()
	}
}

// TestBTPSmallWindowSkipsLargePartitions: a window over the recent stream
// reads no page of a partition whose time range it misses — the big old
// partition the merges leave among them — where a window over the whole
// stream reads them.
func TestBTPSmallWindowSkipsLargePartitions(t *testing.T) {
	raw := &memRaw{}
	disk := storage.NewDisk(0)
	btp, err := NewBTP(disk, nil, "btp", testConfig(true), 128, raw)
	if err != nil {
		t.Fatal(err)
	}
	// 2648 entries = 20 full flushes plus a tail: the binary-counter merge
	// state leaves one big old partition plus small recent ones. (At exact
	// powers of two everything collapses into a single partition and small
	// windows cannot save anything — by design.)
	ss, ts := streamData(2648, 6)
	ingestAll(t, btp, raw, ss, ts)
	if err := btp.Seal(); err != nil {
		t.Fatal(err)
	}
	const recent = 2500
	var old []string // the partitions wholly before the recent window
	for _, p := range btp.parts {
		if p.Syn.MaxTS < recent {
			old = append(old, p.File)
		}
	}
	if len(old) == 0 || len(old) == len(btp.parts) {
		t.Fatalf("%d of %d partitions end before %d: the stream does not exercise the window", len(old), len(btp.parts), recent)
	}
	q := index.NewQuery(gen.RandomWalk(rand.New(rand.NewSource(66)), 64), testConfig(true))
	reads := func(minTS, maxTS int64) (ofOld, all int) {
		tr := &fileReads{n: map[string]int{}}
		disk.SetTracer(tr)
		defer disk.SetTracer(nil)
		if _, err := exactSearch(btp, q.WithWindow(minTS, maxTS), 1); err != nil {
			t.Fatal(err)
		}
		for _, f := range old {
			ofOld += tr.n[f]
		}
		for _, n := range tr.n {
			all += n
		}
		return ofOld, all
	}
	if ofOld, all := reads(recent, 2647); ofOld != 0 || all == 0 {
		t.Errorf("the recent window read %d pages of the old partitions and %d in all, want none and some", ofOld, all)
	}
	if ofOld, _ := reads(0, 2647); ofOld == 0 {
		t.Error("the whole-stream window read no page of the old partitions")
	}
}

func TestTPWindowSkipsPartitions(t *testing.T) {
	raw := &memRaw{}
	disk := storage.NewDisk(0)
	tp, err := NewTP("CTreeFull", testConfig(true), CTreeFactory(disk, nil, testConfig(true), raw), 128, raw)
	if err != nil {
		t.Fatal(err)
	}
	ss, ts := streamData(1024, 7)
	ingestAll(t, tp, raw, ss, ts)
	if err := tp.Seal(); err != nil {
		t.Fatal(err)
	}
	q := index.NewQuery(gen.RandomWalk(rand.New(rand.NewSource(77)), 64), testConfig(true))
	disk.ResetStats()
	if _, err := exactSearch(tp, q.WithWindow(900, 1023), 1); err != nil {
		t.Fatal(err)
	}
	smallIO := disk.Stats().Reads()
	disk.ResetStats()
	if _, err := exactSearch(tp, q.WithWindow(0, 1023), 1); err != nil {
		t.Fatal(err)
	}
	fullIO := disk.Stats().Reads()
	if smallIO*2 > fullIO {
		t.Errorf("TP small-window I/O %d not below full-window %d", smallIO, fullIO)
	}
}

func TestIngestValidation(t *testing.T) {
	raw := &memRaw{}
	for name, sc := range schemes(t, raw, false) {
		if _, ok := sc.(Scheme); !ok {
			continue // a plain index's Insert is the build's to check
		}
		if err := sc.Insert(make(series.Series, 5), 0); err == nil {
			t.Fatalf("%s: wrong-length ingest should fail", name)
		}
	}
	if _, err := NewTP("x", index.Config{}, nil, 10, raw); err == nil {
		t.Fatal("invalid config should fail")
	}
	if _, err := NewTP("x", testConfig(false), nil, 0, raw); err == nil {
		t.Fatal("zero buffer should fail")
	}
	if _, err := NewBTP(nil, nil, "x", testConfig(false), 10, raw); err == nil {
		t.Fatal("nil disk should fail")
	}
}

func TestApproxSearchAcrossSchemes(t *testing.T) {
	ss, ts := streamData(500, 8)
	raw := &memRaw{}
	scs := schemes(t, raw, true)
	for name, sc := range scs {
		r := &memRaw{}
		sc = schemes(t, r, true)[name]
		ingestAll(t, sc, r, ss, ts)
		// Perturbed stored series should usually be found approximately.
		rng := rand.New(rand.NewSource(88))
		hits := 0
		for trial := 0; trial < 20; trial++ {
			id := rng.Intn(len(ss))
			q := gen.Add(ss[id], gen.Noise(rng, 64, 0.001))
			got, err := approxSearch(sc, index.NewQuery(q, testConfig(true)), 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) == 1 && got[0].ID == int64(id) {
				hits++
			}
		}
		if hits < 10 {
			t.Errorf("%s: approx hit rate %d/20", name, hits)
		}
	}
}

// TestBTPPartitionCountLogarithmic drives a long stream and verifies the
// headline BTP bound: partitions grow like the binary representation of
// the flush count, not linearly as TP.
func TestBTPPartitionCountLogarithmic(t *testing.T) {
	raw := &memRaw{}
	btp, err := NewBTP(storage.NewDisk(0), nil, "btp", testConfig(false), 50, raw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(90))
	flushes := 0
	for i := 0; i < 50*63; i++ { // 63 flushes = 111111b -> 6 partitions
		s := gen.RandomWalk(rng, 64)
		raw.add(s)
		if err := btp.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%50 == 0 {
			flushes++
		}
	}
	if flushes != 63 {
		t.Fatalf("flushes = %d", flushes)
	}
	// popcount(63) = 6 partitions under merge factor 2.
	if btp.Partitions() != 6 {
		t.Errorf("partitions = %d, want 6 (binary-counter invariant)", btp.Partitions())
	}
	// TP over the same stream would hold 63.
}

// TestBTPClassSizes verifies size-class structure: a class-c partition
// holds exactly 2^c buffers' worth of entries (merge factor 2).
func TestBTPClassSizes(t *testing.T) {
	raw := &memRaw{}
	const buf = 40
	btp, err := NewBTP(storage.NewDisk(0), nil, "btp", testConfig(false), buf, raw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < buf*21; i++ { // 21 flushes = 10101b
		s := gen.RandomWalk(rng, 64)
		raw.add(s)
		if err := btp.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range btp.parts {
		want := int64(buf) << uint(p.class)
		if p.Count != want {
			t.Errorf("class-%d partition holds %d entries, want %d", p.class, p.Count, want)
		}
	}
}
