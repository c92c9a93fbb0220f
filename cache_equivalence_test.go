package coconut

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/storage"
)

// These tests pin the buffer-pool layer's core contract: a cache between
// the indexes and the disk may change I/O accounting and wall-clock time,
// but never answers. Every query below runs against an uncached index and
// a cached one (twice — cold and warm, so both the miss-fill path and the
// borrowed-frame hit path are exercised) and must match byte for byte, on
// exact, range, and windowed searches, for Tree, LSM, and Sharded at shard
// counts 1 and 4.

const cacheEquivBytes = 16 << 20

func cacheEquivData(n, length int, seed int64) ([][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	walk := func() []float64 {
		s := make([]float64, length)
		v := 0.0
		for i := range s {
			v += rng.NormFloat64()
			s[i] = v
		}
		return s
	}
	data := make([][]float64, n)
	for i := range data {
		data[i] = walk()
	}
	queries := make([][]float64, 12)
	for i := range queries {
		queries[i] = walk()
	}
	return data, queries
}

func sameMatches(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d results", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s result %d: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

// checkSmallCacheWarmPass closes a small-cache scenario: the cache must be
// smaller than the index's largest file (so that file's scans bypass it),
// and a replay over the warmed cache must hit — the shorter files and the
// probe pages stayed resident — and evict nothing, because a scan the cache
// cannot hold no longer flows through it.
func checkSmallCacheWarmPass(t *testing.T, label string, disk storage.Backend, pool *bufpool.Pool, replay func()) {
	t.Helper()
	var largest int64
	for _, f := range disk.Files() {
		if n, _ := disk.NumPages(f); n > largest {
			largest = n
		}
	}
	if frames := pool.Cache().CapacityFrames(); largest <= frames {
		t.Fatalf("%s: largest file has %d pages, the cache %d frames: nothing bypasses", label, largest, frames)
	}
	hits, evictions := pool.Hits(), pool.Cache().Evictions()
	replay()
	if pool.Hits() == hits {
		t.Fatalf("%s: warm pass over a small cache recorded no hits", label)
	}
	if ev := pool.Cache().Evictions() - evictions; ev != 0 {
		t.Fatalf("%s: warm pass evicted %d pages", label, ev)
	}
}

// searcher is the query surface shared by Tree, LSM, and Sharded facades.
type equivSearcher interface {
	Search(q []float64, k int) ([]Match, error)
	SearchRange(q []float64, eps float64) ([]Match, error)
}

// checkCachedEquiv runs the full query matrix against the uncached
// reference and the cached index, cold then warm.
func checkCachedEquiv(t *testing.T, label string, queries [][]float64, plain, cached equivSearcher) {
	t.Helper()
	for _, q := range queries {
		wantK, err := plain.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		eps := 1.0
		if len(wantK) > 2 {
			eps = wantK[2].Dist // guarantees a non-trivial range answer
		}
		wantR, err := plain.SearchRange(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			gotK, err := cached.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, label+"/exact/"+pass, wantK, gotK)
			gotR, err := cached.SearchRange(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, label+"/range/"+pass, wantR, gotR)
		}
	}
}

func TestCachedTreeEquivalence(t *testing.T) {
	data, queries := cacheEquivData(3000, 64, 1)
	for _, mat := range []bool{false, true} {
		opts := Options{SeriesLen: 64, Segments: 8, Bits: 6, Materialized: mat}
		plain, err := BuildTree(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.CacheBytes = cacheEquivBytes
		cached, err := BuildTree(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := map[bool]string{false: "tree", true: "treefull"}[mat]
		checkCachedEquiv(t, label, queries, plain, cached)
		if st := cached.Stats(); st.CacheHits == 0 {
			t.Fatalf("%s: cached run recorded no hits (%+v)", label, st)
		}
		if st := plain.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
			t.Fatalf("uncached %s reports cache traffic (%+v)", label, st)
		}
	}
}

// TestCachedReopenEquivalence: a snapshot reopened with CacheBytes set reads
// through a pool of that size — in frames of the snapshot's page size, which
// the reopening options leave unset — and answers byte-identically to the
// same snapshot reopened uncached; the warm pass over the same queries hits.
func TestCachedReopenEquivalence(t *testing.T) {
	data, queries := cacheEquivData(2000, 64, 5)
	opts := Options{SeriesLen: 64, Segments: 8, Bits: 6, PageSize: 2048, BufferEntries: 256}
	dir := t.TempDir()
	save := func(name string, idx interface{ SaveFile(string) error }, err error) {
		if err == nil {
			err = idx.SaveFile(filepath.Join(dir, name))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	tree, err := BuildTree(data, opts)
	save("tree", tree, err)
	lsm, err := NewLSM(opts)
	for i := 0; err == nil && i < len(data); i++ {
		err = lsm.Insert(data[i], int64(i))
	}
	save("lsm", lsm, err)
	sharded, err := BuildShardedTree(data, 3, opts)
	save("sharded", sharded, err)

	type reopened interface {
		equivSearcher
		Stats() Stats
		Close() error
	}
	for _, tc := range []struct {
		name string
		open func(opts ...Options) (reopened, error)
	}{
		{"tree", func(o ...Options) (reopened, error) { return OpenTree(filepath.Join(dir, "tree"), o...) }},
		{"lsm", func(o ...Options) (reopened, error) { return OpenLSM(filepath.Join(dir, "lsm"), o...) }},
		{"sharded", func(o ...Options) (reopened, error) { return OpenSharded(filepath.Join(dir, "sharded"), o...) }},
	} {
		plain, err := tc.open()
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Close()
		cached, err := tc.open(Options{CacheBytes: cacheEquivBytes})
		if err != nil {
			t.Fatal(err)
		}
		defer cached.Close()
		checkCachedEquiv(t, "reopened "+tc.name, queries, plain, cached)
		if st := cached.Stats(); st.CacheHits == 0 {
			t.Fatalf("reopened %s: cached run recorded no hits (%+v)", tc.name, st)
		}
		if st := plain.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
			t.Fatalf("reopened %s: uncached run reports cache traffic (%+v)", tc.name, st)
		}
	}
}

func TestCachedLSMEquivalence(t *testing.T) {
	data, queries := cacheEquivData(3000, 64, 2)
	build := func(materialized bool, cacheBytes int64) *LSM {
		l, err := NewLSM(Options{
			SeriesLen: 64, Segments: 8, Bits: 6, Materialized: materialized,
			BufferEntries: 256, GrowthFactor: 3, CacheBytes: cacheBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range data {
			if err := l.Insert(s, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		return l
	}
	check := func(label string, plain, cached *LSM) {
		checkCachedEquiv(t, label, queries, plain, cached)
		// Windowed queries through the cache.
		for _, q := range queries[:4] {
			want, err := plain.SearchWindow(q, 5, 500, 2200)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"cold", "warm"} {
				got, err := cached.SearchWindow(q, 5, 500, 2200)
				if err != nil {
					t.Fatal(err)
				}
				sameMatches(t, label+"/window/"+pass, want, got)
			}
		}
	}
	plain := build(false, 0)
	cached := build(false, cacheEquivBytes)
	check("lsm", plain, cached)
	if st := cached.Stats(); st.CacheHits == 0 {
		t.Fatalf("cached LSM recorded no hits (%+v)", st)
	}

	// A cache smaller than the largest run (330 pages of materialized
	// entries, beside one of 100).
	plain, small := build(true, 0), build(true, 224*storage.DefaultPageSize)
	check("lsm/small", plain, small)
	checkSmallCacheWarmPass(t, "lsm/small", small.b.Disk, small.b.Pool, func() { check("lsm/small/replay", plain, small) })
}

func TestCachedShardedEquivalence(t *testing.T) {
	data, queries := cacheEquivData(3000, 64, 3)
	opts := Options{SeriesLen: 64, Segments: 8, Bits: 6, Materialized: true}
	plainTree, err := BuildTree(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		plainSharded, err := BuildShardedTree(data, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		cachedOpts := opts
		cachedOpts.CacheBytes = cacheEquivBytes
		cached, err := BuildShardedTree(data, shards, cachedOpts)
		if err != nil {
			t.Fatal(err)
		}
		label := map[int]string{1: "sharded1", 4: "sharded4"}[shards]
		// Against the uncached unsharded tree (the strongest reference) and
		// windowed against the uncached sharded twin.
		checkCachedEquiv(t, label, queries, plainTree, cached)
		for _, q := range queries[:4] {
			want, err := plainSharded.SearchWindow(q, 5, 100, 2500)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"cold", "warm"} {
				got, err := cached.SearchWindow(q, 5, 100, 2500)
				if err != nil {
					t.Fatal(err)
				}
				sameMatches(t, label+"/window/"+pass, want, got)
			}
		}
		if st := cached.Stats(); st.CacheHits == 0 {
			t.Fatalf("%s recorded no hits (%+v)", label, st)
		}
		if shards == 4 {
			per := cached.ShardStats()
			if len(per) != 4 {
				t.Fatalf("%d shard stats, want 4", len(per))
			}
			var hits int64
			for _, st := range per {
				hits += st.CacheHits
			}
			if hits != cached.Stats().CacheHits {
				t.Fatalf("per-shard hits %d != aggregate %d", hits, cached.Stats().CacheHits)
			}
		}
	}
}

// TestCachedStreamEquivalence covers the TP and BTP streaming schemes: the
// partition probes ride the same PageReader plumbing.
func TestCachedStreamEquivalence(t *testing.T) {
	data, queries := cacheEquivData(1500, 64, 4)
	for _, kind := range []SchemeKind{PP, TP, BTP} {
		opts := Options{SeriesLen: 64, Segments: 8, Bits: 6, BufferEntries: 200}
		build := func(cacheBytes int64) *Stream {
			opts.CacheBytes = cacheBytes
			s, err := NewStream(kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, ser := range data {
				if _, err := s.Ingest(ser, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			return s
		}
		check := func(label string, plain, cached *Stream) {
			for _, q := range queries[:6] {
				want, err := plain.SearchWindow(q, 3, 100, 1300)
				if err != nil {
					t.Fatal(err)
				}
				for _, pass := range []string{"cold", "warm"} {
					got, err := cached.SearchWindow(q, 3, 100, 1300)
					if err != nil {
						t.Fatal(err)
					}
					sameMatches(t, label+"/window/"+pass, want, got)
				}
			}
		}
		plain := build(0)
		cached := build(cacheEquivBytes)
		check(string(kind), plain, cached)
		if st := cached.Stats(); st.CacheHits == 0 {
			t.Fatalf("%s: cached stream recorded no hits (%+v)", kind, st)
		}

		// A cache smaller than a full partition (86 pages of 600
		// materialized entries; BTP merges two into 172) that holds the
		// half-full last one (43) and the probe pages.
		opts.Materialized, opts.BufferEntries = true, 600
		label := string(kind) + "/small"
		plain, small := build(0), build(80*storage.DefaultPageSize)
		check(label, plain, small)
		checkSmallCacheWarmPass(t, label, small.b.Disk, small.b.Pool, func() { check(label+"/replay", plain, small) })
	}
}
