package workload

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
)

// TestE14CacheSweep runs the cache sweep at test scale: the experiment
// itself asserts byte-identity against the uncached run and the strict
// warm-below-cold property at full-fit sizes, so a pass here is the
// regression guarantee.
func TestE14CacheSweep(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 8, Seed: 7}
	tbl, err := E14CacheSweep(sc, 2000, 8, 3, []int{0, 16, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.Rows); got != 3 {
		t.Fatalf("E14 produced %d rows, want 3", got)
	}
	if !strings.Contains(tbl.Rows[0][0], "off") {
		t.Fatalf("first row should be the uncached baseline, got %q", tbl.Rows[0][0])
	}
}

// TestBuildVariantCachedEquivalence pins the core cached-vs-uncached
// contract at the workload layer across index families: identical exact
// answers cold and warm, and a warm full-fit cache serving repeat queries
// without any disk reads.
func TestBuildVariantCachedEquivalence(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 8, Seed: 3}
	sc = sc.defaults()
	ds := sc.dataset(1500)
	rng := rand.New(rand.NewSource(11))
	queries := make([]index.Query, 6)
	for i := range queries {
		queries[i] = index.NewQuery(gen.RandomWalk(rng, sc.SeriesLen), sc.config())
	}
	for _, v := range []string{"CTree", "CLSMFull", "ADS+"} {
		plain, err := assemble.Build(sc.spec(v, assemble.Spec{}), ds)
		if err != nil {
			t.Fatalf("%s uncached: %v", v, err)
		}
		cached, err := assemble.Build(sc.spec(v, assemble.Spec{CacheBytes: 8 << 20}), ds)
		if err != nil {
			t.Fatalf("%s cached: %v", v, err)
		}
		for qi, q := range queries {
			want, err := plain.ExactSearch(q, 3)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // cold then warm
				got, err := cached.ExactSearch(q, 3)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s query %d pass %d: %d vs %d results", v, qi, pass, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s query %d pass %d result %d: %+v vs %+v", v, qi, pass, i, got[i], want[i])
					}
				}
			}
		}
		if cached.Pool == nil {
			t.Fatalf("%s: cached build has no pool", v)
		}
		// Warm repeat of the whole query set must be all hits: no disk
		// reads at all with a full-fit cache.
		before := cached.IOStats()
		for _, q := range queries {
			if _, err := cached.ExactSearch(q, 3); err != nil {
				t.Fatal(err)
			}
		}
		diff := cached.IOStats().Sub(before)
		if diff.Reads() != 0 {
			t.Fatalf("%s: warm full-fit pass performed %d disk reads (%s)", v, diff.Reads(), diff)
		}
		if diff.CacheHits == 0 || diff.CacheMisses != 0 {
			t.Fatalf("%s: warm full-fit pass hits=%d misses=%d", v, diff.CacheHits, diff.CacheMisses)
		}
	}
}

// TestShardedBuildSharesCache asserts a sharded cached build attaches every
// shard's disk to one shared frame store and aggregates cache counters in
// IOStats.
func TestShardedBuildSharesCache(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 8, Seed: 5}
	sc = sc.defaults()
	ds := sc.dataset(1200)
	b, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{
		Shards: 3, CacheBytes: 4 << 20, RawInMemory: true,
	}), ds)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cache == nil {
		t.Fatal("sharded cached build has no shared cache")
	}
	if got := len(b.Parts); got != 3 {
		t.Fatalf("%d shard pools, want 3", got)
	}
	for i, part := range b.Parts {
		if p := part.Pool; p.Cache() != b.Cache {
			t.Fatalf("shard %d pool uses a different cache", i)
		}
	}
	rng := rand.New(rand.NewSource(17))
	q := index.NewQuery(gen.RandomWalk(rng, sc.SeriesLen), sc.config())
	if _, err := b.ExactSearch(q, 3); err != nil {
		t.Fatal(err)
	}
	before := b.IOStats()
	if _, err := b.ExactSearch(q, 3); err != nil {
		t.Fatal(err)
	}
	diff := b.IOStats().Sub(before)
	if diff.CacheHits == 0 {
		t.Fatalf("warm sharded query recorded no cache hits (%s)", diff)
	}
	if diff.Reads() != 0 {
		t.Fatalf("warm sharded query performed %d disk reads (%s)", diff.Reads(), diff)
	}
}
