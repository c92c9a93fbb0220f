package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
)

// TestE14CacheSweep sweeps the buffer-pool size on a non-materialized CTree
// (raw series file on disk, so every verified candidate pays a page fetch):
// at every size, the cold pass and the warm repeat answer byte-identically
// to the uncached build, and at the full-fit size the warm pass's
// io-cost/query is strictly below the cold pass's.
func TestE14CacheSweep(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 8, Seed: 7}
	sc = sc.defaults()
	ds := sc.dataset(2000)
	iqs := make([]index.Query, 8)
	for i, w := range sc.walks(sc.Seed+14, len(iqs)) {
		iqs[i] = index.NewQuery(w, sc.config())
	}
	ref, err := assemble.Build(sc.spec("CTree", assemble.Spec{}), ds)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	reference, _, err := exactPass(ref, iqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kb := range []int{0, 16, 4096} {
		t.Run(fmt.Sprintf("%dKB", kb), func(t *testing.T) {
			b, err := assemble.Build(sc.spec("CTree", assemble.Spec{CacheBytes: int64(kb) << 10}), ds)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			cold, coldQS, err := exactPass(b, iqs, 3)
			if err != nil {
				t.Fatal(err)
			}
			warm, warmQS, err := exactPass(b, iqs, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResults(reference, cold); err != nil {
				t.Fatalf("cold pass diverged from uncached: %v", err)
			}
			if err := sameResults(reference, warm); err != nil {
				t.Fatalf("warm pass diverged from uncached: %v", err)
			}
			fullFit := b.Cache != nil && b.Cache.CapacityFrames() >= b.Disk.TotalPages()
			if kb == 4096 && !fullFit {
				t.Fatalf("a %dKB cache does not hold the build's %d pages", kb, b.Disk.TotalPages())
			}
			if coldCost, warmCost := coldQS.Cost(sc.Cost), warmQS.Cost(sc.Cost); fullFit && !(warmCost < coldCost) {
				t.Fatalf("warm io-cost/query %.1f not below cold %.1f despite a full-fit cache", warmCost, coldCost)
			}
		})
	}
}

// TestBuildVariantCachedEquivalence pins the core cached-vs-uncached
// contract at the workload layer across index families: identical exact
// answers cold and warm, and a warm full-fit cache serving repeat queries
// without any disk reads — so below the cold pass's io-cost, which reads.
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
		coldBefore := cached.IOStats()
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
		if cold := cached.IOStats().Sub(coldBefore); cold.Reads() == 0 {
			t.Fatalf("%s: cold pass performed no disk reads (%s)", v, cold)
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
