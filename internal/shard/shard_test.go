package shard_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/shard"
)

func TestOfIsStableAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64} {
		counts := make([]int, n)
		for id := int64(0); id < 10000; id++ {
			s := shard.Of(id, n)
			if s < 0 || s >= n {
				t.Fatalf("Of(%d, %d) = %d out of range", id, n, s)
			}
			if again := shard.Of(id, n); again != s {
				t.Fatalf("Of(%d, %d) unstable: %d then %d", id, n, s, again)
			}
			counts[s]++
		}
		// The avalanche hash should spread sequential IDs roughly evenly:
		// every shard within 3x of the fair share is ample slack.
		fair := 10000 / n
		for s, c := range counts {
			if c < fair/3 || c > fair*3 {
				t.Fatalf("shard %d of %d holds %d of 10000 (fair share %d): placement is skewed", s, n, c, fair)
			}
		}
	}
}

func TestPartitionIsPlacementInverse(t *testing.T) {
	const n = 5000
	for _, shards := range []int{1, 2, 4, 7} {
		part := shard.Partition(n, shards)
		if len(part) != shards {
			t.Fatalf("Partition returned %d shards, want %d", len(part), shards)
		}
		seen := map[int64]bool{}
		for s, ids := range part {
			for i, id := range ids {
				if shard.Of(id, shards) != s {
					t.Fatalf("Partition placed ID %d on shard %d but Of says %d", id, s, shard.Of(id, shards))
				}
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("shard %d IDs not ascending: %d then %d", s, ids[i-1], id)
				}
				if seen[id] {
					t.Fatalf("ID %d placed twice", id)
				}
				seen[id] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("Partition covered %d of %d IDs", len(seen), n)
		}
	}
}

// TestWorkloadShardedEquivalence drives the sharding layer exactly as the
// server does — through assemble.Build — and requires exact, range and
// batch results byte-identical to the unsharded build for tree, LSM and ADS+
// variants at several shard counts.
func TestWorkloadShardedEquivalence(t *testing.T) {
	cfg := index.Config{SeriesLen: 64, Segments: 8, Bits: 6}
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 2500, Len: 64, FracEvent: 0.05, Seed: 21})
	rng := rand.New(rand.NewSource(22))
	queries := make([]index.Query, 8)
	for i := range queries {
		queries[i] = index.NewQuery(gen.RandomWalk(rng, 64), cfg)
	}
	for _, variant := range []string{"CTreeFull", "CLSM", "ADS+"} {
		base, err := assemble.Build(assemble.Spec{Variant: variant, SeriesLen: 64, Segments: 8, Bits: 6, RawInMemory: true}, ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", variant, shards), func(t *testing.T) {
				b, err := assemble.Build(assemble.Spec{
					Variant: variant, SeriesLen: 64, Segments: 8, Bits: 6,
					Shards: shards, Parallelism: 2, RawInMemory: true,
				}, ds)
				if err != nil {
					t.Fatal(err)
				}
				if shards > 1 {
					sh, ok := b.Index.(*shard.Group)
					if !ok {
						t.Fatalf("sharded build produced %T", b.Index)
					}
					if sh.NShards() != shards {
						t.Fatalf("built %d shards, want %d", sh.NShards(), shards)
					}
					if len(b.Parts) != shards {
						t.Fatalf("Built.Parts has %d entries, want %d", len(b.Parts), shards)
					}
				}
				if b.Index.Count() != base.Index.Count() {
					t.Fatalf("sharded count %d, unsharded %d", b.Index.Count(), base.Index.Count())
				}
				for qi, q := range queries {
					want, err := base.ExactSearch(q, 5)
					if err != nil {
						t.Fatal(err)
					}
					got, err := b.ExactSearch(q, 5)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d: exact diverges\n got %+v\nwant %+v", qi, got, want)
					}
					eps := want[2].Dist
					wantR, err := base.RangeSearch(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					gotR, err := b.RangeSearch(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotR, wantR) {
						t.Fatalf("query %d: range diverges\n got %+v\nwant %+v", qi, gotR, wantR)
					}
				}
				// The batch path through the assembled index (the group's at
				// every shard count, the one-shard group included).
				batch, err := b.SearchBatch(queries, 5)
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					want, err := b.ExactSearch(q, 5)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(batch[qi], want) {
						t.Fatalf("query %d: batch diverges from single", qi)
					}
				}
			})
		}
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := shard.NewGroup(index.Config{}, 1, nil); err == nil {
		t.Fatal("NewGroup accepted zero shards")
	}
	cfg := index.Config{SeriesLen: 64, Segments: 8, Bits: 6}
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 100, Len: 64, FracEvent: 0.05, Seed: 1})
	b, err := assemble.Build(assemble.Spec{Variant: "CTreeFull", SeriesLen: 64, Segments: 8, Bits: 6, RawInMemory: true}, ds)
	if err != nil {
		t.Fatal(err)
	}
	// A mapping whose length disagrees with the sub-index count must be
	// rejected: it would silently mistranslate IDs.
	_, err = shard.NewGroup(cfg, 1, map[int]*shard.Shard{0: {Index: b.Index, Disk: b.Disk, IDs: make([]int64, 7)}})
	if err == nil {
		t.Fatal("NewGroup accepted a shard whose ID map disagrees with its index count")
	}
}
