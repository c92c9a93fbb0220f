package coconut

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/storage"
)

// Equivalence contract of the sharding + batching layer: at every shard
// count, exact and range searches return results byte-identical to the
// unsharded index's, approximate searches keep the approximate contract,
// and every batch path returns exactly what the looped single-query path
// returns. shardCounts deliberately includes 1 (pure ID-translation
// overhead), powers of two, and a prime that leaves shards unevenly sized.
var shardCounts = []int{1, 2, 4, 7}

func genData(t testing.TB, n, length int, seed int64) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		data[i] = gen.RandomWalk(rng, length)
	}
	return data
}

func genQueries(t testing.TB, n, length int, seed int64) [][]float64 {
	return genData(t, n, length, seed)
}

// checkApproxContract verifies what an approximate answer must always
// satisfy, regardless of layout: at most k results, deduplicated,
// ordered by (Dist, ID), each carrying the true z-normalized distance.
func checkApproxContract(t *testing.T, data [][]float64, q []float64, ms []Match, k int) {
	t.Helper()
	if len(ms) > k {
		t.Fatalf("approx returned %d results, want <= %d", len(ms), k)
	}
	seen := map[int]bool{}
	for i, m := range ms {
		if seen[m.ID] {
			t.Fatalf("approx result %d: duplicate ID %d", i, m.ID)
		}
		seen[m.ID] = true
		if i > 0 {
			prev := ms[i-1]
			if m.Dist < prev.Dist || (m.Dist == prev.Dist && m.ID < prev.ID) {
				t.Fatalf("approx results out of (Dist, ID) order at %d: %+v then %+v", i, prev, m)
			}
		}
		if m.ID < 0 || m.ID >= len(data) {
			t.Fatalf("approx result %d: ID %d out of range", i, m.ID)
		}
		want := trueDist(q, data[m.ID])
		if math.Abs(m.Dist-want) > 1e-9 {
			t.Fatalf("approx result %d (ID %d): Dist %v, true distance %v", i, m.ID, m.Dist, want)
		}
	}
}

// trueDist computes the Euclidean distance between the z-normalized forms
// of q and s, independently of any index code path.
func trueDist(q, s []float64) float64 {
	zn := func(x []float64) []float64 {
		var mean, sq float64
		for _, v := range x {
			mean += v
		}
		mean /= float64(len(x))
		for _, v := range x {
			sq += (v - mean) * (v - mean)
		}
		std := math.Sqrt(sq / float64(len(x)))
		out := make([]float64, len(x))
		if std == 0 {
			return out
		}
		for i, v := range x {
			out[i] = (v - mean) / std
		}
		return out
	}
	zq, zs := zn(q), zn(s)
	var acc float64
	for i := range zq {
		d := zq[i] - zs[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}

func TestShardedTreeEquivalence(t *testing.T) {
	const n, length, k = 3000, 64, 5
	data := genData(t, n, length, 1)
	queries := genQueries(t, 12, length, 2)
	for _, materialized := range []bool{true, false} {
		opts := Options{SeriesLen: length, Materialized: materialized}
		base, err := BuildTree(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("mat=%v/shards=%d", materialized, shards), func(t *testing.T) {
				sh, err := BuildShardedTree(data, shards, opts)
				if err != nil {
					t.Fatal(err)
				}
				if sh.Count() != base.Count() {
					t.Fatalf("sharded count %d, unsharded %d", sh.Count(), base.Count())
				}
				for qi, q := range queries {
					want, err := base.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sh.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d: exact sharded results diverge\n got %+v\nwant %+v", qi, got, want)
					}
					// Range search at an epsilon that includes a few
					// results: the 3rd-nearest distance.
					eps := want[2].Dist
					wantR, err := base.SearchRange(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					gotR, err := sh.SearchRange(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotR, wantR) {
						t.Fatalf("query %d: range sharded results diverge\n got %+v\nwant %+v", qi, gotR, wantR)
					}
					approx, err := sh.SearchApprox(q, k)
					if err != nil {
						t.Fatal(err)
					}
					checkApproxContract(t, data, q, approx, k)
				}
			})
		}
	}
}

func TestShardedLSMEquivalence(t *testing.T) {
	const n, length, k = 2500, 64, 4
	data := genData(t, n, length, 3)
	queries := genQueries(t, 10, length, 4)
	opts := Options{SeriesLen: length, BufferEntries: 256, GrowthFactor: 3}
	base, err := NewLSM(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := base.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sh, err := NewShardedLSM(shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range data {
				if err := sh.Insert(s, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if sh.Count() != base.Count() {
				t.Fatalf("sharded count %d, unsharded %d", sh.Count(), base.Count())
			}
			for qi, q := range queries {
				want, err := base.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sh.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: exact sharded results diverge\n got %+v\nwant %+v", qi, got, want)
				}
				// Temporal windows must survive sharding: restrict to the
				// middle half of the ingest timeline.
				wantW, err := base.SearchWindow(q, k, int64(n/4), int64(3*n/4))
				if err != nil {
					t.Fatal(err)
				}
				gotW, err := sh.SearchWindow(q, k, int64(n/4), int64(3*n/4))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotW, wantW) {
					t.Fatalf("query %d: windowed sharded results diverge\n got %+v\nwant %+v", qi, gotW, wantW)
				}
				eps := want[1].Dist
				wantR, err := base.SearchRange(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				gotR, err := sh.SearchRange(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotR, wantR) {
					t.Fatalf("query %d: range sharded results diverge\n got %+v\nwant %+v", qi, gotR, wantR)
				}
				approx, err := sh.SearchApprox(q, k)
				if err != nil {
					t.Fatal(err)
				}
				checkApproxContract(t, data, q, approx, k)
			}
		})
	}
}

// TestShardedWindowSkipsEmptyShards pins the executor's rule that a +Inf
// bound means "skip" at the shard level too, not only for LSM runs: a shard
// none of whose series falls in the query window is never probed — neither
// its approximate phase nor its scan reads a page — even while the k-NN
// collector is still short of k results and so prunes nothing by distance.
func TestShardedWindowSkipsEmptyShards(t *testing.T) {
	const n, length, k = 2000, 64, 5
	data := genData(t, n, length, 41)
	q := genQueries(t, 1, length, 42)[0]
	opts := Options{SeriesLen: length, Materialized: true, Parallelism: 1}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base, err := BuildTree(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := BuildShardedTree(data, shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Bulk-built series all carry timestamp 0: the window is empty,
			// so every shard's bound is +Inf.
			before := sh.Stats()
			got, err := sh.SearchWindow(q, k, 1000, 2000)
			if err != nil {
				t.Fatal(err)
			}
			after := sh.Stats()
			if len(got) != 0 {
				t.Fatalf("empty window answered %+v", got)
			}
			if reads := (after.SeqReads + after.RandReads) - (before.SeqReads + before.RandReads); reads != 0 {
				t.Fatalf("empty window read %d pages, want 0", reads)
			}
			if skips := after.PlannedSkips - before.PlannedSkips; skips != int64(shards) {
				t.Fatalf("empty window skipped %d shards, want %d", skips, shards)
			}
			// A window holding fewer than k series: the collector never
			// fills, the shards holding none of them are still skipped, and
			// the answer is the unsharded tree's.
			for i := 0; i < k-2; i++ {
				if err := base.Insert(data[i], 1500); err != nil {
					t.Fatal(err)
				}
				if err := sh.Insert(data[i], 1500); err != nil {
					t.Fatal(err)
				}
			}
			want, err := base.searchWindow(q, k, 1000, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != k-2 {
				t.Fatalf("unsharded tree found %d series in the window, want %d", len(want), k-2)
			}
			got, err = sh.SearchWindow(q, k, 1000, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("short window: sharded results diverge\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestSearchBatchEquivalence pins the batch contract on every index that
// has a batch path: SearchBatch(qs, k)[i] is byte-identical to
// Search(qs[i], k).
func TestSearchBatchEquivalence(t *testing.T) {
	const n, length, k = 2000, 64, 3
	data := genData(t, n, length, 5)
	queries := genQueries(t, 16, length, 6)

	type batcher interface {
		Search(q []float64, k int) ([]Match, error)
		SearchBatch(qs [][]float64, k int) ([][]Match, error)
	}
	indexes := map[string]batcher{}

	tree, err := BuildTree(data, Options{SeriesLen: length, Materialized: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	indexes["tree"] = tree

	lsm, err := NewLSM(Options{SeriesLen: length, BufferEntries: 256, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := lsm.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	indexes["lsm"] = lsm

	sharded, err := BuildShardedTree(data, 4, Options{SeriesLen: length, Materialized: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	indexes["sharded"] = sharded

	for name, idx := range indexes {
		t.Run(name, func(t *testing.T) {
			batch, err := idx.SearchBatch(queries, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(queries) {
				t.Fatalf("batch returned %d result sets for %d queries", len(batch), len(queries))
			}
			for i, q := range queries {
				want, err := idx.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[i], want) {
					t.Fatalf("query %d: batch diverges from loop\n got %+v\nwant %+v", i, batch[i], want)
				}
			}
			// Empty batches are legal and return no results.
			empty, err := idx.SearchBatch(nil, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(empty) != 0 {
				t.Fatalf("empty batch returned %d result sets", len(empty))
			}
		})
	}
}

// TestShardedPersistence round-trips a sharded snapshot: save as one file
// set, reopen, and require byte-identical answers.
func TestShardedPersistence(t *testing.T) {
	const n, length, k = 1500, 64, 3
	data := genData(t, n, length, 7)
	queries := genQueries(t, 6, length, 8)
	dir := t.TempDir()

	tree, err := BuildShardedTree(data, 3, Options{SeriesLen: length})
	if err != nil {
		t.Fatal(err)
	}
	lsm, err := NewShardedLSM(3, Options{SeriesLen: length, BufferEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := lsm.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for name, sh := range map[string]*Sharded{"tree": tree, "lsm": lsm} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".snap")
			if err := sh.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			re, err := OpenSharded(path)
			if err != nil {
				t.Fatal(err)
			}
			if re.Count() != sh.Count() || re.NumShards() != sh.NumShards() || re.Kind() != sh.Kind() {
				t.Fatalf("reopened: count %d/%d shards %d/%d kind %s/%s",
					re.Count(), sh.Count(), re.NumShards(), sh.NumShards(), re.Kind(), sh.Kind())
			}
			for qi, q := range queries {
				want, err := sh.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := re.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: reopened results diverge\n got %+v\nwant %+v", qi, got, want)
				}
			}
		})
	}
}

// narrowedTreeMeta returns a CTree meta payload of version 6 or 5 as meta
// v5, which stored the tree's synopsis before the layout byte, with that
// synopsis — count u64 | minTS u64 | maxTS u64 | key range 32 B | bits u8 |
// segments u8 | envelope minima | maxima — narrowed to the top symbol of
// every segment: a bound that, trusted, rules out a tree the answers are in.
func narrowedTreeMeta(payload []byte, version uint32) []byte {
	le := binary.LittleEndian
	segs, bits := int(le.Uint32(payload[37:])), int(le.Uint32(payload[41:]))
	rest := payload[45:]
	if version == 5 { // a v5 meta's own stored synopsis
		rest = rest[4+int(le.Uint32(rest)):]
	}
	minTS, maxTS := int64(math.MinInt64), int64(math.MaxInt64)
	syn := le.AppendUint64(nil, le.Uint64(payload))
	syn = le.AppendUint64(syn, uint64(minTS))
	syn = le.AppendUint64(syn, uint64(maxTS))
	syn = append(syn, make([]byte, 32)...)
	syn = append(syn, uint8(bits), uint8(segs))
	syn = append(syn, bytes.Repeat([]byte{uint8(1<<bits - 1)}, 2*segs)...)
	v5 := le.AppendUint32(append([]byte(nil), payload[:45]...), uint32(len(syn)))
	return append(append(v5, syn...), rest...)
}

// TestShardedTreeSnapshotIgnoresStoredSynopsis: the fan-out bounds each
// shard by its index's synopsis and skips a shard on that bound alone. With
// every shard file of a saved snapshot rewritten as CTree meta v5, whose
// stored synopsis is narrowed away from the queries, exact answers are
// still brute force's: a tree folds its synopsis from its summary's columns
// on open and never reads a stored one back.
func TestShardedTreeSnapshotIgnoresStoredSynopsis(t *testing.T) {
	const n, length = 1500, 64
	data := genData(t, n, length, 17)
	tree, err := BuildShardedTree(data, 3, Options{SeriesLen: length})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tree.snap")
	if err := tree.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.NumShards(); i++ {
		file := fmt.Sprintf("%s.shard%03d", path, i)
		disk, err := storage.LoadDiskFile(nil, file)
		if err != nil {
			t.Fatal(err)
		}
		payload, version, err := storage.ReadBlob(disk, "ctree.meta", "CTREEMTA", 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteBlob(disk, "ctree.meta", "CTREEMTA", 5, nil, narrowedTreeMeta(payload, version)); err != nil {
			t.Fatal(err)
		}
		if err := disk.SaveFile(nil, file); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range genQueries(t, 20, length, 18) {
		got, err := re.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if id, d := trueNN(q, data); len(got) != 1 || got[0].ID != id || math.Abs(got[0].Dist-d) > 1e-9 {
			t.Fatalf("query %d: %+v, brute force finds %d at %g", qi, got, id, d)
		}
	}
}

// TestShardedStatsAggregate pins that the facade aggregate equals the sum
// of the per-shard stats, and that building actually spread pages across
// more than one disk.
func TestShardedStatsAggregate(t *testing.T) {
	data := genData(t, 1200, 64, 9)
	sh, err := BuildShardedTree(data, 4, Options{SeriesLen: length64, Materialized: true})
	if err != nil {
		t.Fatal(err)
	}
	per := sh.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d entries, want 4", len(per))
	}
	var sum Stats
	populated := 0
	for _, st := range per {
		sum.SeqReads += st.SeqReads
		sum.RandReads += st.RandReads
		sum.SeqWrites += st.SeqWrites
		sum.RandWrites += st.RandWrites
		sum.Pages += st.Pages
		if st.Pages > 0 {
			populated++
		}
	}
	sum.Kernel = per[0].Kernel // process-wide selection, not an additive counter
	if got := sh.Stats(); got != sum {
		t.Fatalf("aggregate stats %+v, sum of shards %+v", got, sum)
	}
	if populated < 2 {
		t.Fatalf("only %d of 4 shards hold pages; hash partitioning is not spreading", populated)
	}
}

const length64 = 64

// TestShardedConcurrentSearch hammers one sharded index from many
// goroutines mixing single and batched searches; run under -race this
// pins the concurrency safety of the fan-out and the pooled contexts.
func TestShardedConcurrentSearch(t *testing.T) {
	const n, length, k = 1500, 64, 3
	data := genData(t, n, length, 10)
	queries := genQueries(t, 8, length, 11)
	sh, err := BuildShardedTree(data, 4, Options{SeriesLen: length, Materialized: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Match, len(queries))
	for i, q := range queries {
		if want[i], err = sh.Search(q, k); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				if g%2 == 0 {
					for i, q := range queries {
						got, serr := sh.Search(q, k)
						if serr != nil {
							errc <- serr
							return
						}
						if !reflect.DeepEqual(got, want[i]) {
							errc <- fmt.Errorf("goroutine %d query %d: results diverge under concurrency", g, i)
							return
						}
					}
				} else {
					batch, berr := sh.SearchBatch(queries, k)
					if berr != nil {
						errc <- berr
						return
					}
					for i := range queries {
						if !reflect.DeepEqual(batch[i], want[i]) {
							errc <- fmt.Errorf("goroutine %d query %d: batch results diverge under concurrency", g, i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
