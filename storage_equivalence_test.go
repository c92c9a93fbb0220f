package coconut

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/storage"
)

// Storage-backend equivalence contract: every facade must return results
// byte-identical on the file-backed page store (Options.StorageDir) and on
// the simulated disk, across exact, approximate, range, windowed, and
// batch searches, cached and sharded variants included — and, uncached,
// with identical I/O accounting too, since both backends run the same
// accounting core.

// equivParallelisms are the Options.Parallelism settings the backend
// equivalence tests build their handles at. Answers are compared
// at both — the default (one worker per CPU) and 1. Stats and io-cost are
// compared only between handles built at 1: with several workers the
// backend's one shared head word sees the workers' accesses interleaved, so
// the sequential/random split depends on the schedule (Options.Parallelism
// says as much). That pins the comparison, it does not fix the meter:
// ROADMAP's "Make the I/O meter a function of the plan" — a
// schedule-independent accounting model — stays open.
var equivParallelisms = []int{0, 1}

// withStorageDir returns opts pointed at a fresh file-backend directory.
func withStorageDir(t *testing.T, opts Options) Options {
	t.Helper()
	opts.StorageDir = filepath.Join(t.TempDir(), "store")
	return opts
}

func TestFileBackendTreeEquivalence(t *testing.T) {
	const n, length, k = 1500, 64, 5
	data := genData(t, n, length, 31)
	queries := genQueries(t, 10, length, 32)
	for _, materialized := range []bool{false, true} {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			for _, par := range equivParallelisms {
				t.Run(fmt.Sprintf("mat=%v/cache=%d/parallelism=%d", materialized, cacheBytes, par), func(t *testing.T) {
					opts := Options{SeriesLen: length, Materialized: materialized, CacheBytes: cacheBytes, Parallelism: par}
					sim, err := BuildTree(data, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer sim.Close()
					file, err := BuildTree(data, withStorageDir(t, opts))
					if err != nil {
						t.Fatal(err)
					}
					defer file.Close()
					for qi, q := range queries {
						want, err := sim.Search(q, k)
						if err != nil {
							t.Fatal(err)
						}
						got, err := file.Search(q, k)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("query %d: exact results diverged:\nsim:  %+v\nfile: %+v", qi, want, got)
						}
						wantA, err := sim.SearchApprox(q, k)
						if err != nil {
							t.Fatal(err)
						}
						gotA, err := file.SearchApprox(q, k)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(wantA, gotA) {
							t.Fatalf("query %d: approx results diverged", qi)
						}
						eps := 1.0 + float64(qi)
						wantR, err := sim.SearchRange(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						gotR, err := file.SearchRange(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(wantR, gotR) {
							t.Fatalf("query %d: range results diverged", qi)
						}
					}
					wantB, err := sim.SearchBatch(queries, k)
					if err != nil {
						t.Fatal(err)
					}
					gotB, err := file.SearchBatch(queries, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantB, gotB) {
						t.Fatal("batch results diverged")
					}
					// Identical access sequences must produce identical
					// accounting: both backends embed the same counter core.
					if cacheBytes == 0 && par == 1 {
						if ws, gs := sim.Stats(), file.Stats(); ws != gs {
							t.Fatalf("stats diverged:\nsim:  %+v\nfile: %+v", ws, gs)
						}
					}
				})
			}
		}
	}
}

func TestFileBackendLSMEquivalence(t *testing.T) {
	const n, length, k = 1200, 64, 5
	data := genData(t, n, length, 33)
	queries := genQueries(t, 10, length, 34)
	for _, par := range equivParallelisms {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			opts := Options{SeriesLen: length, BufferEntries: 64, GrowthFactor: 3, Parallelism: par}
			sim, err := NewLSM(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			file, err := NewLSM(withStorageDir(t, opts))
			if err != nil {
				t.Fatal(err)
			}
			defer file.Close()
			for i, s := range data {
				ts := int64(i % 13)
				if err := sim.Insert(s, ts); err != nil {
					t.Fatal(err)
				}
				if err := file.Insert(s, ts); err != nil {
					t.Fatal(err)
				}
			}
			if err := sim.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := file.Flush(); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				want, err := sim.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := file.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("query %d: exact results diverged", qi)
				}
				wantW, err := sim.SearchWindow(q, k, 3, 9)
				if err != nil {
					t.Fatal(err)
				}
				gotW, err := file.SearchWindow(q, k, 3, 9)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantW, gotW) {
					t.Fatalf("query %d: windowed results diverged", qi)
				}
				wantR, err := sim.SearchRange(q, 2.5)
				if err != nil {
					t.Fatal(err)
				}
				gotR, err := file.SearchRange(q, 2.5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantR, gotR) {
					t.Fatalf("query %d: range results diverged", qi)
				}
			}
			wantB, err := sim.SearchBatch(queries, k)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := file.SearchBatch(queries, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantB, gotB) {
				t.Fatal("batch results diverged")
			}
			if ws, gs := sim.Stats(), file.Stats(); par == 1 && ws != gs {
				t.Fatalf("stats diverged:\nsim:  %+v\nfile: %+v", ws, gs)
			}
		})
	}
}

func TestFileBackendStreamEquivalence(t *testing.T) {
	const n, length, k = 900, 64, 5
	data := genData(t, n, length, 35)
	queries := genQueries(t, 8, length, 36)
	for _, kind := range []SchemeKind{PP, TP, BTP} {
		for _, par := range equivParallelisms {
			t.Run(fmt.Sprintf("%s/parallelism=%d", kind, par), func(t *testing.T) {
				opts := Options{SeriesLen: length, BufferEntries: 128, Parallelism: par}
				sim, err := NewStream(kind, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Close()
				file, err := NewStream(kind, withStorageDir(t, opts))
				if err != nil {
					t.Fatal(err)
				}
				defer file.Close()
				for i, s := range data {
					ts := int64(i)
					if _, err := sim.Ingest(s, ts); err != nil {
						t.Fatal(err)
					}
					if _, err := file.Ingest(s, ts); err != nil {
						t.Fatal(err)
					}
				}
				if err := sim.Seal(); err != nil {
					t.Fatal(err)
				}
				if err := file.Seal(); err != nil {
					t.Fatal(err)
				}
				if sim.Partitions() != file.Partitions() {
					t.Fatalf("partitions diverged: sim %d, file %d", sim.Partitions(), file.Partitions())
				}
				for qi, q := range queries {
					want, err := sim.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := file.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("query %d: exact results diverged", qi)
					}
					minTS, maxTS := int64(n/4), int64(3*n/4)
					wantW, err := sim.SearchWindow(q, k, minTS, maxTS)
					if err != nil {
						t.Fatal(err)
					}
					gotW, err := file.SearchWindow(q, k, minTS, maxTS)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantW, gotW) {
						t.Fatalf("query %d: windowed results diverged", qi)
					}
					wantA, err := sim.SearchApprox(q, k, minTS, maxTS)
					if err != nil {
						t.Fatal(err)
					}
					gotA, err := file.SearchApprox(q, k, minTS, maxTS)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantA, gotA) {
						t.Fatalf("query %d: approx results diverged", qi)
					}
				}
				if ws, gs := sim.Stats(), file.Stats(); par == 1 && ws != gs {
					t.Fatalf("stats diverged:\nsim:  %+v\nfile: %+v", ws, gs)
				}
			})
		}
	}
}

func TestFileBackendShardedEquivalence(t *testing.T) {
	const n, length, k, shards = 1800, 64, 5, 3
	data := genData(t, n, length, 37)
	queries := genQueries(t, 10, length, 38)
	opts := Options{SeriesLen: length}

	t.Run("tree", func(t *testing.T) {
		sim, err := BuildShardedTree(data, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		fopts := withStorageDir(t, opts)
		file, err := BuildShardedTree(data, shards, fopts)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		// Each shard must own its own subdirectory of the storage root.
		for i := 0; i < shards; i++ {
			sub := filepath.Join(fopts.StorageDir, fmt.Sprintf("shard-%03d", i))
			if st, err := os.Stat(sub); err != nil || !st.IsDir() {
				t.Fatalf("shard %d storage dir %s missing: %v", i, sub, err)
			}
		}
		for qi, q := range queries {
			want, err := sim.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := file.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query %d: exact results diverged", qi)
			}
		}
		wantB, err := sim.SearchBatch(queries, k)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := file.SearchBatch(queries, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantB, gotB) {
			t.Fatal("batch results diverged")
		}
	})

	t.Run("lsm", func(t *testing.T) {
		lopts := opts
		lopts.BufferEntries = 64
		sim, err := NewShardedLSM(shards, lopts)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		file, err := NewShardedLSM(shards, withStorageDir(t, lopts))
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		for i, s := range data {
			ts := int64(i % 11)
			if err := sim.Insert(s, ts); err != nil {
				t.Fatal(err)
			}
			if err := file.Insert(s, ts); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := file.Flush(); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			want, err := sim.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := file.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query %d: exact results diverged", qi)
			}
			wantW, err := sim.SearchWindow(q, k, 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			gotW, err := file.SearchWindow(q, k, 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantW, gotW) {
				t.Fatalf("query %d: windowed results diverged", qi)
			}
		}
	})
}

// TestFileBackendVariantsEquivalence builds every assembled variant twice —
// on the simulated disk and on the file-backed page store — and holds the
// file build to the simulated one: the same exact answers, the same
// io-cost per query and the same whole-disk Stats. It is the one suite
// that reaches ADS+ and ADSFull, which have no facade.
func TestFileBackendVariantsEquivalence(t *testing.T) {
	const n, length, k = 1200, 64, 5
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: n, Len: length, FracEvent: 0.05, Seed: 7})
	queries := genQueries(t, 6, length, 23)
	for _, v := range assemble.Variants {
		t.Run(v, func(t *testing.T) {
			spec := assemble.Spec{Variant: v, SeriesLen: length, Segments: 8, Bits: 8}
			sim, err := assemble.Build(spec, ds)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			spec.StorageDir = filepath.Join(t.TempDir(), "store")
			file, err := assemble.Build(spec, ds)
			if err != nil {
				t.Fatal(err)
			}
			defer file.Close()
			exact := func(b *assemble.Built) ([][]index.Result, float64) {
				before := b.IOStats()
				out := make([][]index.Result, len(queries))
				for i, q := range queries {
					if out[i], err = b.ExactSearch(index.NewQuery(q, b.Config), k); err != nil {
						t.Fatal(err)
					}
				}
				return out, b.IOStats().Sub(before).Cost(storage.DefaultCostModel) / float64(len(queries))
			}
			want, simCost := exact(sim)
			got, fileCost := exact(file)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("exact results diverged:\nsim:  %+v\nfile: %+v", want, got)
			}
			if simCost != fileCost {
				t.Fatalf("io-cost/query diverged: sim %.1f, file %.1f", simCost, fileCost)
			}
			if ss, fs := sim.Disk.Stats(), file.Disk.Stats(); ss != fs {
				t.Fatalf("disk accounting diverged:\nsim:  %+v\nfile: %+v", ss, fs)
			}
		})
	}
}

// TestFileBackendPersistence proves the snapshot format is shared: a
// file-backed tree saves a snapshot byte-compatible with OpenTree, and the
// reopened (simulated-disk) tree answers identically.
func TestFileBackendPersistence(t *testing.T) {
	const n, length, k = 800, 64, 5
	data := genData(t, n, length, 39)
	queries := genQueries(t, 6, length, 40)
	file, err := BuildTree(data, withStorageDir(t, Options{SeriesLen: length}))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	snap := filepath.Join(t.TempDir(), "tree.snapshot")
	if err := file.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenTree(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	reopened.SetParallelism(1)
	for qi, q := range queries {
		want, err := file.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d: reopened results diverged", qi)
		}
	}
}
