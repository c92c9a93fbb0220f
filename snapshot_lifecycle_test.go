package coconut

import (
	"math"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/clsm"
	"repro/internal/ctree"
)

// TestSnapshotLifecycle saves an index as a snapshot and opens it again,
// uncached and behind a 32 KB pool (fewer pages than either index), and
// holds it to the same index never saved, which took the same writes —
// byte-identical answers — and to brute force: as opened, after writes, and
// after a second save and a reopen.
//
//   - ctree: a materialized tree of cacheEquivData(240, 32, 41)'s first 150
//     series, summarized to 8 segments of 6 bits and bulk-loaded on
//     2048-byte pages at fill 0.7, then the next 30 inserted at timestamps
//     5–34, which split leaves. The opened tree's inserts split the leaves
//     it opened.
//   - clsm: a key-only LSM of cacheEquivData(450, 32, 42)'s first 300 series
//     at timestamps 0–299, buffer 32, growth factor 3, on 1024-byte pages.
//     The opened LSM's flushes run merges that read the runs it opened.
func TestSnapshotLifecycle(t *testing.T) {
	for _, cache := range []int64{0, 32 << 10} {
		name := map[bool]string{false: "", true: "-cached"}[cache > 0]
		t.Run("ctree"+name, func(t *testing.T) {
			data, queries := cacheEquivData(240, 32, 41)
			insert := func(idx *Tree, from, to int) {
				for i := from; i < to; i++ {
					if err := idx.Insert(data[i], int64(i-145)); err != nil {
						t.Fatal(err)
					}
				}
			}
			build := func() *Tree {
				tr, err := BuildTree(data[:150], Options{SeriesLen: 32, Segments: 8, Bits: 6, Materialized: true, FillFactor: 0.7, PageSize: 2048})
				if err != nil {
					t.Fatal(err)
				}
				insert(tr, 150, 180)
				return tr
			}
			ref := build()
			defer ref.Close()
			saved := build()
			path := saveSnapshot(t, saved)
			saved.Close()
			leaves := func(idx *Tree) int { return idx.b.Index.(*ctree.Tree).Leaves() }
			tr := openSnapshot(t, OpenTree, path, cache)
			t.Run("opened", func(t *testing.T) {
				if got, want := leaves(tr), leaves(ref); got != want {
					t.Fatalf("opened with %d leaves, saved with %d", got, want)
				}
				checkSnapshot(t, &tr.handle, &ref.handle, data[:180], queries, cache)
			})
			t.Run("inserts", func(t *testing.T) {
				before := leaves(tr)
				insert(tr, 180, 240)
				insert(ref, 180, 240)
				if after := leaves(tr); after <= before {
					t.Fatalf("60 inserts split no leaf: %d leaves, then %d", before, after)
				}
				checkSnapshot(t, &tr.handle, &ref.handle, data, queries, cache)
			})
			t.Run("reopened", func(t *testing.T) {
				again := openSnapshot(t, OpenTree, saveSnapshot(t, tr), cache)
				if got, want := leaves(again), leaves(tr); got != want {
					t.Fatalf("reopened with %d leaves, saved with %d", got, want)
				}
				checkSnapshot(t, &again.handle, &ref.handle, data, queries, cache)
			})
		})
		t.Run("clsm"+name, func(t *testing.T) {
			data, queries := cacheEquivData(450, 32, 42)
			insert := func(idx *LSM, from, to int) {
				for i := from; i < to; i++ {
					if err := idx.Insert(data[i], int64(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := idx.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			build := func() *LSM {
				l, err := NewLSM(Options{SeriesLen: 32, Segments: 8, Bits: 6, BufferEntries: 32, GrowthFactor: 3, PageSize: 1024})
				if err != nil {
					t.Fatal(err)
				}
				insert(l, 0, 300)
				return l
			}
			ref := build()
			defer ref.Close()
			saved := build()
			path := saveSnapshot(t, saved)
			saved.Close()
			l := openSnapshot(t, OpenLSM, path, cache)
			t.Run("opened", func(t *testing.T) {
				if got, want := l.Runs(), ref.Runs(); got != want {
					t.Fatalf("opened with %d runs, saved with %d", got, want)
				}
				checkSnapshot(t, &l.handle, &ref.handle, data[:300], queries, cache)
			})
			t.Run("merges", func(t *testing.T) {
				merges := l.CompactionStats().Merges
				insert(l, 300, 450)
				insert(ref, 300, 450)
				if l.CompactionStats().Merges == merges {
					t.Fatalf("150 inserts ran no merge over %d runs", l.Runs())
				}
				checkSnapshot(t, &l.handle, &ref.handle, data, queries, cache)
			})
			t.Run("reopened", func(t *testing.T) {
				again := openSnapshot(t, OpenLSM, saveSnapshot(t, l), cache)
				if got, want := again.Runs(), l.Runs(); got != want {
					t.Fatalf("reopened with %d runs, saved with %d", got, want)
				}
				checkSnapshot(t, &again.handle, &ref.handle, data, queries, cache)
			})
		})
	}
}

// openSnapshot opens the snapshot at path behind a pool of cache bytes,
// closed with the test.
func openSnapshot[T interface{ Close() error }](t *testing.T, open func(string, ...Options) (T, error), path string, cache int64) T {
	t.Helper()
	idx, err := open(path, Options{CacheBytes: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx
}

// saveSnapshot saves idx as a snapshot in a directory of the test's own.
func saveSnapshot(t *testing.T, idx interface{ SaveFile(string) error }) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.ccnut")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkSnapshot holds idx to ref, an index over data never saved: exact,
// range, windowed (an LSM's) and batch answers byte-identical, and the exact
// ones the nearest of data by brute force. An approximate answer depends on
// where pages end, so it is held to the true distances of the series it
// names. Behind a pool, the searches must have gone through it.
func checkSnapshot(t *testing.T, idx, ref *handle, data, queries [][]float64, cache int64) {
	t.Helper()
	for _, q := range queries {
		brute := make([]Match, len(data))
		for id, s := range data {
			brute[id] = Match{ID: id, Dist: trueDist(q, s)}
		}
		want, err := ref.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "exact", want, got)
		approx, err := idx.SearchApprox(q, 5)
		if err != nil || len(approx) == 0 {
			t.Fatalf("approx: %d results, %v", len(approx), err)
		}
		for i, m := range approx {
			if math.Abs(brute[m.ID].Dist-m.Dist) > 1e-9 {
				t.Fatalf("approx result %d (ID %d): dist %v, true distance %v", i, m.ID, m.Dist, brute[m.ID].Dist)
			}
		}
		sort.Slice(brute, func(i, j int) bool { return brute[i].Dist < brute[j].Dist })
		for i, m := range got {
			if m.ID != brute[i].ID || math.Abs(m.Dist-brute[i].Dist) > 1e-9 {
				t.Fatalf("exact result %d: %+v, brute force %+v", i, m, brute[i])
			}
		}
		wantR, err := ref.SearchRange(q, want[2].Dist)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := idx.SearchRange(q, want[2].Dist)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "range", wantR, gotR)
		if _, lsm := ref.b.Index.(*clsm.LSM); lsm {
			want, err := ref.searchWindow(q, 5, 100, 350)
			got, err2 := idx.searchWindow(q, 5, 100, 350)
			if err != nil || err2 != nil {
				t.Fatal(err, err2)
			}
			sameMatches(t, "window", want, got)
		}
	}
	want, err := ref.SearchBatch(queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.SearchBatch(queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		sameMatches(t, "batch", want[i], got[i])
	}
	if st := idx.Stats(); (st.CacheHits+st.CacheMisses > 0) != (cache > 0) {
		t.Fatalf("a pool of %d bytes, stats %+v", cache, st)
	}
}
