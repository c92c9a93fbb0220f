package coconut

import (
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/clsm"
	"repro/internal/ctree"
)

// TestPackedFixtures opens the snapshots under testdata/, which hold the
// packed page layout — delta- and bit-packed keys, frame-of-reference IDs
// and timestamps, payloads verbatim — that older builds wrote when asked to
// and no build writes now. They were saved by such a build and are never
// rewritten:
//
//   - ctree_v6_packed_full.ccnut: a materialized CTree (meta v6) of
//     cacheEquivData(240, 32, 41)'s first 150 series, summarized to 8
//     segments of 6 bits and bulk-loaded on 2048-byte pages at fill 0.7,
//     then the next 30 inserted at timestamps 5–34, which split leaves.
//   - clsm_v4_packed.ccnut: a key-only CLSM (meta and manifest v4: it was
//     saved with a write-ahead log) of cacheEquivData(450, 32, 42)'s first
//     300 series at timestamps 0–299, buffer 32, growth factor 3, on
//     1024-byte pages, with its raw series, in two packed runs.
//
// Each opens uncached and behind a 32 KB pool (fewer pages than either), and
// is held to a fixed-size index built now from the same series with the same
// writes — byte-identical answers: packed ≡ fixed — and to brute force, as
// opened, after writes, and after a save and a reopen. The tree's inserts
// split its packed leaves, which stay packed; the LSM's flushes run merges
// that read its packed runs and write fixed-size ones, so it holds both
// layouts, as a reopened older LSM does.
func TestPackedFixtures(t *testing.T) {
	for _, cache := range []int64{0, 32 << 10} {
		name := map[bool]string{false: "", true: "-cached"}[cache > 0]
		t.Run("ctree"+name, func(t *testing.T) {
			data, queries := cacheEquivData(240, 32, 41)
			ref, err := BuildTree(data[:150], Options{SeriesLen: 32, Segments: 8, Bits: 6, Materialized: true, FillFactor: 0.7, PageSize: 2048})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			insert := func(idx *Tree, from, to int) {
				for i := from; i < to; i++ {
					if err := idx.Insert(data[i], int64(i-145)); err != nil {
						t.Fatal(err)
					}
				}
			}
			insert(ref, 150, 180)
			leaves := func(t *testing.T, idx *Tree) int {
				if packed, fixed := fileLayouts(t, idx.b, "ctree.leaves"); packed != 1 || fixed != 0 {
					t.Fatalf("%d packed and %d fixed-size leaf files", packed, fixed)
				}
				return idx.b.Index.(*ctree.Tree).Leaves()
			}
			tr := openFixture(t, OpenTree, filepath.Join("testdata", "ctree_v6_packed_full.ccnut"), cache)
			t.Run("opened", func(t *testing.T) {
				leaves(t, tr)
				checkPackedFixture(t, &tr.handle, &ref.handle, data[:180], queries, cache)
			})
			t.Run("inserts", func(t *testing.T) {
				before := leaves(t, tr)
				insert(tr, 180, 240)
				insert(ref, 180, 240)
				if after := leaves(t, tr); after <= before {
					t.Fatalf("60 inserts split no leaf: %d leaves, then %d", before, after)
				}
				checkPackedFixture(t, &tr.handle, &ref.handle, data, queries, cache)
			})
			t.Run("reopened", func(t *testing.T) {
				again := openFixture(t, OpenTree, saveFixture(t, tr), cache)
				leaves(t, again)
				checkPackedFixture(t, &again.handle, &ref.handle, data, queries, cache)
			})
		})
		t.Run("clsm"+name, func(t *testing.T) {
			data, queries := cacheEquivData(450, 32, 42)
			ref, err := NewLSM(Options{SeriesLen: 32, Segments: 8, Bits: 6, BufferEntries: 32, GrowthFactor: 3, PageSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
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
			insert(ref, 0, 300)
			l := openFixture(t, OpenLSM, filepath.Join("testdata", "clsm_v4_packed.ccnut"), cache)
			t.Run("opened", func(t *testing.T) {
				if packed, fixed := fileLayouts(t, l.b, "clsm.run."); packed != l.Runs() || fixed != 0 {
					t.Fatalf("%d packed and %d fixed-size runs; want all %d packed", packed, fixed, l.Runs())
				}
				checkPackedFixture(t, &l.handle, &ref.handle, data[:300], queries, cache)
			})
			t.Run("merges", func(t *testing.T) {
				merges := l.CompactionStats().Merges
				insert(l, 300, 450)
				insert(ref, 300, 450)
				if packed, fixed := fileLayouts(t, l.b, "clsm.run."); l.CompactionStats().Merges == merges || packed != 1 || fixed == 0 {
					t.Fatalf("after %d merges, %d packed and %d fixed-size runs; want one of the two packed runs merged",
						l.CompactionStats().Merges-merges, packed, fixed)
				}
				checkPackedFixture(t, &l.handle, &ref.handle, data, queries, cache)
			})
			t.Run("reopened", func(t *testing.T) {
				again := openFixture(t, OpenLSM, saveFixture(t, l), cache)
				if packed, fixed := fileLayouts(t, again.b, "clsm.run."); packed != 1 || fixed == 0 {
					t.Fatalf("%d packed and %d fixed-size runs, reopened", packed, fixed)
				}
				checkPackedFixture(t, &again.handle, &ref.handle, data, queries, cache)
			})
		})
	}
}

// openFixture opens the snapshot at path behind a pool of cache bytes,
// closed with the test.
func openFixture[T interface{ Close() error }](t *testing.T, open func(string, ...Options) (T, error), path string, cache int64) T {
	t.Helper()
	idx, err := open(path, Options{CacheBytes: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx
}

// saveFixture saves idx as a snapshot in a directory of the test's own.
func saveFixture(t *testing.T, idx interface{ SaveFile(string) error }) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.ccnut")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkPackedFixture holds idx to ref, a fixed-size index over data: exact,
// range, windowed (an LSM's) and batch answers byte-identical, and the exact
// ones the nearest of data by brute force. An approximate answer depends on
// where pages end, so it is held to the true distances of the series it
// names. Behind a pool, the searches must have gone through it.
func checkPackedFixture(t *testing.T, idx, ref *handle, data, queries [][]float64, cache int64) {
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

// fileLayouts counts the build's files named with prefix by layout: packed
// when every page opens as a packed page of the build's codec, fixed-size
// when none does.
func fileLayouts(t *testing.T, b *assemble.Built, prefix string) (packed, fixed int) {
	t.Helper()
	page := make([]byte, b.Disk.PageSize())
	for _, f := range b.Disk.Files() {
		n, err := b.Disk.NumPages(f)
		if !strings.HasPrefix(f, prefix) || err != nil {
			continue
		}
		opened := 0
		for p := int64(0); p < n; p++ {
			if _, err := b.Disk.ReadPage(f, p, page); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Config.Codec().ViewPacked(page); err == nil {
				opened++
			}
		}
		switch opened {
		case int(n):
			packed++
		case 0:
			fixed++
		default:
			t.Fatalf("%s: %d of %d pages open as packed", f, opened, n)
		}
	}
	return packed, fixed
}
