package coconut

import (
	"fmt"
	"testing"
)

// These tests pin the packed page encoding's core contract at the facade
// level: storing tree leaves and LSM runs delta/bit-packed may change page
// counts and I/O cost — both must drop — but never answers. Every query
// below runs against an uncompressed reference and a CompressRuns index and
// must match byte for byte on exact, range, windowed, and batch searches,
// for Tree, LSM, and Sharded at shard counts 1, 2, and 4. A final test
// pins the per-run encoding property: a snapshot written compressed reopens
// readable under either setting, mixing packed and fixed runs in one LSM.

func compressedOpts(base Options) (plain, comp Options) {
	plain, comp = base, base
	comp.CompressRuns = true
	return plain, comp
}

// checkCompressedEquiv runs the query matrix against the uncompressed
// reference, twice per query so any lazily-built state answers both cold
// and warm. Both indexes run the identical traffic — the per-index Stats
// stay comparable for the io-cost assertions afterwards.
func checkCompressedEquiv(t *testing.T, label string, queries [][]float64, plain, comp equivSearcher) {
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
			if pass == "warm" {
				// Mirror the extra pass on the reference so I/O totals match.
				if _, err := plain.Search(q, 5); err != nil {
					t.Fatal(err)
				}
				if _, err := plain.SearchRange(q, eps); err != nil {
					t.Fatal(err)
				}
			}
			gotK, err := comp.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, label+"/exact/"+pass, wantK, gotK)
			gotR, err := comp.SearchRange(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, label+"/range/"+pass, wantR, gotR)
		}
	}
}

// checkCompressedCheaper asserts the I/O contract after identical build and
// query traffic: key/id/ts-only layouts must strictly shrink (page count and
// io-cost both drop); materialized layouts carry verbatim payloads that
// dominate each entry, so they must merely never get worse. Callers compare
// only handles built with Parallelism 1 (see equivParallelisms): the
// seq/rand split io-cost weighs is schedule-dependent above that.
func checkCompressedCheaper(t *testing.T, label string, materialized bool, refSt, compSt Stats) {
	t.Helper()
	refCost, compCost := refSt.Cost(10), compSt.Cost(10)
	if materialized {
		if compSt.Pages > refSt.Pages {
			t.Fatalf("%s: compressed index has %d pages, uncompressed %d", label, compSt.Pages, refSt.Pages)
		}
		// The page header is pure overhead on payload-dominated entries and
		// merge cascades rewrite it per page; tolerate a few percent.
		if compCost > refCost*1.05 {
			t.Fatalf("%s: compressed io-cost %.0f above uncompressed %.0f", label, compCost, refCost)
		}
		return
	}
	if compSt.Pages >= refSt.Pages {
		t.Fatalf("%s: compressed index has %d pages, uncompressed %d", label, compSt.Pages, refSt.Pages)
	}
	if compCost >= refCost {
		t.Fatalf("%s: compressed io-cost %.0f not below uncompressed %.0f", label, compCost, refCost)
	}
}

func TestCompressedTreeEquivalence(t *testing.T) {
	data, queries := cacheEquivData(3000, 64, 31)
	for _, mat := range []bool{false, true} {
		for _, par := range equivParallelisms {
			plainOpts, compOpts := compressedOpts(Options{SeriesLen: 64, Segments: 8, Bits: 6, Materialized: mat, Parallelism: par})
			ref, err := BuildTree(data, plainOpts)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := BuildTree(data, compOpts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/parallelism=%d", map[bool]string{false: "tree", true: "treefull"}[mat], par)
			checkCompressedEquiv(t, label, queries, ref, comp)
			wantB, err := ref.SearchBatch(queries, 5)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := comp.SearchBatch(queries, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantB {
				sameMatches(t, fmt.Sprintf("%s/batch/%d", label, i), wantB[i], gotB[i])
			}
			// The encoding's point: fewer pages hold the same entries, and the
			// same query traffic costs less I/O. Verbatim payloads dominate
			// materialized entries, so the strict win is pinned on the
			// key/id/ts-only layout; materialized must simply never get worse.
			if par == 1 {
				checkCompressedCheaper(t, label, mat, ref.Stats(), comp.Stats())
			}
		}
	}
}

func TestCompressedLSMEquivalence(t *testing.T) {
	data, queries := cacheEquivData(3000, 64, 32)
	build := func(opts Options) *LSM {
		opts.BufferEntries = 256
		opts.GrowthFactor = 3
		l, err := NewLSM(opts)
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
	for _, mat := range []bool{false, true} {
		for _, par := range equivParallelisms {
			plainOpts, compOpts := compressedOpts(Options{SeriesLen: 64, Segments: 8, Bits: 6, Materialized: mat, Parallelism: par})
			ref := build(plainOpts)
			comp := build(compOpts)
			label := fmt.Sprintf("%s/parallelism=%d", map[bool]string{false: "lsm", true: "lsmfull"}[mat], par)
			checkCompressedEquiv(t, label, queries, ref, comp)
			for _, q := range queries[:4] {
				want, err := ref.SearchWindow(q, 5, 500, 2200)
				if err != nil {
					t.Fatal(err)
				}
				got, err := comp.SearchWindow(q, 5, 500, 2200)
				if err != nil {
					t.Fatal(err)
				}
				sameMatches(t, label+"/window", want, got)
			}
			wantB, err := ref.SearchBatch(queries, 3)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := comp.SearchBatch(queries, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantB {
				sameMatches(t, fmt.Sprintf("%s/batch/%d", label, i), wantB[i], gotB[i])
			}
			if par == 1 {
				checkCompressedCheaper(t, label, mat, ref.Stats(), comp.Stats())
			}
		}
	}
}

func TestCompressedShardedEquivalence(t *testing.T) {
	data, queries := cacheEquivData(3000, 64, 33)
	plainOpts, compOpts := compressedOpts(Options{SeriesLen: 64, Segments: 8, Bits: 6, Materialized: true})
	// The strongest reference: an uncompressed unsharded tree, which the
	// sharded compressed answers must match byte for byte at every count.
	ref, err := BuildTree(data, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		comp, err := BuildShardedTree(data, shards, compOpts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("sharded%d", shards)
		checkCompressedEquiv(t, label, queries, ref, comp)
		wantB, err := ref.SearchBatch(queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := comp.SearchBatch(queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantB {
			sameMatches(t, fmt.Sprintf("%s/batch/%d", label, i), wantB[i], gotB[i])
		}
	}
}

func TestCompressedShardedLSMEquivalence(t *testing.T) {
	data, queries := cacheEquivData(2000, 64, 34)
	build := func(opts Options, shards int) *Sharded {
		opts.BufferEntries = 200
		opts.GrowthFactor = 3
		s, err := NewShardedLSM(shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, ser := range data {
			if err := s.Insert(ser, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	plainOpts, compOpts := compressedOpts(Options{SeriesLen: 64, Segments: 8, Bits: 6})
	for _, shards := range []int{2, 4} {
		ref := build(plainOpts, shards)
		comp := build(compOpts, shards)
		label := fmt.Sprintf("shardedlsm%d", shards)
		checkCompressedEquiv(t, label, queries[:6], ref, comp)
		for _, q := range queries[:4] {
			want, err := ref.SearchWindow(q, 5, 100, 1800)
			if err != nil {
				t.Fatal(err)
			}
			got, err := comp.SearchWindow(q, 5, 100, 1800)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, label+"/window", want, got)
		}
	}
}

// TestCompressedLSMReopenMixedRuns pins run encoding as a per-run property:
// a snapshot whose runs were written packed reopens readable with
// CompressRuns off (new flushes then write fixed-layout runs, so the LSM
// holds both encodings at once), and the mixed index still answers exactly
// like an uncompressed reference over the same data.
func TestCompressedLSMReopenMixedRuns(t *testing.T) {
	data, queries := cacheEquivData(1500, 64, 35)
	_, compOpts := compressedOpts(Options{SeriesLen: 64, Segments: 8, Bits: 6})
	compOpts.BufferEntries = 128
	compOpts.GrowthFactor = 3

	comp, err := NewLSM(compOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data[:1000] {
		if err := comp.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := comp.Flush(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/compressed.ccnut"
	if err := comp.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// Reopen with compression off: the packed runs must stay readable.
	reopened, err := OpenLSM(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data[1000:] {
		if err := reopened.Insert(s, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := reopened.Flush(); err != nil {
		t.Fatal(err)
	}

	// Uncompressed reference over the full data set.
	refOpts := Options{SeriesLen: 64, Segments: 8, Bits: 6, BufferEntries: 128, GrowthFactor: 3}
	ref, err := NewLSM(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := ref.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	checkCompressedEquiv(t, "mixed", queries, ref, reopened)

	// And back the other way: reopen the mixed index compressed again.
	path2 := t.TempDir() + "/mixed.ccnut"
	if err := reopened.SaveFile(path2); err != nil {
		t.Fatal(err)
	}
	again, err := OpenLSM(path2, Options{CompressRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	checkCompressedEquiv(t, "mixed/recompressed", queries[:6], ref, again)
}
