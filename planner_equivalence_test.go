package coconut

import (
	"fmt"
	"sync"
	"testing"
)

// These tests pin the query planner's core contract at the facade level:
// ordering probes by synopsis bound and skipping bound-dominated units may
// change I/O cost and wall-clock time, but never answers. Every query below
// runs against a planner-off reference (the build's planner with Disabled
// set — the reference path these tests exist to exercise) and a planned
// index, and must match byte for byte on exact, range, windowed, and batch
// searches, for Tree, LSM, and Sharded at shard counts 1, 2, 4, and 7.

// checkPlannedEquiv runs the query matrix against the planner-off
// reference.
func checkPlannedEquiv(t *testing.T, label string, queries [][]float64, off, on equivSearcher) {
	t.Helper()
	for _, q := range queries {
		wantK, err := off.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		eps := 1.0
		if len(wantK) > 2 {
			eps = wantK[2].Dist // guarantees a non-trivial range answer
		}
		wantR, err := off.SearchRange(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		gotK, err := on.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, label+"/exact", wantK, gotK)
		gotR, err := on.SearchRange(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, label+"/range", wantR, gotR)
	}
}

func TestPlannedTreeEquivalence(t *testing.T) {
	data, queries := cacheEquivData(3000, 64, 11)
	for _, mat := range []bool{false, true} {
		opts := Options{SeriesLen: 64, Segments: 8, Bits: 6, Materialized: mat}
		ref, err := BuildTree(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref.b.Planner.Disabled = true
		planned, err := BuildTree(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := map[bool]string{false: "tree", true: "treefull"}[mat]
		checkPlannedEquiv(t, label, queries, ref, planned)
		// Batch answers match the per-query planned answers.
		wantB, err := ref.SearchBatch(queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := planned.SearchBatch(queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantB {
			sameMatches(t, fmt.Sprintf("%s/batch/%d", label, i), wantB[i], gotB[i])
		}
		if st := ref.Stats(); st.PlannedSkips != 0 {
			t.Fatalf("planner-off %s reports planner activity (%+v)", label, st)
		}
	}
}

func TestPlannedLSMEquivalence(t *testing.T) {
	data, queries := cacheEquivData(3000, 64, 12)
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
	opts := Options{SeriesLen: 64, Segments: 8, Bits: 6}
	ref := build(opts)
	ref.b.Planner.Disabled = true
	planned := build(opts)
	checkPlannedEquiv(t, "lsm", queries, ref, planned)
	for _, q := range queries[:4] {
		want, err := ref.SearchWindow(q, 5, 500, 2200)
		if err != nil {
			t.Fatal(err)
		}
		got, err := planned.SearchWindow(q, 5, 500, 2200)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "lsm/window", want, got)
	}
	wantB, err := ref.SearchBatch(queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := planned.SearchBatch(queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantB {
		sameMatches(t, fmt.Sprintf("lsm/batch/%d", i), wantB[i], gotB[i])
	}
}

func TestPlannedShardedEquivalence(t *testing.T) {
	data, queries := cacheEquivData(3000, 64, 13)
	opts := Options{SeriesLen: 64, Segments: 8, Bits: 6, Materialized: true}
	// The strongest reference: a planner-off unsharded tree, which the
	// sharded planned answers must match byte for byte at every count.
	ref, err := BuildTree(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.b.Planner.Disabled = true
	for _, shards := range []int{1, 2, 4, 7} {
		refSharded, err := BuildShardedTree(data, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		refSharded.b.Planner.Disabled = true
		planned, err := BuildShardedTree(data, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("sharded%d", shards)
		checkPlannedEquiv(t, label, queries, ref, planned)
		for _, q := range queries[:4] {
			want, err := refSharded.SearchWindow(q, 5, 100, 2500)
			if err != nil {
				t.Fatal(err)
			}
			got, err := planned.SearchWindow(q, 5, 100, 2500)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, label+"/window", want, got)
		}
		wantB, err := refSharded.SearchBatch(queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := planned.SearchBatch(queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantB {
			sameMatches(t, fmt.Sprintf("%s/batch/%d", label, i), wantB[i], gotB[i])
		}
		if st := refSharded.Stats(); st.PlannedSkips != 0 {
			t.Fatalf("planner-off %s reports %d skips", label, st.PlannedSkips)
		}
	}
}

// TestPlannedShardedLSMEquivalence covers the LSM shard kind (runs inside
// shards, so the shard plan nests over the per-run plan).
func TestPlannedShardedLSMEquivalence(t *testing.T) {
	data, queries := cacheEquivData(2000, 64, 14)
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
	opts := Options{SeriesLen: 64, Segments: 8, Bits: 6}
	for _, shards := range []int{2, 7} {
		ref := build(opts, shards)
		ref.b.Planner.Disabled = true
		planned := build(opts, shards)
		checkPlannedEquiv(t, fmt.Sprintf("shardedlsm%d", shards), queries[:6], ref, planned)
	}
}

// TestPlannedConcurrentBatches hammers one shared planner from concurrent
// SearchBatch calls over a duplicated query set and checks every answer
// against the planner-off reference. Run under -race this also pins the
// searches' records and the build's running total race-clean across batch
// worker slots.
func TestPlannedConcurrentBatches(t *testing.T) {
	data, queries := cacheEquivData(2000, 64, 15)
	opts := Options{SeriesLen: 64, Segments: 8, Bits: 6, Materialized: true}
	ref, err := BuildShardedTree(data, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.b.Planner.Disabled = true
	planned, err := BuildShardedTree(data, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	dup := append(append([][]float64{}, queries...), queries...)
	want, err := ref.SearchBatch(dup, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got, err := planned.SearchBatch(dup, 5)
				if err != nil {
					errs[g] = err
					return
				}
				for i := range want {
					if len(got[i]) != len(want[i]) {
						errs[g] = fmt.Errorf("goroutine %d round %d query %d: %d vs %d results", g, round, i, len(got[i]), len(want[i]))
						return
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							errs[g] = fmt.Errorf("goroutine %d round %d query %d result %d: %+v vs %+v", g, round, i, j, got[i][j], want[i][j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
