package workload

import (
	"fmt"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/obs"
)

// TestE17Planner compares a planned and a reference-path (Disabled) build of
// a non-materialized CTree on a skewed workload — queries are perturbations
// of indexed series, so the pruning bound tightens at once: the answers are
// byte-identical, and the planned path records envelope skips and a strictly
// lower io-cost/query.
func TestE17Planner(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 6}
	sc = sc.defaults()
	ds := sc.dataset(3000)
	queries, _ := gen.Queries(ds, 8, 0.02, sc.Seed+17)
	iqs := make([]index.Query, len(queries))
	for i, q := range queries {
		iqs[i] = index.NewQuery(q, sc.config())
	}
	// A modest construction budget yields a multi-level tree with many leaf
	// ranges — the unit the planner orders and skips.
	build := func() *assemble.Built {
		b, err := assemble.Build(sc.spec("CTree", assemble.Spec{MemBudget: 64 << 10}), ds)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	off := build()
	off.Planner.Disabled = true
	reference, offStats, err := exactPass(off, iqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if offStats.PlannedSkips != 0 {
		t.Fatalf("reference path reports planner activity: %+v", offStats)
	}
	got, onStats, err := exactPass(build(), iqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(reference, got); err != nil {
		t.Fatalf("planned answers diverged from the reference path: %v", err)
	}
	if onStats.PlannedSkips == 0 {
		t.Fatal("skewed workload recorded no envelope skips")
	}
	if onCost, offCost := onStats.Cost(sc.Cost), offStats.Cost(sc.Cost); !(onCost < offCost) {
		t.Fatalf("planned io-cost/query %.1f not below the reference path's %.1f", onCost, offCost)
	}
}

// TestBuildVariantPlannerKnobs pins the planner plumbing: every build gets a
// planner and the parts of a sharded build hold none, so one traced query's
// planned skips — shard, leaf range and page alike — are what it folded into
// the build's running total; turning the planner off after the build
// (Disabled, the reference path) leaves the answers alone and the total
// still — which RunQueries reports from its queries' records. On this
// skewed workload (queries are perturbed indexed series, so the pruning bound
// tightens at once) the planned path skips units and costs strictly less
// io per query than the reference path.
func TestBuildVariantPlannerKnobs(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 6}
	sc = sc.defaults()
	ds := sc.dataset(1500)
	queries, _ := gen.Queries(ds, 6, 0.05, sc.Seed+18)
	iqs := make([]index.Query, len(queries))
	for i, q := range queries {
		iqs[i] = index.NewQuery(q, sc.config())
	}

	for _, shards := range []int{0, 3} {
		b, err := assemble.Build(sc.spec("CTree", assemble.Spec{Shards: shards, MemBudget: 64 << 10}), ds)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range b.Parts {
			if p.Planner != nil {
				t.Fatalf("shards=%d: part %d holds a planner of its own", shards, i)
			}
		}
		var traced int64
		for i, q := range iqs {
			q.Trace, q.Tally = obs.NewQueryTrace(), new(obs.Tally)
			skips := b.Searched.PlannedSkips()
			if _, err := b.ExactSearch(q, 3); err != nil {
				t.Fatal(err)
			}
			d := b.Searched.PlannedSkips() - skips
			if snap := q.Trace.Snapshot(q.Tally); snap.PlannedSkips != d {
				t.Fatalf("shards=%d query %d: the trace planned %d skips, the build's running total counted %d", shards, i, snap.PlannedSkips, d)
			}
			traced += d
		}
		if traced == 0 {
			t.Fatalf("shards=%d: no traced query skipped anything", shards)
		}
		planned, on, err := exactPass(b, iqs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if on.PlannedSkips == 0 {
			t.Fatalf("shards=%d: planned build skipped nothing: %+v", shards, on)
		}
		b.Planner.Disabled = true
		st, err := RunQueries(b, queries, sc.config(), 3, true)
		if err != nil {
			t.Fatal(err)
		}
		if st.PlannedSkips != 0 {
			t.Fatalf("shards=%d: planner-off build reports planner activity: %+v", shards, st)
		}
		reference, off, err := exactPass(b, iqs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(reference, planned); err != nil {
			t.Fatalf("shards=%d: planned answers diverged from the reference path: %v", shards, err)
		}
		if onCost, offCost := on.Cost(sc.Cost), off.Cost(sc.Cost); !(onCost < offCost) {
			t.Fatalf("shards=%d: planned io-cost/query %.1f not below the reference path's %.1f", shards, onCost, offCost)
		}
		b.Close()
	}
}

// exactPass answers every prepared query exactly against b, returning the
// answers with the pass's accounting.
func exactPass(b *assemble.Built, iqs []index.Query, k int) ([][]index.Result, QueryStats, error) {
	return pass(b, len(iqs), k, func(i int) index.Query { return iqs[i] }, b.ExactSearch)
}

// sameResults reports the first divergence between two result batches.
func sameResults(a, b [][]index.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d result sets", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("query %d: %d vs %d results", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("query %d result %d: %+v vs %+v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}
