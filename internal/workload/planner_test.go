package workload

import (
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
)

// TestE17Planner runs the planner experiment at test scale: the experiment
// itself asserts byte-identity against the planner-off path, non-zero
// envelope skips with a strictly lower io-cost/query on the skewed
// workload — so a clean return is the property.
func TestE17Planner(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 6}
	tbl, err := E17Planner(sc, 3000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.Rows); got != 2 {
		t.Fatalf("E17 produced %d rows, want 2", got)
	}
}

// TestBuildVariantPlannerKnobs pins the planner plumbing: every build gets a
// planner, the parts of a sharded build share it with the group, and turning
// it off after the build (Disabled, the reference path) leaves the answers
// alone and the counter still — which RunQueries surfaces as deltas.
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
			if p.Planner != b.Planner {
				t.Fatalf("shards=%d: part %d plans with a planner of its own", shards, i)
			}
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
		reference, _, err := exactPass(b, iqs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(reference, planned); err != nil {
			t.Fatalf("shards=%d: planned answers diverged from the reference path: %v", shards, err)
		}
		b.Close()
	}
}
