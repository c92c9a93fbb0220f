package workload

import (
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
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

// TestBuildVariantPlannerKnobs pins the Spec plumbing: planner-off
// builds report no planner activity, sharded builds share one planner
// across shards, and RunQueries surfaces the counter deltas.
func TestBuildVariantPlannerKnobs(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 6}
	sc = sc.defaults()
	ds := sc.dataset(1500)
	queries, _ := gen.Queries(ds, 6, 0.05, sc.Seed+18)

	off, err := assemble.Build(sc.spec("CTree", assemble.Spec{DisablePlanner: true}), ds)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunQueries(off, queries, sc.config(), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlannedSkips != 0 {
		t.Fatalf("planner-off build reports planner activity: %+v", st)
	}

	sh, err := assemble.Build(sc.spec("CTree", assemble.Spec{Shards: 3}), ds)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Planner == nil {
		t.Fatal("sharded build has no planner")
	}
	if _, err := RunQueries(sh, queries, sc.config(), 3, true); err != nil {
		t.Fatal(err)
	}
}
