package workload

import (
	"fmt"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
)

// E17Planner measures the statistics-driven query planner end to end: exact
// k-NN queries against a non-materialized CTree with the planner on versus
// off (Disabled set on the build's planner, the reference path), on a skewed
// workload: queries are small perturbations of indexed series, so the
// collector's pruning bound
// tightens almost immediately and the planner's envelope bounds disqualify
// most leaf ranges before their pages are read.
//
// Two properties are asserted rather than merely reported, failing the
// experiment instead of publishing a wrong table:
//
//   - results with the planner on are byte-identical to the planner-off
//     run's;
//   - the workload records envelope skips and a strictly lower
//     io-cost/query than the planner-off run (the tentpole claim).
func E17Planner(sc Scale, n, numQueries, k int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:    "E17",
		Title: fmt.Sprintf("query planner over N=%d series, %d exact %d-NN skewed queries (CTree, raw file on disk)", n, numQueries, k),
		Note: "skewed = perturbed indexed series; answers byte-identical to planner-off (verified); " +
			"planned io-cost strictly below planner-off (verified)",
		Columns: []string{"workload", "planner", "io/q", "skips/q"},
	}
	ds := sc.dataset(n)
	queries, _ := gen.Queries(ds, numQueries, 0.02, sc.Seed+17)
	iqs := make([]index.Query, len(queries))
	for i, q := range queries {
		iqs[i] = index.NewQuery(q, sc.config())
	}

	// A modest construction budget yields a multi-level tree with many leaf
	// ranges — the unit the planner orders and skips.
	build := func() (*assemble.Built, error) {
		return assemble.Build(sc.spec("CTree", assemble.Spec{MemBudget: 64 << 10}), ds)
	}
	off, err := build()
	if err != nil {
		return nil, fmt.Errorf("E17 planner-off: %w", err)
	}
	off.Planner.Disabled = true
	reference, offStats, err := exactPass(off, iqs, k)
	if err != nil {
		return nil, fmt.Errorf("E17 planner-off: %w", err)
	}
	if offStats.PlannedSkips != 0 {
		return nil, fmt.Errorf("E17: planner-off run reports planner activity (%+v)", offStats)
	}
	offCost := offStats.Cost(sc.Cost)
	t.AddRow("skewed", "off", fmt.Sprintf("%.0f", offCost), "0")

	on, err := build()
	if err != nil {
		return nil, fmt.Errorf("E17 planner-on: %w", err)
	}
	got, onStats, err := exactPass(on, iqs, k)
	if err != nil {
		return nil, fmt.Errorf("E17 planner-on: %w", err)
	}
	if err := sameResults(reference, got); err != nil {
		return nil, fmt.Errorf("E17: planned diverged from planner-off: %w", err)
	}
	if onStats.PlannedSkips == 0 {
		return nil, fmt.Errorf("E17: skewed workload recorded no envelope skips")
	}
	onCost := onStats.Cost(sc.Cost)
	if !(onCost < offCost) {
		return nil, fmt.Errorf("E17: planned io-cost/query %.1f not below planner-off %.1f", onCost, offCost)
	}
	t.AddRow("skewed", "on", fmt.Sprintf("%.0f", onCost), fmt.Sprintf("%.1f", float64(onStats.PlannedSkips)/float64(len(iqs))))
	return t, nil
}
