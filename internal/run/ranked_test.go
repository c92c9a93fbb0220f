package run

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/record"
)

// rankedPageSize holds two key-only testCfg entries to a page, so that 2 100
// entries make a run of 1 050 pages in 66 groups: more groups than a ranked
// probe ranks, and pages enough for the largest budget.
const rankedPageSize = 64

// rankedPlan is what a ranked probe of r must read for q, worked out here
// from the entries as the file holds them: the rankedGroups groups of least
// envelope bound (ties to the lower group), their pages' least in-window
// entry bounds from the entries' keys, pages with no in-window entry
// dropped, the rest by ascending (bound, page), the budget's worth.
func rankedPlan(r Run, pages [][]record.Entry, q index.Query, p *index.Pruner) []rankedPage {
	m := r.Sum
	groups := make([]int, m.Groups())
	bound := make([]float64, m.Groups())
	for g := range groups {
		groups[g] = g
		bound[g] = p.EnvelopeSq(m.env(m.grpMin, m.grpMax, g))
	}
	slices.SortStableFunc(groups, func(a, b int) int { return cmp.Compare(bound[a], bound[b]) })
	var plan []rankedPage
	for _, g := range groups[:min(rankedGroups, len(groups))] {
		for pg := m.grp[g].first; pg < m.end(g); pg++ {
			least := math.Inf(1)
			for _, e := range pages[pg] {
				if q.InWindow(e.TS) {
					least = min(least, p.MinDistSqKey(e.Key))
				}
			}
			if !math.IsInf(least, 1) {
				plan = append(plan, rankedPage{least, pg})
			}
		}
	}
	slices.SortFunc(plan, func(a, b rankedPage) int {
		if c := cmp.Compare(a.bound, b.bound); c != 0 {
			return c
		}
		return cmp.Compare(a.page, b.page)
	})
	return plan[:min(len(plan), rankedBudget(m.Pages()))]
}

// TestRankedProbe holds RankedProbe to its plan (rankedPlan) on a run of
// 1 050 pages: it reads the plan's pages in the plan's order, stopping at
// the first whose bound the collector then rules out — never a page with no
// entry in the window, never more than the budget — and answers as probing
// those pages one by one does. The collector comes in empty (k = 5 or 1),
// or holding the query's exact nearest neighbour (k = 1), which rules out
// every page whose least bound is beyond it before the probe reads one.
// Under the pinned-probe hook the probe bounds its candidates from their
// bytes: it pins each once more, then reads the same pages.
func TestRankedProbe(t *testing.T) {
	defer SetPinnedProbe(false)
	entries, raw := testEntries(2100, 23)
	s, disk, _ := newStoreOf(t, "heap", rankedPageSize, testCfg, raw)
	r, err := s.Write("r", entries)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sum.Pages() != 1050 || r.Sum.Groups() <= rankedGroups {
		t.Fatalf("fixture: %d pages in %d groups", r.Sum.Pages(), r.Sum.Groups())
	}
	pages := readPages(t, disk, r)
	tr := &orderTracer{}
	disk.SetTracer(tr)
	var stopped, full, narrow int
	for i, base := range testQueries(8, 31) {
		for _, q := range []index.Query{base, base.WithWindow(400, 1100), base.WithWindow(2000, 2003), base.WithWindow(5000, 6000)} {
			inWindow := entries[:0:0]
			for _, e := range entries {
				if q.InWindow(e.TS) {
					inWindow = append(inWindow, e)
				}
			}
			for _, start := range []struct {
				k      int
				seeded bool
			}{{5, false}, {1, false}, {1, true}} {
				name := fmt.Sprintf("query %d window %v [%d, %d] k %d seeded %v", i, q.Windowed, q.MinTS, q.MaxTS, start.k, start.seeded)
				ctx := index.AcquireCtx(q, testCfg)
				sc := ctx.Scratch0()
				fresh := func() *index.Collector {
					col := index.NewCollector(start.k)
					if start.seeded {
						for _, res := range bruteKNN(q, inWindow, raw, start.k) {
							col.Add(res)
						}
					}
					return col
				}
				plan := rankedPlan(r, pages, q, &ctx.P)
				want, wantCol := []int64{}, fresh()
				for _, c := range plan {
					if wantCol.SkipSq(c.bound) {
						break
					}
					want = append(want, int64(c.page))
					if _, err := s.ProbePage(r, c.page, q, wantCol, sc); err != nil {
						t.Fatal(err)
					}
				}
				tr.take()
				for _, pinned := range []bool{false, true} {
					SetPinnedProbe(pinned)
					pins := ProbePins()
					col := fresh()
					if err := s.RankedProbe(r, q, col, sc); err != nil {
						t.Fatal(err)
					}
					read, pins := tr.take(), ProbePins()-pins
					if pinned {
						if pins == 0 || int64(len(read)) != pins+int64(len(want)) {
							t.Fatalf("%s, pinned: %d reads, %d of them ranking pins, want %d probes besides", name, len(read), pins, len(want))
						}
						read = read[pins:]
					}
					if !slices.Equal(read, want) {
						t.Fatalf("%s, pinned %v: read pages %v, want %v (plan %v)", name, pinned, read, want, plan)
					}
					if got := col.Results(); !reflect.DeepEqual(got, wantCol.Results()) {
						t.Fatalf("%s, pinned %v: answers %v, want %v", name, pinned, got, wantCol.Results())
					}
				}
				ctx.Release()
				for _, p := range want {
					in := false
					for _, e := range pages[p] {
						in = in || q.InWindow(e.TS)
					}
					if !in {
						t.Fatalf("%s: read page %d, which holds no entry in the window", name, p)
					}
				}
				budget := rankedBudget(r.Sum.Pages())
				switch {
				case len(want) > budget:
					t.Fatalf("%s: read %d pages, over the budget of %d", name, len(want), budget)
				case len(want) < len(plan) && !fresh().SkipSq(plan[len(want)].bound):
					stopped++ // by a bound the pages read before it set
				case len(want) == budget:
					full++
				}
				if len(inWindow) > 0 && len(plan) < budget {
					narrow++
				}
			}
		}
	}
	// The rows exercise each way a probe ends: at a page the collector has
	// come to rule out, at the budget, and out of pages with an in-window
	// entry.
	if stopped == 0 || full == 0 || narrow == 0 {
		t.Fatalf("stopped by the collector %d times, by the budget %d, by the window %d: want each", stopped, full, narrow)
	}
}

// TestRankedProbeBudget: the budget is one page per rankedShare, at least
// one and at most rankedCap, and a run too small to fill a budget of one is
// probed at its best page.
func TestRankedProbeBudget(t *testing.T) {
	entries, raw := testEntries(40, 5)
	s, _, _ := newStoreOf(t, "heap", rankedPageSize, testCfg, raw)
	r, err := s.Write("r", entries)
	if err != nil {
		t.Fatal(err)
	}
	q := testQueries(1, 8)[0]
	ctx := index.AcquireCtx(q, testCfg)
	defer ctx.Release()
	col := index.NewCollector(3)
	before := s.Disk.Stats()
	if err := s.RankedProbe(r, q, col, ctx.Scratch0()); err != nil {
		t.Fatal(err)
	}
	if st := s.Disk.Stats().Sub(before); st.Reads() != 1 || len(col.Results()) != 2 {
		t.Fatalf("a 20-page run: %d reads, %d answers; want one page of two entries", st.Reads(), len(col.Results()))
	}
	for _, c := range []struct{ pages, budget int }{{1, 1}, {255, 1}, {256, 2}, {1023, 7}, {1024, 8}, {1 << 20, 8}} {
		if got := rankedBudget(c.pages); got != c.budget {
			t.Errorf("%d pages: budget %d, want %d", c.pages, got, c.budget)
		}
	}
}
