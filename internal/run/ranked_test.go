package run

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/storage"
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

// insertLikeCTree inserts late into r as a CTree's insert path does
// (ctree.Tree.InsertEntry): each entry into the page whose key range holds
// it, a page that overflows split in two, its upper half appended to the
// file. The summary's page map leaves the identity, and its groups grow past
// groupPages before they are halved.
func insertLikeCTree(t *testing.T, s Store, r Run, late []record.Entry) Run {
	t.Helper()
	l, err := s.Layout()
	if err != nil {
		t.Fatal(err)
	}
	capacity := s.Disk.PageSize() / s.Codec().Size()
	buf := make([]byte, s.Disk.PageSize())
	encode := func(es []record.Entry) []byte {
		page := buf[:0]
		for _, e := range es {
			if page, err = s.Codec().Append(page, e); err != nil {
				t.Fatal(err)
			}
		}
		clear(buf[len(page):])
		return buf
	}
	m := r.Sum
	for _, e := range late {
		p := m.Find(e.Key)
		var pg record.PageView
		if _, err := s.Disk.ReadPage(r.File, m.Phys(p), buf); err != nil {
			t.Fatal(err)
		}
		if err := l.Page(&pg, buf, m.Entries(p)); err != nil {
			t.Fatal(err)
		}
		entries, err := pg.Entries()
		if err != nil {
			t.Fatal(err)
		}
		pos := sort.Search(len(entries), func(i int) bool { return e.Less(entries[i]) })
		entries = slices.Insert(entries, pos, e)
		lo := entries
		if len(entries) > capacity {
			lo = entries[:len(entries)/2]
		}
		if err := s.Disk.WritePage(r.File, m.Phys(p), encode(lo)); err != nil {
			t.Fatal(err)
		}
		var phys int64
		if len(lo) < len(entries) {
			if phys, err = s.Disk.AppendPage(r.File, encode(entries[len(lo):])); err != nil {
				t.Fatal(err)
			}
		}
		r.Count++
		m.Insert(p, pos, e)
		if len(lo) < len(entries) {
			m.Split(p, len(lo), phys)
		}
	}
	if err := s.Verify(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// summaryPages decodes r's pages in key order, each read at its page number
// in the file (Summary.Phys) and holding the entries the summary counts.
func summaryPages(t *testing.T, s Store, r Run) [][]record.Entry {
	t.Helper()
	l, err := s.Layout()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.Disk.PageSize())
	pages := make([][]record.Entry, r.Sum.Pages())
	for p := range pages {
		var pg record.PageView
		if _, err := s.Disk.ReadPage(r.File, r.Sum.Phys(p), buf); err != nil {
			t.Fatal(err)
		}
		if err := l.Page(&pg, buf, r.Sum.Entries(p)); err != nil {
			t.Fatal(err)
		}
		if pages[p], err = pg.Entries(); err != nil {
			t.Fatal(err)
		}
	}
	return pages
}

// TestRankedProbe holds RankedProbe to its plan (rankedPlan) on a run of
// 1 050 pages, and on the same run after a thousand inserts, made as a
// CTree makes them, have split its pages: it reads the plan's pages in the plan's order,
// stopping at the first whose bound the collector then rules out — never a
// page with no entry in the window, never more than the budget — and answers
// as probing those pages one by one does. The collector comes in empty
// (k = 5 or 1), or holding the query's exact nearest neighbour (k = 1),
// which rules out every page whose least bound is beyond it before the probe
// reads one. Under the pinned-probe hook the probe bounds its candidates
// from their bytes: it pins each once more, then reads the same pages. The
// probe counts the pages it reads as probed units of its caller's kind.
func TestRankedProbe(t *testing.T) {
	defer SetPinnedProbe(false)
	all, raw := testEntries(3100, 23)
	var base []record.Entry // the first 2 100 series in key order, the rest by ID: as they arrive
	late := make([]record.Entry, len(all))
	for _, e := range all {
		if e.ID < 2100 {
			base = append(base, e)
		}
		late[e.ID] = e
	}
	late = late[2100:]
	for _, fx := range []struct {
		name   string
		splits bool
		kind   obs.Kind // and its name in a search's record
		unit   string
	}{{"run", false, obs.PageUnit, "page"}, {"ctree-splits", true, obs.LeafUnit, "leaf"}} {
		t.Run(fx.name, func(t *testing.T) { rankedProbeCase(t, raw, base, late, fx.splits, fx.kind, fx.unit) })
	}
}

func rankedProbeCase(t *testing.T, raw normStore, base, late []record.Entry, splits bool, kind obs.Kind, unit string) {
	s, disk, _ := newStoreOf(t, "heap", rankedPageSize, testCfg, raw)
	r, err := s.Write("r", base)
	if err != nil {
		t.Fatal(err)
	}
	entries := base
	if r.Sum.Pages() != 1050 || r.Sum.Groups() <= rankedGroups {
		t.Fatalf("fixture: %d pages in %d groups", r.Sum.Pages(), r.Sum.Groups())
	}
	if splits {
		r = insertLikeCTree(t, s, r, late)
		entries = append(slices.Clone(base), late...)
		moved, widest := 0, 0
		for p := 0; p < r.Sum.Pages(); p++ {
			if r.Sum.Phys(p) != int64(p) {
				moved++
			}
		}
		for g := range r.Sum.grp {
			widest = max(widest, r.Sum.end(g)-r.Sum.grp[g].first)
		}
		if moved == 0 || widest <= groupPages || r.Sum.Groups() <= rankedGroups {
			t.Fatalf("fixture: %d of %d pages off the identity map, widest group %d pages, %d groups", moved, r.Sum.Pages(), widest, r.Sum.Groups())
		}
	}
	pages := summaryPages(t, s, r)
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
				var wantPages []int
				for _, c := range plan {
					if wantCol.SkipSq(c.bound) {
						break
					}
					want = append(want, r.Sum.Phys(c.page))
					wantPages = append(wantPages, c.page)
					if _, err := s.ProbePage(r, c.page, q, wantCol, sc); err != nil {
						t.Fatal(err)
					}
				}
				tr.take()
				for _, pinned := range []bool{false, true} {
					SetPinnedProbe(pinned)
					pins, probed := ProbePins(), probedUnits(&ctx.Tally, unit)
					col := fresh()
					if err := s.RankedProbe(r, kind, q, col, sc); err != nil {
						t.Fatal(err)
					}
					read, pins := tr.take(), ProbePins()-pins
					if probed = probedUnits(&ctx.Tally, unit) - probed; probed != int64(len(want)) {
						t.Fatalf("%s, pinned %v: %d units probed, want the %d pages read", name, pinned, probed, len(want))
					}
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
				for _, p := range wantPages {
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

// probedUnits returns the units of the named kind t counts as probed.
func probedUnits(t *obs.Tally, unit string) int64 {
	for _, k := range t.Kinds() {
		if k.Kind == unit {
			return k.Probed
		}
	}
	return 0
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
	if err := s.RankedProbe(r, obs.PageUnit, q, col, ctx.Scratch0()); err != nil {
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

// TestLeafProbe holds a CTree's approximate probe (LeafProbe) to its rule on
// a leaf level of 1 050 pages, as built and after a thousand CTree-like
// inserts have split it. A materialized level ranks its leaves: it reads the
// pages RankedProbe reads (rankedPlan, cut at the first page the collector
// then rules out), and, if they leave the collector short of k results, the
// covering leaf and its neighbours alternating outward, passing over the
// pages already read, until k in-window entries have been seen. A key-only
// level of the same entries only walks. Either way every page read counts
// as a probed "leaf" unit, and the answer holds k results, or every
// in-window entry when there are fewer.
func TestLeafProbe(t *testing.T) {
	all, raw := testEntries(3100, 23)
	materialized := testCfg
	materialized.Materialized = true
	for _, fx := range []struct {
		name     string
		cfg      index.Config
		pageSize int
		splits   bool
	}{
		{"materialized", materialized, 2 * materialized.Codec().Size(), false},
		{"materialized-splits", materialized, 2 * materialized.Codec().Size(), true},
		{"key-only", testCfg, rankedPageSize, false},
		{"key-only-splits", testCfg, rankedPageSize, true},
	} {
		t.Run(fx.name, func(t *testing.T) {
			var base []record.Entry // the first 2 100 series in key order, the rest by ID
			late := make([]record.Entry, len(all))
			for _, e := range all {
				if fx.cfg.Materialized {
					e.Payload = raw[e.ID]
				}
				if e.ID < 2100 {
					base = append(base, e)
				}
				late[e.ID] = e
			}
			late = late[2100:]
			s, disk, _ := newStoreOf(t, "heap", fx.pageSize, fx.cfg, raw)
			r, err := s.Write("r", base)
			if err != nil {
				t.Fatal(err)
			}
			if r.Sum.Pages() != 1050 || s.RanksLeaves(r) != fx.cfg.Materialized {
				t.Fatalf("fixture: %d pages, ranks its leaves %v", r.Sum.Pages(), s.RanksLeaves(r))
			}
			if fx.splits {
				r = insertLikeCTree(t, s, r, late)
			}
			leafProbeCase(t, s, disk, r, summaryPages(t, s, r), fx.cfg)
		})
	}
}

func leafProbeCase(t *testing.T, s Store, disk *storage.Disk, r Run, pages [][]record.Entry, cfg index.Config) {
	tr := &orderTracer{}
	disk.SetTracer(tr)
	var rankedOnly, toppedUp, walked int
	for i, base := range testQueries(8, 37) {
		for _, q := range []index.Query{base, base.WithWindow(400, 1100), base.WithWindow(2000, 2003), base.WithWindow(5000, 6000)} {
			inWindow := 0
			for _, pg := range pages {
				for _, e := range pg {
					if q.InWindow(e.TS) {
						inWindow++
					}
				}
			}
			for _, k := range []int{1, 5, 40} {
				name := fmt.Sprintf("query %d window %v [%d, %d] k %d", i, q.Windowed, q.MinTS, q.MaxTS, k)
				ctx := index.AcquireCtx(q, cfg)
				sc := ctx.Scratch0()
				want, wantCol := []int64{}, index.NewCollector(k)
				seen := 0
				visit := func(p int) {
					want = append(want, r.Sum.Phys(p))
					n, err := s.ProbePage(r, p, q, wantCol, sc)
					if err != nil {
						t.Fatal(err)
					}
					seen += n
				}
				var ranked []int
				if cfg.Materialized {
					for _, c := range rankedPlan(r, pages, q, &ctx.P) {
						if wantCol.SkipSq(c.bound) {
							break
						}
						ranked = append(ranked, c.page)
						visit(c.page)
					}
				}
				switch {
				case wantCol.Full():
					rankedOnly++
				case len(ranked) > 0:
					toppedUp++
				default:
					walked++
				}
				if !wantCol.Full() {
					step := func(p int) {
						if !slices.Contains(ranked, p) {
							visit(p)
						}
					}
					center, n := r.Sum.Find(q.Key), r.Sum.Pages()
					step(center)
					for lo, hi := center, center; seen < k && (lo > 0 || hi < n-1); {
						if lo > 0 {
							lo--
							step(lo)
						}
						if seen < k && hi < n-1 {
							hi++
							step(hi)
						}
					}
				}
				tr.take()
				probed := probedUnits(&ctx.Tally, "leaf")
				col := index.NewCollector(k)
				if err := s.LeafProbe(r, q, col, sc); err != nil {
					t.Fatal(err)
				}
				read := tr.take()
				if probed = probedUnits(&ctx.Tally, "leaf") - probed; probed != int64(len(read)) {
					t.Fatalf("%s: %d leaf units probed, %d pages read", name, probed, len(read))
				}
				if !slices.Equal(read, want) {
					t.Fatalf("%s: read pages %v, want %v", name, read, want)
				}
				got := col.Results()
				if !reflect.DeepEqual(got, wantCol.Results()) {
					t.Fatalf("%s: answers %v, want %v", name, got, wantCol.Results())
				}
				if len(got) != min(k, inWindow) {
					t.Fatalf("%s: %d answers of %d in-window entries", name, len(got), inWindow)
				}
				ctx.Release()
			}
		}
	}
	// A ranked level's rows end at the ranked pages and go on to the walk;
	// a key-only level's all walk.
	if cfg.Materialized && (rankedOnly == 0 || toppedUp == 0) || !cfg.Materialized && walked == 0 {
		t.Fatalf("ranked pages enough %d times, topped up %d, walked alone %d", rankedOnly, toppedUp, walked)
	}
}
