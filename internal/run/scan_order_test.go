package run

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/index"
	"repro/internal/storage"
)

// orderTracer records the pages a disk reads, in the order it reads them.
type orderTracer struct {
	mu    sync.Mutex
	pages []int64
}

func (o *orderTracer) Access(file string, page int64, write bool) {
	if !write {
		o.mu.Lock()
		o.pages = append(o.pages, page)
		o.mu.Unlock()
	}
}

// take returns the pages read since the last take.
func (o *orderTracer) take() []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	p := o.pages
	o.pages = nil
	return p
}

// rotated returns pages [start, hi) then [lo, start): what a scan of
// [lo, hi) from start reads when it reads every page.
func rotated(lo, start, hi int) []int64 {
	var pages []int64
	for p := start; p < hi; p++ {
		pages = append(pages, int64(p))
	}
	for p := lo; p < start; p++ {
		pages = append(pages, int64(p))
	}
	return pages
}

// entriesBefore returns the number of entries on r's pages before page p.
func entriesBefore(r Run, p int) int {
	n := 0
	for i := 0; i < p; i++ {
		n += r.Sum.Entries(i)
	}
	return n
}

// scanFrom scans pages [lo, hi) of r from start into col, as a search's
// worker does, under a fresh context with planner pl.
func scanFrom(s *Store, r Run, lo, start, hi int, q index.Query, pl *index.Planner, col *index.Collector) error {
	ctx := index.AcquireCtx(q, s.Config)
	defer ctx.Release()
	ctx.Planner = pl
	sc := ctx.Scratch0()
	return s.Scan(r, lo, start, hi, "page", q, sc, col, func(q *index.Query, pg *index.Page) error {
		_, err := index.EvalPage(q, pg, s.Raw, col, sc)
		return err
	})
}

// TestScanStartsAtItsStartAndWrapsOnce: a k-NN scan from the query's
// covering page pins that page first, ascends to the end of its range, then
// wraps once to the range's first page and ascends to the covering one. With
// the planner disabled every page is read, so the order is exactly the
// rotation; planned, the pages read keep it (the covering page first: an
// empty collector rules out nothing), with one descent at most. A range
// scan (ScanRun, start = lo) reads in file order. Every answer is brute
// force's, over the whole run and over a range inside it.
func TestScanStartsAtItsStartAndWrapsOnce(t *testing.T) {
	entries, raw := testEntries(1200, 7)
	s, disk, _ := newStore(t, "heap", raw)
	r, err := s.Write("r", entries)
	if err != nil {
		t.Fatal(err)
	}
	pages := r.Sum.Pages()
	tr := &orderTracer{}
	disk.SetTracer(tr)
	for i, q := range testQueries(8, 31) {
		covering := r.Sum.Find(q.Key)
		for _, rg := range []struct{ lo, hi int }{{0, pages}, {pages / 4, 3 * pages / 4}} {
			start := min(max(covering, rg.lo), rg.hi-1)
			inRange := entries[entriesBefore(r, rg.lo):entriesBefore(r, rg.hi)]
			for _, planned := range []bool{false, true} {
				label := fmt.Sprintf("query %d pages [%d, %d) from %d planned=%v", i, rg.lo, rg.hi, start, planned)
				col := index.NewCollector(5)
				tr.take()
				if err := scanFrom(&s, r, rg.lo, start, rg.hi, q, &index.Planner{Disabled: !planned}, col); err != nil {
					t.Fatal(err)
				}
				got := tr.take()
				sameResults(t, label, col.Results(), bruteKNN(q, inRange, raw, 5))
				if !planned {
					if want := rotated(rg.lo, start, rg.hi); !slices.Equal(got, want) {
						t.Fatalf("%s: read %v, want %v", label, got, want)
					}
					continue
				}
				if len(got) == 0 || got[0] != int64(start) {
					t.Fatalf("%s: read %v, want page %d first", label, got, start)
				}
				wrapped := false
				for j := 1; j < len(got); j++ {
					if got[j] <= got[j-1] {
						if wrapped || got[j] < int64(rg.lo) {
							t.Fatalf("%s: read %v, not one ascent from the start and one from the range's first page", label, got)
						}
						wrapped = true
					}
					if wrapped && got[j] >= int64(start) {
						t.Fatalf("%s: read %v: page %d again after the wrap", label, got, got[j])
					}
				}
			}
		}
		eps := bruteKNN(q, entries, raw, 3)[2].Dist
		col := index.NewRangeCollector(eps)
		tr.take()
		ctx := index.AcquireCtx(q, testCfg)
		ctx.Planner = &index.Planner{Disabled: true}
		err := s.ScanRun(r, q, col, ctx.Scratch0())
		ctx.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tr.take(), rotated(0, 0, pages); !slices.Equal(got, want) {
			t.Fatalf("query %d: the range scan read %v, want %v", i, got, want)
		}
		if len(col.Results()) < 3 {
			t.Fatalf("query %d: the range scan within the third neighbour's distance found %d", i, len(col.Results()))
		}
	}
}

// TestRotatedScanMatchesReference: from any start, the resident scan and the
// reference path (SetPageKeyBounds) give the same answers, read the same
// pages in the same order and cost the same Stats, with the planner enabled
// and disabled.
func TestRotatedScanMatchesReference(t *testing.T) {
	defer SetPageKeyBounds(false)
	entries, raw := testEntries(1200, 7)
	s, disk, stats := newStore(t, "heap", raw)
	r, err := s.Write("r", entries)
	if err != nil {
		t.Fatal(err)
	}
	pages := r.Sum.Pages()
	tr := &orderTracer{}
	disk.SetTracer(tr)
	type outcome struct {
		res   []index.Result
		read  []int64
		stats storage.Stats
	}
	for i, q := range testQueries(6, 57) {
		for _, start := range []int{0, r.Sum.Find(q.Key), pages - 1} {
			for _, planned := range []bool{false, true} {
				run := func(reference bool) outcome {
					SetPageKeyBounds(reference)
					stats.ResetStats()
					tr.take()
					col := index.NewCollector(5)
					if err := scanFrom(&s, r, 0, start, pages, q, &index.Planner{Disabled: !planned}, col); err != nil {
						t.Fatal(err)
					}
					return outcome{col.Results(), tr.take(), stats.Stats()}
				}
				want, got := run(true), run(false)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("query %d from %d planned=%v: the paths diverged:\nreference: %+v\nresident:  %+v", i, start, planned, want, got)
				}
				sameResults(t, fmt.Sprintf("query %d from %d", i, start), got.res, bruteKNN(q, entries, raw, 5))
			}
		}
	}
}

// TestRotatedScanCursorKeepsByTheWholeRange: a scan from mid-range opens one
// cursor over the whole range, so a buffer pool keeps what it reads exactly
// when the whole range fits its cache, as a scan in file order does: a pool
// that holds the run serves a second scan from its frames, and one a page
// short of it — though either leg alone would fit — keeps nothing, so the
// second scan misses on every page again. (A cursor per leg would keep
// both legs there, and evict.)
func TestRotatedScanCursorKeepsByTheWholeRange(t *testing.T) {
	entries, raw := testEntries(1200, 7)
	disk := storage.NewDisk(testPageSize)
	w := NewStore(disk, nil, testCfg, raw)
	r, err := w.Write("r", entries)
	if err != nil {
		t.Fatal(err)
	}
	pages := r.Sum.Pages()
	q := testQueries(1, 5)[0]
	for _, row := range []struct {
		frames     int
		hits, miss int64 // the second scan's
	}{
		{pages, int64(pages), 0},
		{pages - 1, 0, int64(pages)},
	} {
		pool := bufpool.New(disk, int64(row.frames*testPageSize))
		s := NewStore(disk, pool, testCfg, raw)
		for pass := 0; pass < 2; pass++ {
			pool.ResetStats()
			col := index.NewCollector(5)
			if err := scanFrom(&s, r, 0, pages/2, pages, q, &index.Planner{Disabled: true}, col); err != nil {
				t.Fatal(err)
			}
			sameResults(t, "pool scan", col.Results(), bruteKNN(q, entries, raw, 5))
		}
		if st := pool.Stats(); st.CacheHits != row.hits || st.CacheMisses != row.miss {
			t.Errorf("a pool of %d frames over %d pages: the second scan hit %d and missed %d, want %d and %d", row.frames, pages, st.CacheHits, st.CacheMisses, row.hits, row.miss)
		}
	}
}
