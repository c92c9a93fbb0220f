package index

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/sortable"
)

// buildEvalFixture summarizes n random series into key-sorted entries plus
// their page of fixed-size records, a whole page of pageSize bytes.
func buildEvalFixture(t *testing.T, rng *rand.Rand, cfg Config, n, pageSize int) (*series.Dataset, []record.Entry, []byte) {
	t.Helper()
	codec := cfg.Codec()
	ds := series.NewDataset(cfg.SeriesLen)
	entries := make([]record.Entry, 0, n)
	zs := make([]series.Series, 0, n)
	for i := 0; i < n; i++ {
		s := make(series.Series, cfg.SeriesLen)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		key, z := cfg.Summarize(s)
		e := record.Entry{Key: key, ID: int64(i), TS: int64(i % 7)}
		if cfg.Materialized {
			e.Payload = z
		}
		entries = append(entries, e)
		zs = append(zs, z)
	}
	// The raw store is ID-addressed; append in ID order before sorting.
	for _, z := range zs {
		if _, err := ds.Append(z); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].Less(entries[b]) })

	fixed := make([]byte, 0, pageSize)
	for _, e := range entries {
		var err error
		if fixed, err = codec.Append(fixed, e); err != nil {
			t.Fatal(err)
		}
	}
	return ds, entries, fixed[:pageSize]
}

// layoutOf returns the layout of cfg's entries on pages of pageSize bytes.
func layoutOf(t testing.TB, cfg Config, pageSize int) *record.Layout {
	t.Helper()
	l, err := record.NewLayout(cfg.Codec(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return &l
}

// evalLayouts names the sources of one entry sequence the page evaluator
// reads through its cursor: the stored page, the decoded entries, and the
// stored page again with the entries' symbols resident beside it
// (UseSymbols), where the bounds come from the symbols and the page is read
// only for survivors.
func evalLayouts(t testing.TB, entries []record.Entry, fixed []byte, cfg Config) map[string]Page {
	fl := layoutOf(t, cfg, len(fixed))
	var column []uint8
	for _, e := range entries {
		syms := sortable.Symbols(e.Key, cfg.Segments, cfg.Bits)
		column = append(column, syms[:cfg.Segments]...)
	}
	fixedSyms := StoredPage(fl, fixed, len(entries))
	fixedSyms.UseSymbols(column, cfg.Segments)
	return map[string]Page{
		"fixed":         StoredPage(fl, fixed, len(entries)),
		"entries":       EntryPage(entries),
		"fixed+symbols": fixedSyms,
	}
}

func sameResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d results", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s result %d: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

// TestEvalPageLayoutsMatch is the page-cursor equivalence property: the
// k-NN evaluator must produce byte-identical collector contents (and
// identical window-survivor counts) whichever source it reads the entries
// from, materialized or not, windowed or not.
func TestEvalPageLayoutsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, materialized := range []bool{false, true} {
		cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4, Materialized: materialized}
		ds, entries, fixed := buildEvalFixture(t, rng, cfg, 48, 32768)
		layouts := evalLayouts(t, entries, fixed, cfg)

		for trial := 0; trial < 20; trial++ {
			qs := make(series.Series, cfg.SeriesLen)
			for j := range qs {
				qs[j] = rng.NormFloat64()
			}
			q := NewQuery(qs, cfg)
			if trial%2 == 1 {
				q.Windowed, q.MinTS, q.MaxTS = true, 2, 5
			}
			eval := func(pg Page) (int, []Result) {
				ctx := AcquireCtx(q, cfg)
				defer ctx.Release()
				col := NewCollector(5)
				n, err := EvalPage(&q, &pg, ds, col, ctx.Scratch0())
				if err != nil {
					t.Fatal(err)
				}
				return n, col.Results()
			}
			wantN, want := eval(layouts["fixed"])
			for name, pg := range layouts {
				gotN, got := eval(pg)
				if gotN != wantN {
					t.Fatalf("materialized=%v trial %d %s: %d vs %d window survivors", materialized, trial, name, gotN, wantN)
				}
				sameResults(t, name, want, got)
			}
		}
	}
}

// TestEvalPageRangeLayoutsMatch mirrors the k-NN equivalence for EvalPage
// against a range collector.
func TestEvalPageRangeLayoutsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, materialized := range []bool{false, true} {
		cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4, Materialized: materialized}
		ds, entries, fixed := buildEvalFixture(t, rng, cfg, 48, 32768)
		layouts := evalLayouts(t, entries, fixed, cfg)

		qs := make(series.Series, cfg.SeriesLen)
		for j := range qs {
			qs[j] = rng.NormFloat64()
		}
		q := NewQuery(qs, cfg)
		for _, eps := range []float64{0.1, 5, 50} {
			eval := func(pg Page) []Result {
				ctx := AcquireCtx(q, cfg)
				defer ctx.Release()
				col := NewRangeCollector(eps)
				if _, err := EvalPage(&q, &pg, ds, col, ctx.Scratch0()); err != nil {
					t.Fatal(err)
				}
				return col.Results()
			}
			want := eval(layouts["fixed"])
			for name, pg := range layouts {
				sameResults(t, name, want, eval(pg))
			}
		}
	}
}

// TestEvalPageDoesNotAllocate pins the probe path's zero-allocation
// property on every source and both collectors: the cursor is a stack value,
// and the candidate buffer is drawn from scratch.
func TestEvalPageDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rng := rand.New(rand.NewSource(23))
	cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4, Materialized: true}
	ds, entries, fixed := buildEvalFixture(t, rng, cfg, 24, 16384)
	qs := make(series.Series, cfg.SeriesLen)
	for j := range qs {
		qs[j] = rng.NormFloat64()
	}
	q := NewQuery(qs, cfg)
	ctx := AcquireCtx(q, cfg)
	defer ctx.Release()
	sc := ctx.Scratch0()
	for name, pg := range evalLayouts(t, entries, fixed, cfg) {
		col := NewCollector(3)
		// Warm the scratch candidate buffer to its high-water mark.
		if _, err := EvalPage(&q, &pg, ds, col, sc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := EvalPage(&q, &pg, ds, col, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s k-NN probe allocated %v times per run, want 0", name, allocs)
		}
		// Every entry lies within eps and is verified on each run; after the
		// warming pass they are all duplicates, so the collector stops growing.
		rcol := NewRangeCollector(50)
		if _, err := EvalPage(&q, &pg, ds, rcol, sc); err != nil {
			t.Fatal(err)
		}
		if len(rcol.Results()) != len(entries) {
			t.Fatalf("%s: eps admits %d of %d entries", name, len(rcol.Results()), len(entries))
		}
		allocs = testing.AllocsPerRun(500, func() {
			if _, err := EvalPage(&q, &pg, ds, rcol, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s range probe allocated %v times per run, want 0", name, allocs)
		}
	}
}

// TestEvalPageSymbolsSpareThePage: with the entries' symbols resident, a
// page none of whose entries survives its bound is never read — the
// evaluator returns without opening it, under either collector, so a page too short to be one
// goes unnoticed and the trace counts the page as released undecoded —
// while a page with a survivor is opened and must have room for the
// entries its symbols count.
func TestEvalPageSymbolsSpareThePage(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4, Materialized: true}
	ds, entries, fixed := buildEvalFixture(t, rng, cfg, 24, 16384)
	layouts := evalLayouts(t, entries, fixed, cfg)
	qs := make(series.Series, cfg.SeriesLen)
	for j := range qs {
		qs[j] = 10 * rng.NormFloat64()
	}
	q := NewQuery(qs, cfg)
	q.Trace = obs.NewQueryTrace()
	ctx := AcquireCtx(q, cfg)
	defer ctx.Release()
	sc := ctx.Scratch0()
	least := math.Inf(1)
	for _, e := range entries {
		least = math.Min(least, sc.P.MinDistSqKey(e.Key))
	}
	if least == 0 {
		t.Fatal("fixture: an entry shares the query's cell, nothing bounds it away")
	}
	full := func() *Collector { // holds one result nearer than any entry can be
		col := NewCollector(1)
		col.AddSq(-1, 0, least/2)
		return col
	}
	pg := layouts["fixed+symbols"]
	pg.data = fixed[:1] // no page at all: opening it would fail
	n, err := EvalPage(&q, &pg, ds, full(), sc)
	if err != nil || n != len(entries) {
		t.Fatalf("k-NN over an unopenable page: n=%d err=%v, want %d entries pruned unread", n, err, len(entries))
	}
	if _, err := EvalPage(&q, &pg, ds, NewRangeCollector(math.Sqrt(least)/2), sc); err != nil {
		t.Fatalf("range over an unopenable page: %v", err)
	}
	snap := q.Trace.Snapshot(new(obs.Tally))
	if c := snap.Candidates; snap.UndecodedPages != 2 || c.Seen != int64(2*len(entries)) || c.Pruned != c.Seen || c.Verified != 0 {
		t.Fatalf("trace after two spared pages: undecoded=%d candidates=%+v", snap.UndecodedPages, c)
	}
	// The same bytes without resident symbols have to be read.
	pg = layouts["fixed"]
	pg.data = fixed[:1]
	if _, err := EvalPage(&q, &pg, ds, full(), sc); err == nil {
		t.Fatal("unopenable page evaluated without its symbols: no error")
	}
	// A survivor opens the page, which must have room for the entries its
	// symbols count.
	exact := len(entries) * cfg.Codec().Size() // a page that holds exactly the entries
	over := StoredPage(layoutOf(t, cfg, exact), fixed[:exact], len(entries)+1)
	column := layouts["fixed+symbols"].syms
	over.UseSymbols(append(slices.Clone(column), column[:cfg.Segments]...), cfg.Segments)
	for name, pg := range map[string]Page{
		"page with room for one entry less than its symbols": over,
	} {
		if _, err := EvalPage(&q, &pg, ds, NewCollector(1), sc); err == nil {
			t.Fatalf("%s: no error", name)
		}
		if _, err := EvalPage(&q, &pg, ds, NewRangeCollector(1e6), sc); err == nil {
			t.Fatalf("%s: no error under the range collector", name)
		}
	}
}

// fetchLog is a raw store that records the IDs it is asked for, in order.
type fetchLog struct {
	series.RawStore
	ids []int64
}

func (f *fetchLog) Get(id int) (series.Series, error) {
	f.ids = append(f.ids, int64(id))
	return f.RawStore.Get(id)
}

// TestEvalPageFetchOrder pins the order a non-materialized page's
// candidates are fetched in, on every source: ascending lower bound under a
// k-NN collector, whose bound tightens as they verify, and page order under
// a range collector, whose bound cannot move — the order the raw store
// (and a file backend's Stats) sees.
func TestEvalPageFetchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4}
	ds, entries, fixed := buildEvalFixture(t, rng, cfg, 48, 32768)
	qs := make(series.Series, cfg.SeriesLen)
	for j := range qs {
		qs[j] = rng.NormFloat64()
	}
	q := NewQuery(qs, cfg)
	ctx := AcquireCtx(q, cfg)
	defer ctx.Release()
	sc := ctx.Scratch0()
	lb := map[int64]float64{}
	var pageOrder []int64
	for _, e := range entries {
		lb[e.ID] = sc.P.MinDistSqKey(e.Key)
		pageOrder = append(pageOrder, e.ID)
	}
	for name, pg := range evalLayouts(t, entries, fixed, cfg) {
		raw := &fetchLog{RawStore: ds}
		rpg := pg
		if _, err := EvalPage(&q, &rpg, raw, NewRangeCollector(math.Inf(1)), sc); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(raw.ids, pageOrder) {
			t.Fatalf("%s: range fetched %v, page order %v", name, raw.ids, pageOrder)
		}
		raw.ids = nil
		if _, err := EvalPage(&q, &pg, raw, NewCollector(len(entries)), sc); err != nil {
			t.Fatal(err)
		}
		if len(raw.ids) != len(entries) {
			t.Fatalf("%s: k-NN fetched %d of %d entries", name, len(raw.ids), len(entries))
		}
		for i := 1; i < len(raw.ids); i++ {
			if lb[raw.ids[i]] < lb[raw.ids[i-1]] {
				t.Fatalf("%s: k-NN fetch %d has bound %v below its predecessor's %v", name, i, lb[raw.ids[i]], lb[raw.ids[i-1]])
			}
		}
		if slices.Equal(raw.ids, pageOrder) {
			t.Fatalf("%s: fixture's bounds ascend in page order: the two orders went undistinguished", name)
		}
	}
}
