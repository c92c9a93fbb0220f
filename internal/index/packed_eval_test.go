package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/sortable"
)

// buildEvalFixture summarizes n random series into key-sorted entries plus
// both page encodings of the same entry sequence: the fixed-size layout and
// a packed page.
func buildEvalFixture(t *testing.T, rng *rand.Rand, cfg Config, n, pageSize int) (*series.Dataset, []record.Entry, []byte, []byte) {
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

	var fixed []byte
	for _, e := range entries {
		var err error
		if fixed, err = codec.Append(fixed, e); err != nil {
			t.Fatal(err)
		}
	}
	b, err := record.NewPageBuilder(codec, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		ok, err := b.TryAdd(e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("fixture of %d entries does not fit one %d-byte packed page", n, pageSize)
		}
	}
	packed := make([]byte, pageSize)
	if _, err := b.Encode(packed); err != nil {
		t.Fatal(err)
	}
	return ds, entries, fixed, packed
}

// evalLayouts names the layouts of one entry sequence the page evaluator
// reads through its cursor: three encodings, and the two on-page ones again
// with the entries' symbols resident beside the page (UseSymbols), where the
// bounds come from the symbols and the page is read only for survivors.
func evalLayouts(entries []record.Entry, fixed, packed []byte, cfg Config) map[string]Page {
	codec := cfg.Codec()
	var column []uint8
	for _, e := range entries {
		syms := sortable.Symbols(e.Key, cfg.Segments, cfg.Bits)
		column = append(column, syms[:cfg.Segments]...)
	}
	fixedSyms, packedSyms := FixedPage(fixed, len(entries), codec), PackedPage(packed, codec)
	fixedSyms.UseSymbols(column, cfg.Segments)
	packedSyms.UseSymbols(column, cfg.Segments)
	return map[string]Page{
		"fixed":          FixedPage(fixed, len(entries), codec),
		"packed":         PackedPage(packed, codec),
		"entries":        EntryPage(entries),
		"fixed+symbols":  fixedSyms,
		"packed+symbols": packedSyms,
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
// identical window-survivor counts) whichever layout it reads the entries
// from, materialized or not, windowed or not.
func TestEvalPageLayoutsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, materialized := range []bool{false, true} {
		cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4, Materialized: materialized}
		ds, entries, fixed, packed := buildEvalFixture(t, rng, cfg, 48, 32768)
		layouts := evalLayouts(entries, fixed, packed, cfg)

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
				n, err := EvalPage(q, pg, ds, col, ctx.Scratch0())
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

// TestEvalPageRangeLayoutsMatch mirrors the k-NN equivalence for the
// epsilon-range evaluator.
func TestEvalPageRangeLayoutsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, materialized := range []bool{false, true} {
		cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4, Materialized: materialized}
		ds, entries, fixed, packed := buildEvalFixture(t, rng, cfg, 48, 32768)
		layouts := evalLayouts(entries, fixed, packed, cfg)

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
				if err := EvalPageRange(q, pg, ds, col, ctx.Scratch0()); err != nil {
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
// property on every layout and both loops: the cursor is a stack value,
// packed decompression is fused into the scan, and the candidate buffer is
// drawn from scratch.
func TestEvalPageDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rng := rand.New(rand.NewSource(23))
	cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4, Materialized: true}
	ds, entries, fixed, packed := buildEvalFixture(t, rng, cfg, 24, 16384)
	qs := make(series.Series, cfg.SeriesLen)
	for j := range qs {
		qs[j] = rng.NormFloat64()
	}
	q := NewQuery(qs, cfg)
	ctx := AcquireCtx(q, cfg)
	defer ctx.Release()
	sc := ctx.Scratch0()
	for name, pg := range evalLayouts(entries, fixed, packed, cfg) {
		col := NewCollector(3)
		// Warm the scratch candidate buffer to its high-water mark.
		if _, err := EvalPage(q, pg, ds, col, sc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := EvalPage(q, pg, ds, col, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s k-NN probe allocated %v times per run, want 0", name, allocs)
		}
		// Every entry lies within eps and is verified on each run; after the
		// warming pass they are all duplicates, so the collector stops growing.
		rcol := NewRangeCollector(50)
		if err := EvalPageRange(q, pg, ds, rcol, sc); err != nil {
			t.Fatal(err)
		}
		if len(rcol.Results()) != len(entries) {
			t.Fatalf("%s: eps admits %d of %d entries", name, len(rcol.Results()), len(entries))
		}
		allocs = testing.AllocsPerRun(500, func() {
			if err := EvalPageRange(q, pg, ds, rcol, sc); err != nil {
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
// evaluators return without opening it, so bytes that do not even decode
// go unnoticed and the trace counts the page as released undecoded — while
// a page with a survivor is opened and must agree with its symbols.
func TestEvalPageSymbolsSpareThePage(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4, Materialized: true}
	ds, entries, fixed, packed := buildEvalFixture(t, rng, cfg, 24, 16384)
	layouts := evalLayouts(entries, fixed, packed, cfg)
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
	garbage := make([]byte, len(packed))
	for _, name := range []string{"fixed+symbols", "packed+symbols"} {
		pg := layouts[name]
		pg.data = garbage
		n, err := EvalPage(q, pg, ds, full(), sc)
		if err != nil || n != len(entries) {
			t.Fatalf("%s k-NN over an undecodable page: n=%d err=%v, want %d entries pruned unread", name, n, err, len(entries))
		}
		if err := EvalPageRange(q, pg, ds, NewRangeCollector(math.Sqrt(least)/2), sc); err != nil {
			t.Fatalf("%s range over an undecodable page: %v", name, err)
		}
	}
	snap := q.Trace.Snapshot()
	if c := snap.Candidates; snap.UndecodedPages != 4 || c.Seen != int64(4*len(entries)) || c.Pruned != c.Seen || c.Verified != 0 {
		t.Fatalf("trace after four spared pages: undecoded=%d candidates=%+v", snap.UndecodedPages, c)
	}
	// The same bytes without resident symbols have to be read.
	pg := layouts["packed"]
	pg.data = garbage
	if _, err := EvalPage(q, pg, ds, full(), sc); err == nil {
		t.Fatal("undecodable packed page evaluated without its symbols: no error")
	}
	// A survivor opens the page, whose header must agree with the symbols.
	short := layouts["packed+symbols"]
	short.UseSymbols(short.syms[:len(short.syms)-cfg.Segments], cfg.Segments)
	if _, err := EvalPage(q, short, ds, NewCollector(1), sc); err == nil {
		t.Fatal("packed page with one entry more than its symbols: no error")
	}
	if err := EvalPageRange(q, short, ds, NewRangeCollector(1e6), sc); err == nil {
		t.Fatal("packed page with one entry more than its symbols: no error from the range evaluator")
	}
}
