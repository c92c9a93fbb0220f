package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/sax"
	"repro/internal/series"
	"repro/internal/sortable"
)

func randPAA(rng *rand.Rand, w int) []float64 {
	paa := make([]float64, w)
	for i := range paa {
		paa[i] = rng.NormFloat64()
	}
	return paa
}

func randWord(rng *rand.Rand, w, bits int) sax.Word {
	syms := make([]uint8, w)
	for i := range syms {
		syms[i] = uint8(rng.Intn(1 << bits))
	}
	return sax.Word{Symbols: syms, Bits: bits}
}

// TestPrunerMatchesMinDistPAA is the core equivalence property of the
// squared-space pipeline: the table-based squared lower bound equals
// sax.MinDistPAA squared, across random queries, words, segment counts, and
// cardinalities.
func TestPrunerMatchesMinDistPAA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var p Pruner
	for trial := 0; trial < 2000; trial++ {
		w := 1 + rng.Intn(sortable.MaxSegments)
		bits := 1 + rng.Intn(sax.MaxBits)
		for w*bits > 128 {
			bits = 1 + rng.Intn(sax.MaxBits)
		}
		n := w * (1 + rng.Intn(16))
		cfg := Config{SeriesLen: n, Segments: w, Bits: bits}
		paa := randPAA(rng, w)
		p.Fill(paa, cfg)
		word := randWord(rng, w, bits)
		key := sortable.Interleave(word)
		got := p.MinDistSqKey(key)
		want := sax.MinDistPAA(paa, word, n)
		want *= want
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (w=%d bits=%d n=%d): MinDistSqKey=%v, MinDistPAA^2=%v", trial, w, bits, n, got, want)
		}
	}
}

// TestPrunerMixedMatchesRegions checks the per-segment-cardinality bound
// (the ADS+ node shape) against the region-based computation it replaced.
func TestPrunerMixedMatchesRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var p Pruner
	for trial := 0; trial < 2000; trial++ {
		w := 1 + rng.Intn(sortable.MaxSegments)
		maxBits := 1 + rng.Intn(sax.MaxBits)
		n := w * (1 + rng.Intn(16))
		cfg := Config{SeriesLen: n, Segments: w, Bits: maxBits}
		paa := randPAA(rng, w)
		p.Fill(paa, cfg)
		p.FillAll()
		syms := make([]uint8, w)
		bits := make([]uint8, w)
		for i := range syms {
			bits[i] = uint8(1 + rng.Intn(maxBits))
			syms[i] = uint8(rng.Intn(1 << bits[i]))
		}
		got := p.MinDistSqMixed(syms, bits)
		// Reference: the region-based per-segment accumulation.
		acc := 0.0
		for i, v := range paa {
			lo, hi := sax.Region(syms[i], int(bits[i]))
			var d float64
			switch {
			case v < lo:
				d = lo - v
			case v > hi:
				d = v - hi
			}
			acc += d * d
		}
		want := float64(n) / float64(w) * acc
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: MinDistSqMixed=%v, want %v", trial, got, want)
		}
	}
}

// TestPrunerLowerBoundsTrueDistance re-verifies, end to end through the
// tables, the MINDIST contract: the squared bound never exceeds the squared
// true distance between the query and any series whose summarization is the
// probed key.
func TestPrunerLowerBoundsTrueDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := Config{SeriesLen: 64, Segments: 8, Bits: 6}
	var p Pruner
	for trial := 0; trial < 500; trial++ {
		q := make(series.Series, cfg.SeriesLen)
		s := make(series.Series, cfg.SeriesLen)
		for i := range q {
			q[i] = rng.NormFloat64()
			s[i] = rng.NormFloat64()
		}
		query := NewQuery(q, cfg)
		p.Fill(query.PAA, cfg)
		key, z := cfg.Summarize(s)
		lbSq := p.MinDistSqKey(key)
		dSq := query.Norm.SqDist(z)
		if lbSq > dSq*(1+1e-12)+1e-12 {
			t.Fatalf("trial %d: squared lower bound %v exceeds squared distance %v", trial, lbSq, dSq)
		}
	}
}

// TestEvalPageEncodedMatchesEntries feeds the same candidate set through
// the page evaluator as an encoded page and as decoded entries and demands
// identical collector contents, materialized and not.
func TestEvalPageEncodedMatchesEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, materialized := range []bool{false, true} {
		cfg := Config{SeriesLen: 32, Segments: 8, Bits: 4, Materialized: materialized}
		codec := cfg.Codec()
		ds := series.NewDataset(cfg.SeriesLen)
		var entries []record.Entry
		var page []byte
		for i := 0; i < 40; i++ {
			s := make(series.Series, cfg.SeriesLen)
			for j := range s {
				s[j] = rng.NormFloat64()
			}
			key, z := cfg.Summarize(s)
			if _, err := ds.Append(z); err != nil {
				t.Fatal(err)
			}
			e := record.Entry{Key: key, ID: int64(i), TS: int64(i)}
			if materialized {
				e.Payload = z
			}
			entries = append(entries, e)
			var err error
			page, err = codec.Append(page, e)
			if err != nil {
				t.Fatal(err)
			}
		}
		qs := make(series.Series, cfg.SeriesLen)
		for j := range qs {
			qs[j] = rng.NormFloat64()
		}
		q := NewQuery(qs, cfg)

		ctx1 := AcquireCtx(q, cfg)
		colA := NewCollector(5)
		if _, err := EvalPage(q, EntryPage(entries), ds, colA, ctx1.Scratch0()); err != nil {
			t.Fatal(err)
		}
		ctx1.Release()

		ctx2 := AcquireCtx(q, cfg)
		colB := NewCollector(5)
		if _, err := EvalPage(q, FixedPage(page, len(entries), codec), ds, colB, ctx2.Scratch0()); err != nil {
			t.Fatal(err)
		}
		ctx2.Release()

		ra, rb := colA.Results(), colB.Results()
		if len(ra) != len(rb) {
			t.Fatalf("materialized=%v: %d vs %d results", materialized, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("materialized=%v result %d: %+v vs %+v", materialized, i, ra[i], rb[i])
			}
		}
	}
}

// TestCollectorSquaredRoundTrip: distances added as true distances come
// back from Results unchanged — the sqrt(d*d) == d round-trip the squared
// internal representation relies on.
func TestCollectorSquaredRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewCollector(64)
	dists := make([]float64, 64)
	for i := range dists {
		dists[i] = rng.ExpFloat64() * 100
		c.Add(Result{ID: int64(i), Dist: dists[i]})
	}
	for _, r := range c.Results() {
		if r.Dist != dists[r.ID] {
			t.Fatalf("distance %v round-tripped to %v", dists[r.ID], r.Dist)
		}
	}
}

// TestPooledCloneMerge exercises the pooled fan-out clone path against the
// plain Clone/Merge path.
func TestPooledCloneMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		base := NewCollector(4)
		for i := 0; i < 4; i++ {
			base.Add(Result{ID: int64(i), Dist: 50 + rng.Float64()})
		}
		plain := base.Clone()
		pooled := base.PooledClone()
		for i := 0; i < 100; i++ {
			r := Result{ID: int64(rng.Intn(60)), TS: int64(i), Dist: rng.Float64() * 100}
			plain.Add(r)
			pooled.Add(r)
		}
		dstA := base.Clone()
		dstA.Merge(plain)
		dstB := base.Clone()
		dstB.MergeRelease(pooled)
		ra, rb := dstA.Results(), dstB.Results()
		if len(ra) != len(rb) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("trial %d result %d: %+v vs %+v", trial, i, ra[i], rb[i])
			}
		}
	}
}

// TestProbeDoesNotAllocate pins the tentpole claim: once a query's context
// is built, a candidate probe (bound lookup + collector test) performs zero
// heap allocations. Skipped under the race detector, whose instrumentation
// changes allocation behavior.
func TestProbeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	cfg := Config{SeriesLen: 64, Segments: 8, Bits: 6}
	rng := rand.New(rand.NewSource(13))
	qs := make(series.Series, cfg.SeriesLen)
	for i := range qs {
		qs[i] = rng.NormFloat64()
	}
	q := NewQuery(qs, cfg)
	ctx := AcquireCtx(q, cfg)
	defer ctx.Release()
	sc := ctx.Scratch0()
	col := NewCollector(1)
	col.Add(Result{ID: -1, Dist: 0.5})
	key := sortable.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
	allocs := testing.AllocsPerRun(1000, func() {
		lbSq := sc.P.MinDistSqKey(key)
		if col.SkipSq(lbSq) {
			return
		}
		col.AddSq(7, 0, lbSq)
	})
	if allocs != 0 {
		t.Fatalf("probe allocated %v times per run, want 0", allocs)
	}
}
