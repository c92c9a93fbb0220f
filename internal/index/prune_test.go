package index

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/sax"
	"repro/internal/series"
	"repro/internal/simd"
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

// minDistSqKeySerial is MinDistSqKey as it stood before the key transpose
// moved into package sortable: the key decoded one bit per step, the table
// entries summed in the kernels' blocked order (four lanes over quads of
// segments, lanes combined (a0+a2)+(a1+a3), the rest added in sequence).
func minDistSqKeySerial(p *Pruner, k sortable.Key) float64 {
	var idx [sortable.MaxSegments]int
	for s := 0; s < p.segments; s++ {
		idx[s] = s
	}
	pos := 0
	for r := 0; r < p.bits; r++ {
		for s := 0; s < p.segments; s++ {
			word, at := k.Hi, uint(63-pos)
			if pos >= 64 {
				word, at = k.Lo, uint(127-pos)
			}
			idx[s] = idx[s]<<1 | int(word>>at&1)
			pos++
		}
	}
	tab := p.tab[p.bits]
	var acc [4]float64
	nq := p.segments / 4
	for q := 0; q < nq; q++ {
		for j := range acc {
			acc[j] += tab[idx[4*q+j]]
		}
	}
	tot := (acc[0] + acc[2]) + (acc[1] + acc[3])
	for s := 4 * nq; s < p.segments; s++ {
		tot += tab[idx[s]]
	}
	return tot
}

// TestMinDistSqKeyBitIdentical: on every kernel set, for every shape, the
// bound is the same float64, bit for bit, as the bit-serial decode summed
// in the blocked order — so no prune, skip or page read can differ — and so
// is the bound taken from the key's symbols (MinDistSqSyms), which is what a
// scan over resident symbols computes in place of MinDistSqKey.
func TestMinDistSqKeyBitIdentical(t *testing.T) {
	defer simd.Select("auto")
	for _, kernels := range simd.Available() {
		if err := simd.Select(kernels); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		var p Pruner
		for w := 1; w <= sortable.MaxSegments; w++ {
			for bits := 1; bits <= sax.MaxBits; bits++ {
				p.Fill(randPAA(rng, w), Config{SeriesLen: w * (1 + rng.Intn(16)), Segments: w, Bits: bits})
				for trial := 0; trial < 50; trial++ {
					k := sortable.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
					got, want := p.MinDistSqKey(k), minDistSqKeySerial(&p, k)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %dx%d key %v: MinDistSqKey %x, bit-serial %x", kernels, w, bits, k, got, want)
					}
					syms := sortable.Symbols(k, w, bits)
					if got := p.MinDistSqSyms(syms[:w]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %dx%d key %v: MinDistSqSyms %x, bit-serial %x", kernels, w, bits, k, got, want)
					}
				}
			}
		}
	}
}

// envelopeSqPlain is the envelope bound stated plainly: each segment's query
// symbol clamped into the envelope by comparison, every term summed.
func envelopeSqPlain(p *Pruner, minSym, maxSym []uint8) float64 {
	acc := 0.0
	for s := 0; s < p.segments; s++ {
		q := p.qsyms[s]
		if q < minSym[s] {
			q = minSym[s]
		} else if q > maxSym[s] {
			q = maxSym[s]
		}
		acc += p.tab[p.bits][s<<uint(p.bits)|int(q)]
	}
	return acc
}

// TestEnvelopeDecisionIdentity: the early-exiting envelope sum decides every
// skip the way the full sum does. For random envelopes (narrow ones skip,
// wide ones do not) and collectors in every state the zone-map scans meet —
// a k-NN collector still filling, full ones with bounds from far below to
// far above the envelope bounds, range collectors — SkipSq of
// EnvelopeSqUpTo at the collector's limit equals SkipSq of EnvelopeSq; the
// +Inf limit returns EnvelopeSq itself, and a foreign shape returns 0.
func TestEnvelopeDecisionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var p Pruner
	skips := 0
	for trial := 0; trial < 4000; trial++ {
		w := 1 + rng.Intn(sortable.MaxSegments)
		bits := 1 + rng.Intn(sax.MaxBits)
		p.Fill(randPAA(rng, w), Config{SeriesLen: 4 * w, Segments: w, Bits: bits})
		mn, mx := make([]uint8, w), make([]uint8, w)
		for s := range mn {
			a, b := rng.Intn(1<<bits), rng.Intn(1<<bits)
			if trial%2 == 0 {
				b = a + rng.Intn(3) // a narrow envelope, a leaf's
			}
			mn[s], mx[s] = uint8(min(a, b)), uint8(min(max(a, b), 1<<bits-1))
		}
		full := p.EnvelopeSq(mn, mx)
		if want := envelopeSqPlain(&p, mn, mx); math.Float64bits(full) != math.Float64bits(want) {
			t.Fatalf("trial %d: EnvelopeSq %v, plain clamp and sum %v", trial, full, want)
		}
		// An inverted envelope, which only corrupt metadata could hold,
		// clamps the way the comparison chain does.
		if got, want := p.EnvelopeSq(mx, mn), envelopeSqPlain(&p, mx, mn); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: inverted envelope: EnvelopeSq %v, plain %v", trial, got, want)
		}
		if got := p.EnvelopeSqUpTo(mn, mx, math.Inf(1)); math.Float64bits(got) != math.Float64bits(full) {
			t.Fatalf("trial %d: limit +Inf gives %v, EnvelopeSq %v", trial, got, full)
		}
		if got := p.EnvelopeSqUpTo(mn[:w-1], mx[:w-1], 0); got != 0 {
			t.Fatalf("trial %d: foreign shape gives %v, want 0", trial, got)
		}
		// Collector bounds around, at, and an ulp either side of the full
		// bound, where a partial sum and the full sum are closest to
		// disagreeing.
		bounds := []float64{0, full / 3, math.Nextafter(full, 0), full, math.Nextafter(full, math.Inf(1)), full * 2, rng.ExpFloat64()}
		for _, b := range bounds {
			col := NewCollector(2)
			col.AddSq(1, 0, b/2)
			if early := p.EnvelopeSqUpTo(mn, mx, col.WorstSq()); col.SkipSq(early) || early != full {
				t.Fatalf("trial %d: collector not yet full: early %v, full %v", trial, early, full)
			}
			col.AddSq(2, 0, b)
			early := p.EnvelopeSqUpTo(mn, mx, col.WorstSq())
			if col.SkipSq(early) != col.SkipSq(full) || early > full {
				t.Fatalf("trial %d bound %v: k-NN skip on early sum %v = %v, on full sum %v = %v",
					trial, b, early, col.SkipSq(early), full, col.SkipSq(full))
			}
			if col.SkipSq(full) {
				skips++
			}
			rc := NewRangeCollector(math.Sqrt(b))
			early = p.EnvelopeSqUpTo(mn, mx, rc.SkipBeyondSq())
			if rc.SkipSq(early) != rc.SkipSq(full) || early > full {
				t.Fatalf("trial %d eps² %v: range skip on early sum %v = %v, on full sum %v = %v",
					trial, b, early, rc.SkipSq(early), full, rc.SkipSq(full))
			}
		}
	}
	if skips == 0 {
		t.Fatal("no envelope was ever skippable: the test exercised one side only")
	}
}

// TestRangeSkipBeyondSqImpliesSkip pins the property EnvelopeSqUpTo needs of
// a range collector's limit: everything above it is pruned, down to the
// first double above it, for eps from denormal to huge.
func TestRangeSkipBeyondSqImpliesSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20000; trial++ {
		eps := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		switch trial {
		case 0:
			eps = 0
		case 1:
			eps = math.SmallestNonzeroFloat64
		case 2:
			eps = math.Inf(1)
		}
		rc := NewRangeCollector(eps)
		limit := rc.SkipBeyondSq()
		if above := math.Nextafter(limit, math.Inf(1)); above > limit && !rc.SkipSq(above) {
			t.Fatalf("eps %v: %v is above SkipBeyondSq %v but not skipped", eps, above, limit)
		}
		if limit < rc.BoundSq() {
			t.Fatalf("eps %v: SkipBeyondSq %v below BoundSq %v", eps, limit, rc.BoundSq())
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

// TestEnvelopeHelpers holds WidenEnvelope and SetEnvelope to a plain
// compare-and-assign over random symbols, extremes included.
func TestEnvelopeHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const w = 16
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		column := make([]uint8, n*w)
		for i := range column {
			switch rng.Intn(8) {
			case 0:
				column[i] = 0
			case 1:
				column[i] = 255
			default:
				column[i] = uint8(rng.Intn(256))
			}
		}
		wantMin, wantMax := bytes.Repeat([]byte{255}, w), make([]uint8, w)
		for i, v := range column {
			if v < wantMin[i%w] {
				wantMin[i%w] = v
			}
			if v > wantMax[i%w] {
				wantMax[i%w] = v
			}
		}
		mn, mx := make([]uint8, w), make([]uint8, w)
		SetEnvelope(mn, mx, column)
		if !bytes.Equal(mn, wantMin) || !bytes.Equal(mx, wantMax) {
			t.Fatalf("trial %d: envelope [%v, %v], want [%v, %v]", trial, mn, mx, wantMin, wantMax)
		}
	}
}
