package index

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
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
// is the bound taken from the key's symbols (SymbolBoundSqs), which is what a
// scan over resident symbols computes in place of MinDistSqKey, of one key's
// symbols alone or of a column of them at once.
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
				const trials = 50
				var column []uint8
				var wants [trials]float64
				for trial := range wants {
					k := sortable.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
					got, want := p.MinDistSqKey(k), minDistSqKeySerial(&p, k)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %dx%d key %v: MinDistSqKey %x, bit-serial %x", kernels, w, bits, k, got, want)
					}
					syms := sortable.Symbols(k, w, bits)
					var one [1]float64
					if p.SymbolBoundSqs(one[:], syms[:w]); math.Float64bits(one[0]) != math.Float64bits(want) {
						t.Fatalf("%s %dx%d key %v: SymbolBoundSqs of its symbols %x, bit-serial %x", kernels, w, bits, k, one[0], want)
					}
					column, wants[trial] = append(column, syms[:w]...), want
				}
				var got [trials]float64
				p.SymbolBoundSqs(got[:], column)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(wants[i]) {
						t.Fatalf("%s %dx%d entry %d: SymbolBoundSqs %x, bit-serial %x", kernels, w, bits, i, got[i], wants[i])
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

// TestEnvelopeDecisionIdentity: the batch bound decides every skip the way
// the plain bound does, and a group's decision never contradicts its pages'.
// For random batches of envelopes (narrow ones skip, wide ones do not),
// EnvelopeSqs gives each envelope EnvelopeSq's and envelopeSqPlain's bits,
// inverted envelopes included (they clamp the way the comparison chain
// does), and a foreign shape bounds to 0. The envelope that unions the batch
// — a page group's — bounds no higher than any of its pages, so for
// collectors in every state the page loop meets (a k-NN collector still
// filling, full ones with bounds at, and an ulp either side of, each bound,
// range collectors at the same limits) a skipped group implies skipped pages.
func TestEnvelopeDecisionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var p Pruner
	skips := 0
	for trial := 0; trial < 1000; trial++ {
		w := 1 + rng.Intn(sortable.MaxSegments)
		bits := 1 + rng.Intn(sax.MaxBits)
		p.Fill(randPAA(rng, w), Config{SeriesLen: 4 * w, Segments: w, Bits: bits})
		n := 1 + rng.Intn(20)
		mins, maxs := make([]uint8, n*w), make([]uint8, n*w)
		for i := range mins {
			a, b := rng.Intn(1<<bits), rng.Intn(1<<bits)
			if trial%2 == 0 {
				b = a + rng.Intn(3) // a narrow envelope, a leaf's
			}
			mins[i], maxs[i] = uint8(min(a, b)), uint8(min(max(a, b), 1<<bits-1))
		}
		batch, inverted := make([]float64, n), make([]float64, n)
		p.EnvelopeSqs(batch, w, mins, maxs)
		p.EnvelopeSqs(inverted, w, maxs, mins)
		gmn, gmx := slices.Clone(mins[:w]), slices.Clone(maxs[:w])
		for i := 0; i < n; i++ {
			mn, mx := mins[i*w:(i+1)*w], maxs[i*w:(i+1)*w]
			WidenEnvelope(gmn, gmx, mn)
			WidenEnvelope(gmn, gmx, mx)
			want := envelopeSqPlain(&p, mn, mx)
			if got := p.EnvelopeSq(mn, mx); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d envelope %d: EnvelopeSq %v, plain clamp and sum %v", trial, i, got, want)
			}
			if math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d envelope %d of %d: EnvelopeSqs %v, plain clamp and sum %v", trial, i, n, batch[i], want)
			}
			// An inverted envelope, which only corrupt metadata could hold,
			// clamps the way the comparison chain does.
			if want := envelopeSqPlain(&p, mx, mn); math.Float64bits(inverted[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d envelope %d: inverted envelope: EnvelopeSqs %v, plain %v", trial, i, inverted[i], want)
			}
		}
		foreign := slices.Clone(batch)
		if p.EnvelopeSqs(foreign, w+1, mins, maxs); slices.ContainsFunc(foreign, func(v float64) bool { return v != 0 }) {
			t.Fatalf("trial %d: foreign shape gives %v, want 0s", trial, foreign)
		}
		if w > 1 {
			if got := p.EnvelopeSq(mins[:w-1], maxs[:w-1]); got != 0 {
				t.Fatalf("trial %d: foreign shape gives %v, want 0", trial, got)
			}
		}
		group := p.EnvelopeSq(gmn, gmx)
		for i, page := range batch {
			if group > page {
				t.Fatalf("trial %d: group bound %v above page %d's %v", trial, group, i, page)
			}
			// Collector bounds around, at, and an ulp either side of the
			// page's and the group's bounds, where decisions are closest to
			// disagreeing.
			for _, b := range []float64{0, page / 3, math.Nextafter(page, 0), page, math.Nextafter(page, math.Inf(1)),
				math.Nextafter(group, 0), group, math.Nextafter(group, math.Inf(1)), page * 2, rng.ExpFloat64()} {
				col := NewCollector(2)
				col.AddSq(1, 0, b/2)
				if col.SkipSq(page) || col.SkipSq(group) {
					t.Fatalf("trial %d: a collector not yet full skips", trial)
				}
				col.AddSq(2, 0, b)
				if col.SkipSq(group) && !col.SkipSq(page) {
					t.Fatalf("trial %d bound %v: k-NN skips group %v but not page %v", trial, b, group, page)
				}
				if col.SkipSq(page) != (page > col.WorstSq()) {
					t.Fatalf("trial %d bound %v: k-NN skip of %v is %v against worst %v", trial, b, page, col.SkipSq(page), col.WorstSq())
				}
				if col.SkipSq(page) {
					skips++
				}
				rc := NewRangeCollector(math.Sqrt(b))
				if rc.SkipSq(group) && !rc.SkipSq(page) {
					t.Fatalf("trial %d eps² %v: range skips group %v but not page %v", trial, b, group, page)
				}
			}
		}
	}
	if skips == 0 {
		t.Fatal("no envelope was ever skippable: the test exercised one side only")
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
		page := make([]byte, 0, 16384)
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
		ents := EntryPage(entries)
		if _, err := EvalPage(&q, &ents, ds, colA, ctx1.Scratch0()); err != nil {
			t.Fatal(err)
		}
		ctx1.Release()

		ctx2 := AcquireCtx(q, cfg)
		colB := NewCollector(5)
		fixed := StoredPage(layoutOf(t, cfg, cap(page)), page[:cap(page)], len(entries))
		if _, err := EvalPage(&q, &fixed, ds, colB, ctx2.Scratch0()); err != nil {
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

// TestResidentBoundsMatchesWindowFilter: the page loop's least in-window
// bound (ResidentBounds, branch-free) is the one the plain loop over
// InWindow finds, +Inf when no entry is in the window, and its bounds are
// SymbolBoundSqs', on windows inside, around, across and past the page's
// timestamps, empty ones and the widest, at the int64 extremes too.
func TestResidentBoundsMatchesWindowFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := Config{SeriesLen: 64, Segments: 8, Bits: 6}
	var p Pruner
	p.Fill(randPAA(rng, cfg.Segments), cfg)
	sc := &Scratch{P: &p}
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -5, -1, 0, 1, 3, 7, math.MaxInt64 - 1, math.MaxInt64}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		syms := make([]uint8, n*cfg.Segments)
		for i := range syms {
			syms[i] = uint8(rng.Intn(1 << cfg.Bits))
		}
		tss := make([]int64, n)
		for i := range tss {
			tss[i] = edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				tss[i] = rng.Int63n(10) - 3
			}
		}
		q := Query{}
		if trial%5 != 0 {
			q = q.WithWindow(edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))])
		}
		want := make([]float64, n)
		p.SymbolBoundSqs(want, syms)
		least := math.Inf(1)
		for i, lb := range want {
			if q.InWindow(tss[i]) && lb < least {
				least = lb
			}
		}
		lbs, got := sc.ResidentBounds(&q, syms, tss)
		if got != least || !math.IsInf(least, 1) && !slices.Equal(lbs, want) {
			t.Fatalf("window %v [%d, %d], timestamps %v: least %v (bounds %v), want %v (bounds %v)", q.Windowed, q.MinTS, q.MaxTS, tss, got, lbs, least, want)
		}
	}
}
