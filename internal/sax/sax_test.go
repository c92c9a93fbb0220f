package sax

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/series"
)

func TestBreakpointsProperties(t *testing.T) {
	for bits := 1; bits <= MaxBits; bits++ {
		card := 1 << bits
		bp := Breakpoints(card)
		if len(bp) != card-1 {
			t.Fatalf("card %d: %d breakpoints, want %d", card, len(bp), card-1)
		}
		for i := 1; i < len(bp); i++ {
			if bp[i] <= bp[i-1] {
				t.Fatalf("card %d: breakpoints not increasing at %d", card, i)
			}
		}
		// Symmetric about zero.
		for i := range bp {
			if !almostEq(bp[i], -bp[len(bp)-1-i], 1e-9) {
				t.Fatalf("card %d: breakpoints not symmetric", card)
			}
		}
	}
}

func TestBreakpointsMedian(t *testing.T) {
	bp := Breakpoints(2)
	if !almostEq(bp[0], 0, 1e-12) {
		t.Errorf("cardinality-2 breakpoint = %v, want 0", bp[0])
	}
	bp4 := Breakpoints(4)
	// N(0,1) quartiles: ±0.6745, 0
	if !almostEq(bp4[1], 0, 1e-12) {
		t.Errorf("cardinality-4 median = %v, want 0", bp4[1])
	}
	if !almostEq(bp4[0], -0.6744897501960817, 1e-9) {
		t.Errorf("cardinality-4 lower quartile = %v", bp4[0])
	}
}

func TestBreakpointsNesting(t *testing.T) {
	// Quantiles at cardinality 2^(b-1) must be a subset of those at 2^b.
	for bits := 2; bits <= MaxBits; bits++ {
		coarse := Breakpoints(1 << (bits - 1))
		fine := Breakpoints(1 << bits)
		for i, v := range coarse {
			if !almostEq(v, fine[2*i+1], 1e-9) {
				t.Fatalf("bits %d: coarse[%d]=%v != fine[%d]=%v", bits, i, v, 2*i+1, fine[2*i+1])
			}
		}
	}
}

func TestBreakpointsPanics(t *testing.T) {
	for _, c := range []int{0, 1, 257, 1 << 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Breakpoints(%d) should panic", c)
				}
			}()
			Breakpoints(c)
		}()
	}
}

func TestPAAExact(t *testing.T) {
	s := series.Series{1, 1, 2, 2, 3, 3, 4, 4}
	paa := PAA(s, 4)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if !almostEq(paa[i], want[i], 1e-12) {
			t.Errorf("paa[%d] = %v, want %v", i, paa[i], want[i])
		}
	}
}

func TestPAANonDivisible(t *testing.T) {
	s := series.Series{1, 2, 3}
	paa := PAA(s, 2)
	// widths 1.5: seg0 = (1*1 + 2*0.5)/1.5 = 4/3; seg1 = (2*0.5 + 3*1)/1.5 = 8/3
	if !almostEq(paa[0], 4.0/3.0, 1e-9) || !almostEq(paa[1], 8.0/3.0, 1e-9) {
		t.Errorf("paa = %v, want [1.333 2.667]", paa)
	}
}

func TestPAAMeanPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := make(series.Series, 96)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	for _, w := range []int{1, 2, 3, 4, 8, 16, 96} {
		paa := PAA(s, w)
		sum := 0.0
		for _, v := range paa {
			sum += v
		}
		if !almostEq(sum/float64(w), s.Mean(), 1e-9) {
			t.Errorf("w=%d: PAA mean %v != series mean %v", w, sum/float64(w), s.Mean())
		}
	}
}

func TestSymbolBoundaries(t *testing.T) {
	// Cardinality 2: below 0 -> 0, at/above 0 -> 1.
	if Symbol(-0.1, 2) != 0 || Symbol(0.1, 2) != 1 || Symbol(0, 2) != 1 {
		t.Error("cardinality-2 symbol boundaries wrong")
	}
	// Extremes land in the outermost regions.
	if Symbol(-100, 256) != 0 {
		t.Error("very low value should be region 0")
	}
	if Symbol(100, 256) != 255 {
		t.Error("very high value should be region 255")
	}
}

// symbolBinarySearch is Symbol as a branchy binary search over the float
// breakpoints: the reference the branch-free search must equal.
func symbolBinarySearch(v float64, cardinality int) uint8 {
	bp := Breakpoints(cardinality)
	// Binary search: first breakpoint > v gives the region.
	lo, hi := 0, len(bp)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < bp[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo)
}

// symbolEdgeValues are the values where an order-preserving key could part
// from the float comparison: signed zeros, infinities, NaNs of both signs
// and of the smallest and largest payloads, the extremes of the finite
// range, and the smallest subnormals.
var symbolEdgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Copysign(math.NaN(), -1),
	math.Float64frombits(0x7FF0_0000_0000_0001), math.Float64frombits(0x7FFF_FFFF_FFFF_FFFF),
	math.Float64frombits(0xFFF0_0000_0000_0001), math.Float64frombits(0xFFFF_FFFF_FFFF_FFFF),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// TestSymbolMatchesBinarySearch: at every cardinality, not only the powers
// of two, the branch-free Symbol agrees with the binary search at every
// breakpoint, at its neighbours on either side, and at the edge values.
func TestSymbolMatchesBinarySearch(t *testing.T) {
	for card := 2; card <= 1<<MaxBits; card++ {
		vals := slices.Clone(symbolEdgeValues)
		for _, bp := range Breakpoints(card) {
			vals = append(vals, bp, math.Nextafter(bp, math.Inf(-1)), math.Nextafter(bp, math.Inf(1)))
		}
		for _, v := range vals {
			if got, want := Symbol(v, card), symbolBinarySearch(v, card); got != want {
				t.Fatalf("card %d: Symbol(%v [%#016x]) = %d, the binary search says %d",
					card, v, math.Float64bits(v), got, want)
			}
		}
	}
}

// FuzzSymbol holds Symbol to the binary search on any float64 bit pattern
// at any cardinality.
func FuzzSymbol(f *testing.F) {
	for _, v := range symbolEdgeValues {
		f.Add(math.Float64bits(v), uint8(255))
	}
	f.Fuzz(func(t *testing.T, v uint64, c uint8) {
		card, x := 2+int(c)%(1<<MaxBits-1), math.Float64frombits(v)
		if got, want := Symbol(x, card), symbolBinarySearch(x, card); got != want {
			t.Fatalf("card %d: Symbol(%v [%#016x]) = %d, the binary search says %d", card, x, v, got, want)
		}
	})
}

func TestSymbolMonotone(t *testing.T) {
	for bits := 1; bits <= MaxBits; bits++ {
		card := 1 << bits
		prev := uint8(0)
		for v := -4.0; v <= 4.0; v += 0.01 {
			s := Symbol(v, card)
			if s < prev {
				t.Fatalf("card %d: symbol not monotone at %v", card, v)
			}
			prev = s
		}
	}
}

func TestPromoteNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := make(series.Series, 64)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		full := FromSeries(s, 8, 8)
		for bits := 1; bits <= 8; bits++ {
			direct := FromSeries(s, 8, bits)
			promoted := full.Promote(bits)
			for i := range direct.Symbols {
				if direct.Symbols[i] != promoted.Symbols[i] {
					t.Fatalf("trial %d bits %d seg %d: direct %d != promoted %d",
						trial, bits, i, direct.Symbols[i], promoted.Symbols[i])
				}
			}
		}
	}
}

func TestPromotePanics(t *testing.T) {
	w := Word{Symbols: []uint8{0}, Bits: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic promoting to more bits")
		}
	}()
	w.Promote(3)
}

func TestRegion(t *testing.T) {
	lo, hi := Region(0, 1)
	if !math.IsInf(lo, -1) || hi != 0 {
		t.Errorf("region 0 bits 1 = [%v,%v), want [-Inf,0)", lo, hi)
	}
	lo, hi = Region(1, 1)
	if lo != 0 || !math.IsInf(hi, 1) {
		t.Errorf("region 1 bits 1 = [%v,%v), want [0,+Inf)", lo, hi)
	}
}

func TestRegionCoversSymbol(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64() * 2
		for bits := 1; bits <= MaxBits; bits++ {
			sym := Symbol(v, 1<<bits)
			lo, hi := Region(sym, bits)
			if v < lo || v >= hi {
				// Boundary: hi is exclusive except both may equal at breakpoints
				if !(v == hi) {
					t.Fatalf("value %v not in region [%v,%v) of its own symbol", v, lo, hi)
				}
			}
		}
	}
}

// The key invariant of the whole infrastructure: MINDIST never exceeds the
// true Euclidean distance (lower-bounding lemma).
func TestMinDistLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, w = 128, 16
	for trial := 0; trial < 500; trial++ {
		a := randomWalk(rng, n).ZNormalize()
		b := randomWalk(rng, n).ZNormalize()
		trueDist := math.Sqrt(a.SqDist(b))
		paaA := PAA(a, w)
		for bits := 1; bits <= MaxBits; bits++ {
			wb := FromSeries(b, w, bits)
			lb := MinDistPAA(paaA, wb, n)
			if lb > trueDist+1e-9 {
				t.Fatalf("trial %d bits %d: MINDIST %v > true %v", trial, bits, lb, trueDist)
			}
			wa := FromSeries(a, w, bits)
			lbw := MinDistWords(wa, wb, n)
			if lbw > trueDist+1e-9 {
				t.Fatalf("trial %d bits %d: word MINDIST %v > true %v", trial, bits, lbw, trueDist)
			}
			// Word-word bound is never tighter than PAA-word bound.
			if lbw > lb+1e-9 {
				t.Fatalf("trial %d bits %d: word bound %v > paa bound %v", trial, bits, lbw, lb)
			}
		}
	}
}

func TestMinDistTighterWithMoreBits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, w = 128, 16
	for trial := 0; trial < 100; trial++ {
		a := randomWalk(rng, n).ZNormalize()
		b := randomWalk(rng, n).ZNormalize()
		paaA := PAA(a, w)
		wb := FromSeries(b, w, MaxBits)
		prev := -1.0
		for bits := 1; bits <= MaxBits; bits++ {
			lb := MinDistPAA(paaA, wb.Promote(bits), n)
			if lb+1e-9 < prev {
				t.Fatalf("trial %d: bound shrank from %v to %v at %d bits", trial, prev, lb, bits)
			}
			prev = lb
		}
	}
}

func TestMinDistSameWordIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomWalk(rng, 64).ZNormalize()
	w := FromSeries(s, 8, 4)
	if d := MinDistWords(w, w, 64); d != 0 {
		t.Errorf("MINDIST of word with itself = %v, want 0", d)
	}
	paa := PAA(s, 8)
	if d := MinDistPAA(paa, w, 64); d != 0 {
		t.Errorf("MINDIST of series with own word = %v, want 0", d)
	}
}

func TestWordString(t *testing.T) {
	w := Word{Symbols: []uint8{0, 3, 2}, Bits: 2}
	if got := w.String(); got != "00 11 10" {
		t.Errorf("String() = %q, want %q", got, "00 11 10")
	}
}

func TestPropertySymbolRegionInverse(t *testing.T) {
	f := func(raw float64, bitsRaw uint8) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		v := math.Mod(raw, 10)
		bits := int(bitsRaw%MaxBits) + 1
		sym := Symbol(v, 1<<bits)
		lo, hi := Region(sym, bits)
		return v >= lo && (v < hi || v == hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomWalk(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
