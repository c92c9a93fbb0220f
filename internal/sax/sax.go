// Package sax implements the iSAX (indexable Symbolic Aggregate
// approXimation) summarization of data series: Piecewise Aggregate
// Approximation (PAA), equi-probable Gaussian breakpoints, iSAX words with
// power-of-two cardinalities, and the MINDIST lower-bounding distance.
//
// Symbols are the natural binary index of the breakpoint region, counted
// from the lowest region. Because the Gaussian quantiles at cardinality
// 2^(b-1) are a subset of those at 2^b, the (b-1)-bit prefix of a b-bit
// symbol is exactly the symbol at the coarser cardinality; this nesting is
// what makes bit-interleaving (package sortable) meaningful.
package sax

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/series"
)

// MaxBits is the maximum per-segment cardinality in bits supported (256
// regions), matching the iSAX 2.0 convention.
const MaxBits = 8

// Breakpoints returns the cardinality-1 breakpoints that divide the standard
// normal distribution into cardinality equi-probable regions, in increasing
// order. The cache is a fixed array populated fully at init and read-only
// afterwards, so concurrent searches may call Breakpoints freely. Callers
// must not modify the returned slice.
func Breakpoints(cardinality int) []float64 {
	checkCardinality(cardinality)
	return bpCache[cardinality]
}

func checkCardinality(c int) {
	if c < 2 || c > 1<<MaxBits {
		panic(fmt.Sprintf("sax: cardinality %d out of range [2,%d]", c, 1<<MaxBits))
	}
}

// bpCache[c] holds the breakpoints for cardinality c, for every c in
// [2, 2^MaxBits], and bpKeys[c] their orderKeys, padded to 2^⌈log2 c⌉ − 1
// with keys above every value's, so that Symbol's search halves a power of
// two. Both are written only by init; all later access is read-only, which
// is what makes Breakpoints and Symbol safe under the parallel query engine.
var (
	bpCache [1<<MaxBits + 1][]float64
	bpKeys  [1<<MaxBits + 1][]uint64
)

func init() {
	for c := 2; c <= 1<<MaxBits; c++ {
		bp := make([]float64, c-1)
		keys := make([]uint64, 1<<bits.Len(uint(c-1))-1)
		for i := range keys {
			keys[i] = math.MaxUint64
		}
		for i := 1; i < c; i++ {
			p := float64(i) / float64(c)
			bp[i-1] = math.Sqrt2 * math.Erfinv(2*p-1)
			keys[i-1] = orderKey(bp[i-1])
		}
		bpCache[c], bpKeys[c] = bp, keys
	}
}

// PAA computes the Piecewise Aggregate Approximation of s with w segments:
// the mean of each of w equal-width chunks. len(s) need not be divisible by
// w; fractional points are weighted across neighbouring segments.
func PAA(s series.Series, w int) []float64 {
	n := len(s)
	if w <= 0 || n == 0 {
		panic(fmt.Sprintf("sax: invalid PAA arguments n=%d w=%d", n, w))
	}
	out := make([]float64, w)
	if n%w == 0 {
		seg := n / w
		for i := 0; i < w; i++ {
			sum := 0.0
			for j := i * seg; j < (i+1)*seg; j++ {
				sum += s[j]
			}
			out[i] = sum / float64(seg)
		}
		return out
	}
	// General case: weighted split of points across segment boundaries.
	width := float64(n) / float64(w)
	for i := 0; i < w; i++ {
		lo := float64(i) * width
		hi := lo + width
		sum := 0.0
		for j := int(lo); j < n && float64(j) < hi; j++ {
			l := math.Max(lo, float64(j))
			h := math.Min(hi, float64(j+1))
			if h > l {
				sum += s[j] * (h - l)
			}
		}
		out[i] = sum / width
	}
	return out
}

// Symbol maps a PAA value to its region index at the given cardinality:
// the number of breakpoints at or below the value, in [0, cardinality) —
// the symbol whose Region [lo, hi) holds it. NaN, which no comparison
// orders, maps to the highest region.
//
// The search is branch-free: it compares order-preserving uint64 keys of
// the value and the breakpoints, and adds each step's result as a borrow
// instead of branching on it, so a run of unrelated values costs no
// mispredictions.
func Symbol(v float64, cardinality int) uint8 {
	checkCardinality(cardinality)
	keys, x, pos := bpKeys[cardinality], orderKey(v), 0
	for step := (len(keys) + 1) >> 1; step > 0; step >>= 1 {
		_, above := bits.Sub64(x, keys[pos+step-1], 0) // 1 when the breakpoint is above v
		pos += step &^ -int(above)
	}
	return uint8(pos)
}

// orderKey maps v to a uint64 whose unsigned order is v's numeric order:
// the sign bit flipped for positive values, every bit for negative ones.
// −0 is first made +0, which it equals, and NaN, which v < bp never holds
// for, +Inf, so that both count the breakpoints the comparison would.
func orderKey(v float64) uint64 {
	const inf = 0x7FF0_0000_0000_0000
	b := math.Float64bits(v)
	abs := b &^ (1 << 63)
	nan := -((inf - abs) >> 63) // all ones for NaN
	b = b&^nan | inf&nan
	b &^= (abs - 1) >> 63 << 63 // the sign of −0
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Word is an iSAX word: one symbol per segment, each at Bits cardinality
// bits (all segments share the same cardinality here, the layout used by
// Coconut's sortable keys; per-segment cardinalities appear in the ADS+
// baseline via prefix masking).
type Word struct {
	Symbols []uint8 // region index per segment, at Bits bits each
	Bits    int     // cardinality bits per segment, 1..MaxBits
}

// FromSeries summarizes a (typically z-normalized) series into an iSAX word
// with w segments at bits cardinality bits per segment.
func FromSeries(s series.Series, w, bits int) Word {
	return FromPAA(PAA(s, w), bits)
}

// FromPAA converts PAA coefficients to an iSAX word.
func FromPAA(paa []float64, bits int) Word {
	if bits < 1 || bits > MaxBits {
		panic(fmt.Sprintf("sax: bits %d out of range [1,%d]", bits, MaxBits))
	}
	card := 1 << bits
	syms := make([]uint8, len(paa))
	for i, v := range paa {
		syms[i] = Symbol(v, card)
	}
	return Word{Symbols: syms, Bits: bits}
}

// Promote returns the word re-expressed at a coarser cardinality (fewer
// bits) by truncating each symbol to its high-order prefix. bits must be
// <= w.Bits.
func (w Word) Promote(bits int) Word {
	if bits > w.Bits || bits < 1 {
		panic(fmt.Sprintf("sax: cannot promote from %d to %d bits", w.Bits, bits))
	}
	shift := uint(w.Bits - bits)
	syms := make([]uint8, len(w.Symbols))
	for i, s := range w.Symbols {
		syms[i] = s >> shift
	}
	return Word{Symbols: syms, Bits: bits}
}

// Region returns the value interval [lo, hi) covered by symbol sym at the
// given cardinality bits. The lowest region extends to -Inf and the highest
// to +Inf.
func Region(sym uint8, bits int) (lo, hi float64) {
	card := 1 << bits
	bp := Breakpoints(card)
	if int(sym) == 0 {
		lo = math.Inf(-1)
	} else {
		lo = bp[sym-1]
	}
	if int(sym) == card-1 {
		hi = math.Inf(1)
	} else {
		hi = bp[sym]
	}
	return lo, hi
}

// MinDistPAA returns the lower bound on the Euclidean distance between the
// original series (length n) whose PAA is paa, and any series summarized by
// word w. This is the classic iSAX MINDIST: per-segment distance to the
// symbol's region, scaled by sqrt(n/w).
func MinDistPAA(paa []float64, w Word, n int) float64 {
	if len(paa) != len(w.Symbols) {
		panic(fmt.Sprintf("sax: segment mismatch %d vs %d", len(paa), len(w.Symbols)))
	}
	acc := 0.0
	for i, v := range paa {
		lo, hi := Region(w.Symbols[i], w.Bits)
		var d float64
		switch {
		case v < lo:
			d = lo - v
		case v > hi:
			d = v - hi
		}
		acc += d * d
	}
	return math.Sqrt(float64(n) / float64(len(paa)) * acc)
}

// MinDistWords returns a lower bound on the Euclidean distance between any
// two series summarized by words a and b (which may have different
// cardinalities but must have the same segment count), for original series
// length n.
func MinDistWords(a, b Word, n int) float64 {
	if len(a.Symbols) != len(b.Symbols) {
		panic(fmt.Sprintf("sax: segment mismatch %d vs %d", len(a.Symbols), len(b.Symbols)))
	}
	acc := 0.0
	for i := range a.Symbols {
		alo, ahi := Region(a.Symbols[i], a.Bits)
		blo, bhi := Region(b.Symbols[i], b.Bits)
		var d float64
		switch {
		case alo > bhi:
			d = alo - bhi
		case blo > ahi:
			d = blo - ahi
		}
		acc += d * d
	}
	return math.Sqrt(float64(n) / float64(len(a.Symbols)) * acc)
}

// String renders the word as space-separated binary symbols, the notation
// used in the iSAX literature.
func (w Word) String() string {
	out := make([]byte, 0, len(w.Symbols)*(w.Bits+1))
	for i, s := range w.Symbols {
		if i > 0 {
			out = append(out, ' ')
		}
		for b := w.Bits - 1; b >= 0; b-- {
			out = append(out, '0'+(s>>uint(b))&1)
		}
	}
	return string(out)
}
