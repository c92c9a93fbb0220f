package simd

import (
	"math"
	"math/rand"
	"testing"
)

func benchData(n int) (q, t []float64, buf []byte) {
	rng := rand.New(rand.NewSource(7))
	q = make([]float64, n)
	t = make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64()
		t[i] = rng.NormFloat64()
	}
	return q, t, encode(t)
}

func BenchmarkKernelSqDist(b *testing.B) {
	q, t, _ := benchData(256)
	defer Select("auto")
	for _, name := range Available() {
		Select(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = SqDist(q, t, math.Inf(1))
			}
		})
	}
}

func BenchmarkKernelSqDistEncoded(b *testing.B) {
	q, _, buf := benchData(256)
	defer Select("auto")
	for _, name := range Available() {
		Select(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = SqDistEncoded(q, buf, math.Inf(1))
			}
		})
	}
}

func BenchmarkKernelTableSum(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	tab := make([]float64, 16*256)
	for i := range tab {
		tab[i] = rng.NormFloat64()
	}
	idx := make([]int32, 16)
	for i := range idx {
		idx[i] = int32(i*256 + rng.Intn(256))
	}
	defer Select("auto")
	for _, name := range Available() {
		Select(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = TableSum(tab, idx)
			}
		})
	}
}

// BenchmarkKernelEnvelopeSums bounds 16 consecutive envelopes of 16
// segments at 8 bits an op — one page group's leaves — and reports the cost
// of one envelope.
func BenchmarkKernelEnvelopeSums(b *testing.B) {
	const n, w, bits = 16, 16, 8
	rng := rand.New(rand.NewSource(9))
	tab := make([]float64, w<<bits)
	for i := range tab {
		tab[i] = rng.ExpFloat64()
	}
	q := make([]uint8, w)
	mins, maxs := make([]uint8, n*w), make([]uint8, n*w)
	for i := range q {
		q[i] = uint8(rng.Intn(1 << bits))
	}
	for i := range mins {
		lo := rng.Intn(1<<bits - 8)
		mins[i], maxs[i] = uint8(lo), uint8(lo+rng.Intn(8))
	}
	dst := make([]float64, n)
	defer Select("auto")
	for _, name := range Available() {
		Select(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EnvelopeSums(dst, tab, q, bits, mins, maxs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/envelope")
		})
	}
}

// BenchmarkKernelSymbolSums bounds 48 consecutive entries of 16 segments at
// 8 bits an op — a page's resident SAX column — and reports the cost of one
// entry.
func BenchmarkKernelSymbolSums(b *testing.B) {
	const n, w, bits = 48, 16, 8
	rng := rand.New(rand.NewSource(10))
	tab := make([]float64, w<<bits)
	for i := range tab {
		tab[i] = rng.ExpFloat64()
	}
	syms := make([]uint8, n*w)
	for i := range syms {
		syms[i] = uint8(rng.Intn(1 << bits))
	}
	dst := make([]float64, n)
	defer Select("auto")
	for _, name := range Available() {
		Select(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SymbolSums(dst, tab, w, bits, syms)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/entry")
		})
	}
}
