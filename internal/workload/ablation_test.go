package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/sax"
	"repro/internal/series"
	"repro/internal/sortable"
)

// deconcat inverts concat given the segment count and cardinality bits.
func deconcat(k sortable.Key, nseg, bitsPer int) sax.Word {
	if total := nseg * bitsPer; total > 128 {
		panic(fmt.Sprintf("workload: %d segments x %d bits = %d > 128 bits", nseg, bitsPer, total))
	}
	syms := make([]uint8, nseg)
	pos := 0
	for s := 0; s < nseg; s++ {
		for b := bitsPer - 1; b >= 0; b-- {
			word := k.Hi >> uint(63-pos)
			if pos >= 64 {
				word = k.Lo >> uint(127-pos)
			}
			syms[s] |= uint8(word&1) << uint(b)
			pos++
		}
	}
	return sax.Word{Symbols: syms, Bits: bitsPer}
}

func randomWord(rng *rand.Rand, nseg, bitsPer int) sax.Word {
	syms := make([]uint8, nseg)
	for i := range syms {
		syms[i] = uint8(rng.Intn(1 << bitsPer))
	}
	return sax.Word{Symbols: syms, Bits: bitsPer}
}

func TestConcatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		nseg := 1 + rng.Intn(16)
		bitsPer := 1 + rng.Intn(8)
		w := randomWord(rng, nseg, bitsPer)
		got := deconcat(concat(w), nseg, bitsPer)
		for i := range w.Symbols {
			if got.Symbols[i] != w.Symbols[i] {
				t.Fatalf("trial %d: symbol %d = %d, want %d", trial, i, got.Symbols[i], w.Symbols[i])
			}
		}
	}
}

func TestConcatOrderIsSegmentMajor(t *testing.T) {
	// Sorting by concat keys must order primarily by segment 0.
	a := sax.Word{Symbols: []uint8{1, 255}, Bits: 8}
	b := sax.Word{Symbols: []uint8{2, 0}, Bits: 8}
	if !concat(a).Less(concat(b)) {
		t.Fatal("concat order should be dominated by segment 0")
	}
	// Whereas interleaved order weighs all segments' MSBs first: a has
	// seg1 MSB set (255) so it sorts after b (seg MSBs: a=01, b=00).
	if !sortable.Interleave(b).Less(sortable.Interleave(a)) {
		t.Fatal("interleaved order should weigh all MSBs first")
	}
}

// The ablation's core claim in miniature: under the interleaved order,
// z-order neighbors are closer in true distance than under the naive
// segment-major order.
func TestInterleavedNeighborsCloserThanConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n, nseg, bitsPer = 256, 16, 8
	type item struct {
		z             series.Series
		inter, concat sortable.Key
	}
	items := make([]item, 500)
	for i := range items {
		z := gen.RandomWalk(rng, n).ZNormalize()
		w := sax.FromSeries(z, nseg, bitsPer)
		items[i] = item{z: z, inter: sortable.Interleave(w), concat: concat(w)}
	}
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	byInter := append([]int{}, idx...)
	sort.Slice(byInter, func(a, b int) bool { return items[byInter[a]].inter.Less(items[byInter[b]].inter) })
	byConcat := append([]int{}, idx...)
	sort.Slice(byConcat, func(a, b int) bool { return items[byConcat[a]].concat.Less(items[byConcat[b]].concat) })
	adj := func(order []int) float64 {
		sum := 0.0
		for i := 1; i < len(order); i++ {
			sum += items[order[i-1]].z.SqDist(items[order[i]].z)
		}
		return sum / float64(len(order)-1)
	}
	di, dc := adj(byInter), adj(byConcat)
	if di >= dc {
		t.Errorf("interleaved adjacent distance %.2f not below concat %.2f", di, dc)
	}
}
