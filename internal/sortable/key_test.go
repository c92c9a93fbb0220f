package sortable

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sax"
	"repro/internal/series"
)

func TestInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		nseg := 1 + rng.Intn(16)
		bitsPer := 1 + rng.Intn(8)
		if nseg*bitsPer > 128 {
			continue
		}
		syms := make([]uint8, nseg)
		for i := range syms {
			syms[i] = uint8(rng.Intn(1 << bitsPer))
		}
		w := sax.Word{Symbols: syms, Bits: bitsPer}
		k := Interleave(w)
		got := Deinterleave(k, nseg, bitsPer)
		for i := range syms {
			if got.Symbols[i] != syms[i] {
				t.Fatalf("trial %d: roundtrip symbol %d = %d, want %d", trial, i, got.Symbols[i], syms[i])
			}
		}
	}
}

func TestInterleaveKnownLayout(t *testing.T) {
	// 2 segments, 2 bits. Symbols a=10b, b=01b.
	// Round 0 (MSBs): a1=1, b1=0 -> bits "10"
	// Round 1 (LSBs): a0=0, b0=1 -> bits "01"
	// Key top nibble = 1001b = 0x9.
	w := sax.Word{Symbols: []uint8{2, 1}, Bits: 2}
	k := Interleave(w)
	if k.Hi>>60 != 0x9 {
		t.Errorf("top nibble = %x, want 9", k.Hi>>60)
	}
	if k.Lo != 0 {
		t.Errorf("Lo = %x, want 0", k.Lo)
	}
}

func TestInterleavePanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >128 bits")
		}
	}()
	Interleave(sax.Word{Symbols: make([]uint8, 17), Bits: 8})
}

func TestCompare(t *testing.T) {
	a := Key{Hi: 1, Lo: 0}
	b := Key{Hi: 1, Lo: 1}
	c := Key{Hi: 2, Lo: 0}
	if a.Compare(a) != 0 || !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("comparison ordering wrong")
	}
	if b.Compare(a) != 1 || a.Compare(b) != -1 {
		t.Fatal("compare signs wrong")
	}
}

// Sorting by interleaved key must equal sorting by (coarse-to-fine
// round-robin) symbol significance; in particular keys of words that agree
// on all MSBs cluster together regardless of low bits.
func TestSortGroupsByMSB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nseg, bitsPer = 8, 8
	type entry struct {
		k Key
		w sax.Word
	}
	var entries []entry
	for i := 0; i < 2000; i++ {
		syms := make([]uint8, nseg)
		for j := range syms {
			syms[j] = uint8(rng.Intn(256))
		}
		w := sax.Word{Symbols: syms, Bits: bitsPer}
		entries = append(entries, entry{Interleave(w), w})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].k.Less(entries[j].k) })
	// In sorted order the sequence of round-0 prefixes (the cardinality-2
	// iSAX words) must be non-decreasing as integers, i.e. all entries with
	// the same MSB pattern are contiguous.
	prev := -1
	seen := make(map[int]bool)
	for _, e := range entries {
		msb := 0
		for _, s := range e.w.Symbols {
			msb = msb<<1 | int(s>>7)
		}
		if msb != prev {
			if seen[msb] {
				t.Fatalf("MSB group %b appears non-contiguously", msb)
			}
			seen[msb] = true
			prev = msb
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a := Key{Hi: 0xF000000000000000}
	b := Key{Hi: 0xF800000000000000}
	if got := a.CommonPrefixLen(b); got != 4 {
		t.Errorf("CommonPrefixLen = %d, want 4", got)
	}
	if got := a.CommonPrefixLen(a); got != 128 {
		t.Errorf("self prefix = %d, want 128", got)
	}
	c := Key{Hi: a.Hi, Lo: 1}
	if got := a.CommonPrefixLen(c); got != 127 {
		t.Errorf("prefix across words = %d, want 127", got)
	}
}

func TestPrefixRoundEquivalence(t *testing.T) {
	// Two keys share PrefixRound(r) iff their words promoted to r bits match.
	rng := rand.New(rand.NewSource(3))
	const nseg, bitsPer = 16, 8
	for trial := 0; trial < 300; trial++ {
		w1 := randomWord(rng, nseg, bitsPer)
		w2 := randomWord(rng, nseg, bitsPer)
		k1, k2 := Interleave(w1), Interleave(w2)
		for r := 0; r <= bitsPer; r++ {
			same := k1.PrefixRound(r, nseg) == k2.PrefixRound(r, nseg)
			var wordsSame bool
			if r == 0 {
				wordsSame = true
			} else {
				p1, p2 := w1.Promote(r), w2.Promote(r)
				wordsSame = true
				for i := range p1.Symbols {
					if p1.Symbols[i] != p2.Symbols[i] {
						wordsSame = false
						break
					}
				}
			}
			if same != wordsSame {
				t.Fatalf("trial %d round %d: prefix-equal=%v but words-equal=%v", trial, r, same, wordsSame)
			}
		}
	}
}

func TestTruncateEdges(t *testing.T) {
	k := Key{Hi: ^uint64(0), Lo: ^uint64(0)}
	if got := k.truncate(0); !got.IsZero() {
		t.Error("truncate(0) should be zero")
	}
	if got := k.truncate(128); got != k {
		t.Error("truncate(128) should be identity")
	}
	if got := k.truncate(64); got.Hi != ^uint64(0) || got.Lo != 0 {
		t.Errorf("truncate(64) = %v", got)
	}
	if got := k.truncate(65); got.Lo != 1<<63 {
		t.Errorf("truncate(65).Lo = %x, want %x", got.Lo, uint64(1)<<63)
	}
}

func TestBinaryEncodingPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		a := Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
		b := Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
		ab := a.AppendBinary(nil)
		bb := b.AppendBinary(nil)
		if got, want := bytes.Compare(ab, bb), a.Compare(b); got != want {
			t.Fatalf("bytes.Compare = %d, key Compare = %d", got, want)
		}
		if DecodeKey(ab) != a {
			t.Fatal("binary roundtrip failed")
		}
	}
}

// The headline property: similar series (small Euclidean distance) tend to
// share long key prefixes; moreover identical series produce identical keys.
func TestSimilarSeriesNearbyKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, nseg, bitsPer = 256, 16, 8
	base := randomWalk(rng, n).ZNormalize()
	kBase := FromSeries(base, nseg, bitsPer)
	if kBase != FromSeries(base, nseg, bitsPer) {
		t.Fatal("same series must give same key")
	}
	// Perturb slightly: prefix should mostly survive; a random other walk
	// should share a shorter prefix on average.
	similarPrefix, randomPrefix := 0, 0
	const trials = 100
	for i := 0; i < trials; i++ {
		pert := base.Clone()
		for j := range pert {
			pert[j] += rng.NormFloat64() * 0.01
		}
		similarPrefix += kBase.CommonPrefixLen(FromSeries(series.Series(pert).ZNormalize(), nseg, bitsPer))
		randomPrefix += kBase.CommonPrefixLen(FromSeries(randomWalk(rng, n).ZNormalize(), nseg, bitsPer))
	}
	if similarPrefix <= randomPrefix {
		t.Errorf("similar series share prefix %d, random %d; expected similar > random",
			similarPrefix/trials, randomPrefix/trials)
	}
}

func TestPropertyInterleaveRoundTrip(t *testing.T) {
	f := func(raw [16]uint8) bool {
		w := sax.Word{Symbols: raw[:], Bits: 8}
		got := Deinterleave(Interleave(w), 16, 8)
		for i := range raw {
			if got.Symbols[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareConsistent(t *testing.T) {
	f := func(h1, l1, h2, l2 uint64) bool {
		a, b := Key{h1, l1}, Key{h2, l2}
		c := a.Compare(b)
		return c == -b.Compare(a) && (c != 0 || a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomWord(rng *rand.Rand, nseg, bitsPer int) sax.Word {
	syms := make([]uint8, nseg)
	for i := range syms {
		syms[i] = uint8(rng.Intn(1 << bitsPer))
	}
	return sax.Word{Symbols: syms, Bits: bitsPer}
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
