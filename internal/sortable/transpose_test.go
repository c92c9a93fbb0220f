package sortable

import (
	"math/rand"
	"testing"

	"repro/internal/sax"
)

// The bit-serial interleave and de-interleave below are the definition of
// the key layout, one bit per step: bit position r*nseg+s from the top of
// the key is bit bitsPer-1-r of segment s. They are the oracle the
// word-parallel transpose in key.go is held to.

func (k *Key) setBit(pos int) {
	if pos < 64 {
		k.Hi |= 1 << uint(63-pos)
	} else {
		k.Lo |= 1 << uint(127-pos)
	}
}

func (k Key) bit(pos int) bool {
	if pos < 64 {
		return k.Hi&(1<<uint(63-pos)) != 0
	}
	return k.Lo&(1<<uint(127-pos)) != 0
}

func interleaveSerial(syms []uint8, bitsPer int) Key {
	var k Key
	pos := 0
	for r := 0; r < bitsPer; r++ {
		src := uint(bitsPer - 1 - r)
		for s := range syms {
			if syms[s]>>src&1 != 0 {
				k.setBit(pos)
			}
			pos++
		}
	}
	return k
}

func symbolsSerial(k Key, nseg, bitsPer int) (syms [MaxSegments]uint8) {
	pos := 0
	for r := 0; r < bitsPer; r++ {
		dst := uint(bitsPer - 1 - r)
		for s := 0; s < nseg; s++ {
			if k.bit(pos) {
				syms[s] |= 1 << dst
			}
			pos++
		}
	}
	return syms
}

// checkKey holds the transpose to the oracle on one key under one shape:
// Symbols decodes what the bit-serial loop decodes (whatever sits below the
// shape's nseg*bitsPer bits is ignored, slots beyond nseg are zero), and
// encoding the symbols again restores the bits the shape covers.
func checkKey(t *testing.T, k Key, nseg, bitsPer int) {
	t.Helper()
	want := symbolsSerial(k, nseg, bitsPer)
	got := Symbols(k, nseg, bitsPer)
	if got != want {
		t.Fatalf("%dx%d key %v: Symbols %v, bit-serial %v", nseg, bitsPer, k, got, want)
	}
	w := Deinterleave(k, nseg, bitsPer)
	if len(w.Symbols) != nseg || w.Bits != bitsPer || string(w.Symbols) != string(want[:nseg]) {
		t.Fatalf("%dx%d key %v: Deinterleave %v, bit-serial %v", nseg, bitsPer, k, w, want[:nseg])
	}
	back := Interleave(w)
	if back != k.truncate(nseg*bitsPer) {
		t.Fatalf("%dx%d key %v: re-encoded to %v, want %v", nseg, bitsPer, k, back, k.truncate(nseg*bitsPer))
	}
	if serial := interleaveSerial(w.Symbols, bitsPer); back != serial {
		t.Fatalf("%dx%d word %v: Interleave %v, bit-serial %v", nseg, bitsPer, w, back, serial)
	}
}

// forEachShape visits every summarization shape an index can be configured
// with: 1..MaxSegments segments of 1..sax.MaxBits bits.
func forEachShape(fn func(nseg, bitsPer int)) {
	for nseg := 1; nseg <= MaxSegments; nseg++ {
		for bitsPer := 1; bitsPer <= sax.MaxBits; bitsPer++ {
			fn(nseg, bitsPer)
		}
	}
}

func TestTransposeMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ones := ^uint64(0)
	forEachShape(func(nseg, bitsPer int) {
		checkKey(t, Key{}, nseg, bitsPer)
		checkKey(t, Key{Hi: ones, Lo: ones}, nseg, bitsPer)
		for pos := 0; pos < 128; pos++ {
			var k Key
			k.setBit(pos)
			checkKey(t, k, nseg, bitsPer)
			checkKey(t, Key{Hi: ^k.Hi, Lo: ^k.Lo}, nseg, bitsPer)
		}
		for trial := 0; trial < 200; trial++ {
			checkKey(t, Key{Hi: rng.Uint64(), Lo: rng.Uint64()}, nseg, bitsPer)
		}
	})
}

func TestInterleaveMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	forEachShape(func(nseg, bitsPer int) {
		for trial := 0; trial < 200; trial++ {
			w := randomWord(rng, nseg, bitsPer)
			if trial%4 == 0 {
				// Bits of a symbol above its cardinality never reach the key.
				for i := range w.Symbols {
					w.Symbols[i] |= uint8(rng.Intn(256)) << uint(bitsPer)
				}
			}
			k := Interleave(w)
			if want := interleaveSerial(w.Symbols, bitsPer); k != want {
				t.Fatalf("%dx%d word %v: Interleave %v, bit-serial %v", nseg, bitsPer, w, k, want)
			}
			got := Symbols(k, nseg, bitsPer)
			for i, sym := range w.Symbols {
				if got[i] != sym&(1<<uint(bitsPer)-1) {
					t.Fatalf("%dx%d word %v: round trip %v", nseg, bitsPer, w, got)
				}
			}
		}
	})
}

// compareZ orders two words of one shape in z-order, stated without keys:
// most significant bits first, and within one bit significance by segment.
func compareZ(a, b sax.Word) int {
	for r := a.Bits - 1; r >= 0; r-- {
		for s := range a.Symbols {
			ab, bb := a.Symbols[s]>>uint(r)&1, b.Symbols[s]>>uint(r)&1
			if ab != bb {
				return int(ab) - int(bb)
			}
		}
	}
	return 0
}

func TestKeyOrderIsZOrderEveryShape(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	forEachShape(func(nseg, bitsPer int) {
		for trial := 0; trial < 200; trial++ {
			a := randomWord(rng, nseg, bitsPer)
			b := randomWord(rng, nseg, bitsPer)
			if trial%2 == 0 {
				// Agree on a random number of leading rounds, so the
				// deciding bit falls anywhere in the key.
				keep := uint(rng.Intn(bitsPer + 1))
				for i := range b.Symbols {
					low := uint8(1)<<(uint(bitsPer)-keep) - 1
					b.Symbols[i] = a.Symbols[i]&^low | b.Symbols[i]&low
				}
			}
			if got, want := Interleave(a).Compare(Interleave(b)), compareZ(a, b); got != want {
				t.Fatalf("%dx%d: keys of %v and %v compare %d, z-order %d", nseg, bitsPer, a, b, got, want)
			}
		}
	})
}

func TestShapeBeyondKeyPanics(t *testing.T) {
	for _, sh := range [][2]int{{MaxSegments + 1, 1}, {1, sax.MaxBits + 1}, {32, 4}, {-1, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Symbols(%d segments, %d bits) did not panic", sh[0], sh[1])
				}
			}()
			Symbols(Key{}, sh[0], sh[1])
		}()
	}
}

// TestSymbolsDoesNotAllocate pins what the hot paths rely on: decoding a
// key costs no heap allocation.
func TestSymbolsDoesNotAllocate(t *testing.T) {
	k := Key{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	var sink uint8
	allocs := testing.AllocsPerRun(1000, func() {
		syms := Symbols(k, 16, 8)
		sink += syms[3]
	})
	if allocs != 0 {
		t.Fatalf("Symbols allocated %v times per run, want 0", allocs)
	}
}

// FuzzKeySymbols runs checkKey on arbitrary keys under arbitrary legal
// shapes. The committed corpus (testdata/fuzz/FuzzKeySymbols) holds the
// shapes whose rounds straddle the Hi/Lo boundary and the byte-lane
// boundary at segment 8.
func FuzzKeySymbols(f *testing.F) {
	f.Fuzz(func(t *testing.T, hi, lo uint64, nseg, bitsPer uint8) {
		checkKey(t, Key{Hi: hi, Lo: lo}, 1+int(nseg)%MaxSegments, 1+int(bitsPer)%sax.MaxBits)
	})
}
