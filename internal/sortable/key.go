// Package sortable implements Coconut's core contribution: sortable data
// series summarizations. An iSAX word is turned into a single integer key by
// interleaving the bits of all segments round-robin, most-significant bits
// first (a z-order / Morton encoding over iSAX symbol space). Sorting these
// keys keeps series that are similar across *all* segments adjacent, which
// is what lets external sorting, B-trees, and LSM-trees organize data series
// indexes with sequential I/O.
package sortable

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/sax"
	"repro/internal/series"
)

// Key is a 128-bit sortable summarization, compared big-endian (Hi first).
// It holds w*bits interleaved bits left-aligned: the first interleaving
// round (the most significant bit of every segment) occupies the top w bits.
type Key struct {
	Hi, Lo uint64
}

// KeyBytes is the serialized size of a Key.
const KeyBytes = 16

// MaxSegments is the largest segment count for which a full 8-bit-cardinality
// word still fits into 128 bits.
const MaxSegments = 16

// The key <-> symbols conversion is a bit-matrix transpose: the key holds
// bitsPer rows (interleaving rounds) of nseg bits, the word holds nseg
// symbols of bitsPer bits. Both directions below move one whole round per
// step, word-parallel, with the symbols held as byte lanes of two uint64s
// (lane j of the first is segment j, of the second segment 8+j) and the
// round held as bytes whose bit 7-j belongs to lane j. One multiply by
// laneSpread converts between the two forms without a carry: every partial
// product lands on a distinct bit.
const (
	laneSpread = 0x8040201008040201
	laneMSB    = 0x8080808080808080
	laneLSB    = 0x0101010101010101
)

// checkShape panics unless the shape is one a key can hold: 1..MaxSegments
// segments of 1..sax.MaxBits bits. The shift counts below are masked to
// the ranges it establishes, which keeps them single instructions.
func checkShape(nseg, bitsPer int) {
	if uint(nseg-1) >= MaxSegments || uint(bitsPer-1) >= sax.MaxBits {
		panicShape(nseg, bitsPer)
	}
}

func panicShape(nseg, bitsPer int) {
	panic(fmt.Sprintf("sortable: %d segments x %d bits is outside 1..%d x 1..%d (128 bits)",
		nseg, bitsPer, MaxSegments, sax.MaxBits))
}

// Interleave encodes an iSAX word into a sortable key. The word has 1 to
// MaxSegments symbols of 1 to sax.MaxBits bits (at most 128 bits in all).
// Bits are laid out round-robin: round r (r=0 is each symbol's MSB)
// contributes len(Symbols) bits, ordered by segment.
func Interleave(w sax.Word) Key {
	nseg, bitsPer := len(w.Symbols), w.Bits
	checkShape(nseg, bitsPer)
	var syms [MaxSegments]uint8
	copy(syms[:], w.Symbols)
	a := binary.LittleEndian.Uint64(syms[:8])
	b := binary.LittleEndian.Uint64(syms[8:])
	n := uint(nseg) & 31
	var hi, lo uint64
	for r := bitsPer - 1; r >= 0; r-- {
		// Bit r of every lane, gathered into the top byte: the round's
		// nseg bits, left-aligned in 16. They enter the key from below.
		sh := uint(r) & 7
		round := ((a>>sh&laneLSB)*laneSpread>>56)<<8 | (b>>sh&laneLSB)*laneSpread>>56
		hi, lo = hi<<n|lo>>((64-n)&63), lo<<n|round>>((16-n)&15)
	}
	return Key{Hi: hi, Lo: lo}.shiftLeft(uint(128 - nseg*bitsPer))
}

// Symbols inverts Interleave without allocating: it returns the nseg
// symbols of bitsPer bits each that k interleaves, one per array slot;
// slots at and beyond nseg are zero.
func Symbols(k Key, nseg, bitsPer int) (syms [MaxSegments]uint8) {
	checkShape(nseg, bitsPer)
	n := uint(nseg) & 31
	hi, lo := k.Hi, k.Lo
	var a, b uint64
	for r := 0; r < bitsPer; r++ {
		// The round is the key's top nseg bits. Each of its bytes spreads
		// to the MSB of its lanes and enters the symbols from below. Lanes
		// at and beyond nseg pick up the next round's bits; they are
		// masked off after the loop.
		a = a<<1 | ((hi>>56)*laneSpread&laneMSB)>>7
		if nseg > 8 {
			b = b<<1 | ((hi>>48&0xFF)*laneSpread&laneMSB)>>7
		}
		hi, lo = hi<<n|lo>>((64-n)&63), lo<<n
	}
	// Keep lanes 0..nseg-1. A shift by 64 gives 0, so at nseg = 16 the
	// second mask is all ones, and at nseg = 8 it is empty.
	if nseg < 8 {
		a &= 1<<(8*n) - 1
	} else {
		b &= 1<<(8*n-64) - 1
	}
	binary.LittleEndian.PutUint64(syms[:8], a)
	binary.LittleEndian.PutUint64(syms[8:], b)
	return syms
}

// shiftLeft returns k shifted left by n bits, 0 <= n < 128.
func (k Key) shiftLeft(n uint) Key {
	if n >= 64 {
		return Key{Hi: k.Lo << (n - 64)}
	}
	return Key{Hi: k.Hi<<n | k.Lo>>(64-n), Lo: k.Lo << n}
}

// Deinterleave inverts Interleave, recovering the iSAX word given the
// segment count and cardinality bits it was encoded with. It allocates the
// word; hot paths use Symbols.
func Deinterleave(k Key, nseg, bitsPer int) sax.Word {
	syms := Symbols(k, nseg, bitsPer)
	w := sax.Word{Symbols: make([]uint8, nseg), Bits: bitsPer}
	copy(w.Symbols, syms[:])
	return w
}

// FromSeries is a convenience: summarize a (z-normalized) series with w
// segments at bits cardinality bits and interleave in one step.
func FromSeries(s series.Series, w, bitsPer int) Key {
	return Interleave(sax.FromSeries(s, w, bitsPer))
}

// Compare returns -1, 0, or +1 comparing k and o as 128-bit big-endian
// unsigned integers.
func (k Key) Compare(o Key) int {
	switch {
	case k.Hi < o.Hi:
		return -1
	case k.Hi > o.Hi:
		return 1
	case k.Lo < o.Lo:
		return -1
	case k.Lo > o.Lo:
		return 1
	}
	return 0
}

// Less reports whether k sorts before o.
func (k Key) Less(o Key) bool { return k.Compare(o) < 0 }

// IsZero reports whether k is the all-zero key.
func (k Key) IsZero() bool { return k.Hi == 0 && k.Lo == 0 }

// CommonPrefixLen returns the number of leading bits shared by k and o
// (0..128). Keys sharing longer prefixes agree on more interleaving rounds,
// i.e. on coarser iSAX representations of more significance.
func (k Key) CommonPrefixLen(o Key) int {
	if k.Hi != o.Hi {
		return bits.LeadingZeros64(k.Hi ^ o.Hi)
	}
	if k.Lo != o.Lo {
		return 64 + bits.LeadingZeros64(k.Lo^o.Lo)
	}
	return 128
}

// PrefixRound truncates the key after the first `rounds` interleaving rounds
// for nseg segments, zeroing everything below: the coarsened z-order cell
// lower bound. Two keys with equal PrefixRound(r) have identical iSAX words
// at cardinality 2^r.
func (k Key) PrefixRound(rounds, nseg int) Key {
	keep := rounds * nseg
	return k.truncate(keep)
}

func (k Key) truncate(keep int) Key {
	if keep <= 0 {
		return Key{}
	}
	if keep >= 128 {
		return k
	}
	var out Key
	if keep <= 64 {
		out.Hi = k.Hi &^ (^uint64(0) >> uint(keep))
	} else {
		out.Hi = k.Hi
		out.Lo = k.Lo &^ (^uint64(0) >> uint(keep-64))
	}
	return out
}

// AppendBinary appends the 16-byte big-endian encoding of k to buf; the
// encoding preserves order under bytes.Compare.
func (k Key) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, k.Hi)
	buf = binary.BigEndian.AppendUint64(buf, k.Lo)
	return buf
}

// DecodeKey decodes a key from the first 16 bytes of buf.
func DecodeKey(buf []byte) Key {
	return Key{
		Hi: binary.BigEndian.Uint64(buf),
		Lo: binary.BigEndian.Uint64(buf[8:]),
	}
}

// String renders the key as 32 hex digits.
func (k Key) String() string { return fmt.Sprintf("%016x%016x", k.Hi, k.Lo) }
