package sortable

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sax"
)

// Property tests for the interleaved encoding — the invariant the parallel
// merge (external sort, LSM compaction, BTP bounding) relies on: keys are a
// faithful, order-preserving image of iSAX words, so independently sorted
// shards merge into the same global order no matter how the work was split.

// randomWord is shared with key_test.go.

// shapes covers the cardinality/segment combinations that fit 128 bits.
var shapes = []struct{ nseg, bits int }{
	{16, 8}, {16, 4}, {8, 8}, {8, 4}, {4, 8}, {1, 8}, {16, 1}, {12, 6},
}

func TestInterleaveDeinterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, sh := range shapes {
		for trial := 0; trial < 500; trial++ {
			w := randomWord(rng, sh.nseg, sh.bits)
			got := Deinterleave(Interleave(w), sh.nseg, sh.bits)
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%dx%d: round trip %v -> %v", sh.nseg, sh.bits, w, got)
			}
		}
	}
}

func TestInterleaveInjective(t *testing.T) {
	// Distinct words map to distinct keys (follows from the round trip, but
	// cheap to check directly on random pairs).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		a := randomWord(rng, 16, 8)
		b := randomWord(rng, 16, 8)
		if reflect.DeepEqual(a, b) {
			continue
		}
		if Interleave(a) == Interleave(b) {
			t.Fatalf("collision: %v and %v -> %v", a, b, Interleave(a))
		}
	}
}

// dominates reports whether every segment of a is <= the matching segment
// of b.
func dominates(a, b sax.Word) bool {
	for i := range a.Symbols {
		if a.Symbols[i] > b.Symbols[i] {
			return false
		}
	}
	return true
}

func TestInterleaveRespectsSegmentwiseDominance(t *testing.T) {
	// Morton/z-order monotonicity: if word a is <= word b in every segment
	// (and differs somewhere), its key sorts strictly first. This is the
	// sense in which key order agrees with segment-wise dominance — the
	// geometric guarantee that sorting keys keeps series that are similar
	// across all segments adjacent.
	rng := rand.New(rand.NewSource(12))
	for _, sh := range shapes {
		for trial := 0; trial < 1000; trial++ {
			// Construct a dominated pair: a is drawn at or below b in every
			// segment, so a <= b holds by construction.
			b := randomWord(rng, sh.nseg, sh.bits)
			a := sax.Word{Symbols: make([]uint8, sh.nseg), Bits: sh.bits}
			for i, s := range b.Symbols {
				a.Symbols[i] = uint8(rng.Intn(int(s) + 1))
			}
			if !dominates(a, b) {
				t.Fatalf("constructed pair not dominated: %v vs %v", a, b)
			}
			if reflect.DeepEqual(a, b) {
				continue
			}
			if !Interleave(a).Less(Interleave(b)) {
				t.Fatalf("%dx%d: %v dominates %v but key %v !< %v",
					sh.nseg, sh.bits, a, b, Interleave(a), Interleave(b))
			}
		}
	}
}

func TestInterleaveFirstDivergentRoundDecidesOrder(t *testing.T) {
	// The interleaving is round-major (every segment's MSB first), so two
	// keys compare by the first cardinality round at which their words
	// differ: the coarse iSAX representation dominates the order, which is
	// why prefix truncation (PrefixRound) yields valid coarse cells.
	rng := rand.New(rand.NewSource(13))
	const nseg, bits = 16, 8
	for trial := 0; trial < 2000; trial++ {
		a := randomWord(rng, nseg, bits)
		b := randomWord(rng, nseg, bits)
		// Find the first round where the words diverge.
		round := -1
		var aBits, bBits uint64
	scan:
		for r := 0; r < bits; r++ {
			aBits, bBits = 0, 0
			for s := 0; s < nseg; s++ {
				aBits = aBits<<1 | uint64(a.Symbols[s]>>(bits-1-r))&1
				bBits = bBits<<1 | uint64(b.Symbols[s]>>(bits-1-r))&1
			}
			if aBits != bBits {
				round = r
				break scan
			}
		}
		ka, kb := Interleave(a), Interleave(b)
		if round < 0 {
			if ka != kb {
				t.Fatalf("equal words, different keys: %v vs %v", ka, kb)
			}
			continue
		}
		if wantLess := aBits < bBits; ka.Less(kb) != wantLess {
			t.Fatalf("round %d: aBits=%b bBits=%b but Less=%v", round, aBits, bBits, ka.Less(kb))
		}
	}
}

func TestKeyBinaryEncodingPreservesOrder(t *testing.T) {
	// The on-disk big-endian encoding must order exactly like Key.Compare —
	// run files are merged by decoded keys but validated/probed by raw
	// bytes (the page views' fast paths).
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		a := Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
		b := Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
		ab := a.AppendBinary(nil)
		bb := b.AppendBinary(nil)
		if got, want := bytes.Compare(ab, bb), a.Compare(b); got != want {
			t.Fatalf("bytes.Compare=%d, Key.Compare=%d for %v vs %v", got, want, a, b)
		}
		if DecodeKey(ab) != a {
			t.Fatalf("binary round trip: %v -> %v", a, DecodeKey(ab))
		}
	}
}
