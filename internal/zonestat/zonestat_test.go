package zonestat

import (
	"math/rand"
	"testing"

	"repro/internal/sax"
	"repro/internal/sortable"
)

func randWord(rng *rand.Rand, nseg, bits int) sax.Word {
	syms := make([]uint8, nseg)
	for i := range syms {
		syms[i] = uint8(rng.Intn(1 << bits))
	}
	return sax.Word{Symbols: syms, Bits: bits}
}

func TestAddMatchesDeinterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{16, 8}, {8, 4}, {7, 3}, {1, 1}, {16, 1}} {
		nseg, bits := shape[0], shape[1]
		s := New(nseg, bits)
		type bounds struct{ lo, hi uint8 }
		want := make([]bounds, nseg)
		for i := range want {
			want[i] = bounds{lo: 255}
		}
		var minTS, maxTS int64 = 1 << 62, -(1 << 62)
		for n := 0; n < 200; n++ {
			w := randWord(rng, nseg, bits)
			k := sortable.Interleave(w)
			ts := int64(rng.Intn(1000) - 500)
			s.Add(k, ts)
			for i, sym := range w.Symbols {
				if sym < want[i].lo {
					want[i].lo = sym
				}
				if sym > want[i].hi {
					want[i].hi = sym
				}
			}
			if ts < minTS {
				minTS = ts
			}
			if ts > maxTS {
				maxTS = ts
			}
		}
		if s.Count != 200 {
			t.Fatalf("count %d", s.Count)
		}
		if s.MinTS != minTS || s.MaxTS != maxTS {
			t.Fatalf("ts range [%d,%d], want [%d,%d]", s.MinTS, s.MaxTS, minTS, maxTS)
		}
		for i := range want {
			if s.MinSym[i] != want[i].lo || s.MaxSym[i] != want[i].hi {
				t.Fatalf("seg %d envelope [%d,%d], want [%d,%d]", i, s.MinSym[i], s.MaxSym[i], want[i].lo, want[i].hi)
			}
		}
	}
}

// Union widens s to cover o as well. The union of several units' synopses
// is exact — identical to rebuilding from their entries together, which is
// what a merge of runs does — because every recorded statistic is a
// monotone envelope.
func (s *Synopsis) Union(o *Synopsis) {
	if o == nil || o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.MinKey, s.MaxKey = o.MinKey, o.MaxKey
		copy(s.MinSym, o.MinSym)
		copy(s.MaxSym, o.MaxSym)
	} else {
		if o.MinKey.Less(s.MinKey) {
			s.MinKey = o.MinKey
		}
		if s.MaxKey.Less(o.MaxKey) {
			s.MaxKey = o.MaxKey
		}
		for i := 0; i < s.Segments; i++ {
			if o.MinSym[i] < s.MinSym[i] {
				s.MinSym[i] = o.MinSym[i]
			}
			if o.MaxSym[i] > s.MaxSym[i] {
				s.MaxSym[i] = o.MaxSym[i]
			}
		}
	}
	if o.MinTS < s.MinTS {
		s.MinTS = o.MinTS
	}
	if o.MaxTS > s.MaxTS {
		s.MaxTS = o.MaxTS
	}
	s.Count += o.Count
}

// Clone returns a deep copy.
func (s *Synopsis) Clone() *Synopsis {
	if s == nil {
		return nil
	}
	out := *s
	out.MinSym = append([]uint8(nil), s.MinSym...)
	out.MaxSym = append([]uint8(nil), s.MaxSym...)
	return &out
}

func TestUnionEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nseg, bits = 16, 8
	a, b, all := New(nseg, bits), New(nseg, bits), New(nseg, bits)
	for n := 0; n < 100; n++ {
		k := sortable.Interleave(randWord(rng, nseg, bits))
		ts := int64(rng.Intn(1000))
		if n%2 == 0 {
			a.Add(k, ts)
		} else {
			b.Add(k, ts)
		}
		all.Add(k, ts)
	}
	u := a.Clone()
	u.Union(b)
	if u.Count != all.Count || u.MinTS != all.MinTS || u.MaxTS != all.MaxTS ||
		u.MinKey != all.MinKey || u.MaxKey != all.MaxKey {
		t.Fatalf("union scalar fields diverge: %+v vs %+v", u, all)
	}
	for i := 0; i < nseg; i++ {
		if u.MinSym[i] != all.MinSym[i] || u.MaxSym[i] != all.MaxSym[i] {
			t.Fatalf("union envelope diverges at seg %d", i)
		}
	}
	// Union with an empty synopsis is the identity, both ways.
	e := New(nseg, bits)
	u2 := all.Clone()
	u2.Union(e)
	e.Union(all)
	if u2.Count != all.Count || e.Count != all.Count || e.MinKey != all.MinKey {
		t.Fatal("union with empty not identity")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(7, 5)
	for n := 0; n < 50; n++ {
		s.Add(sortable.Interleave(randWord(rng, 7, 5)), int64(n*3-40))
	}
	buf := s.AppendBinary([]byte{0xAA}) // leading garbage the caller owns
	got, n, err := Decode(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if n != s.EncodedSize() || n != len(buf)-1 {
		t.Fatalf("consumed %d, want %d", n, s.EncodedSize())
	}
	if got.Count != s.Count || got.MinTS != s.MinTS || got.MaxTS != s.MaxTS ||
		got.MinKey != s.MinKey || got.MaxKey != s.MaxKey || got.Bits != s.Bits || got.Segments != s.Segments {
		t.Fatalf("round trip diverges: %+v vs %+v", got, s)
	}
	for i := 0; i < s.Segments; i++ {
		if got.MinSym[i] != s.MinSym[i] || got.MaxSym[i] != s.MaxSym[i] {
			t.Fatalf("envelope diverges at seg %d", i)
		}
	}
	if _, _, err := Decode(buf[1 : 1+10]); err == nil {
		t.Fatal("want error on truncated synopsis")
	}
}

func TestWindowIntersect(t *testing.T) {
	s := New(4, 2)
	if s.IntersectsWindow(-1<<62, 1<<62) {
		t.Fatal("empty synopsis must intersect nothing")
	}
	s.Add(sortable.Key{}, 10)
	s.Add(sortable.Key{Hi: 1}, 20)
	for _, tc := range []struct {
		lo, hi int64
		want   bool
	}{{0, 9, false}, {0, 10, true}, {15, 15, true}, {20, 30, true}, {21, 30, false}} {
		if got := s.IntersectsWindow(tc.lo, tc.hi); got != tc.want {
			t.Fatalf("IntersectsWindow(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}
