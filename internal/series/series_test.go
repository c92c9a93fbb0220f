package series

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStd(t *testing.T) {
	s := Series{1, 2, 3, 4, 5}
	if got := s.Mean(); !almostEq(got, 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Std(); !almostEq(got, math.Sqrt(2), 1e-12) {
		t.Errorf("Std = %v, want sqrt(2)", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Std() != 0 {
		t.Errorf("empty series mean/std should be 0")
	}
}

func TestZNormalize(t *testing.T) {
	s := Series{10, 20, 30, 40}
	z := s.ZNormalize()
	if !almostEq(z.Mean(), 0, 1e-9) {
		t.Errorf("znorm mean = %v, want 0", z.Mean())
	}
	if !almostEq(z.Std(), 1, 1e-9) {
		t.Errorf("znorm std = %v, want 1", z.Std())
	}
}

func TestZNormalizeConstant(t *testing.T) {
	s := Series{7, 7, 7, 7}
	z := s.ZNormalize()
	for i, v := range z {
		if v != 0 {
			t.Fatalf("constant series znorm[%d] = %v, want 0", i, v)
		}
	}
}

func TestZNormalizeDoesNotMutate(t *testing.T) {
	s := Series{1, 2, 3}
	_ = s.ZNormalize()
	if s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Fatal("ZNormalize mutated its receiver")
	}
}

func TestDist(t *testing.T) {
	a := Series{0, 0, 0}
	b := Series{1, 2, 2}
	d, err := a.Dist(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, 3, 1e-12) {
		t.Errorf("Dist = %v, want 3", d)
	}
}

func TestDistLengthMismatch(t *testing.T) {
	a := Series{1}
	b := Series{1, 2}
	if _, err := a.Dist(b); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestSqDistEarlyAbandon(t *testing.T) {
	a := make(Series, 100)
	b := make(Series, 100)
	for i := range b {
		b[i] = 10
	}
	got := a.SqDistEarlyAbandon(b, 50)
	if got <= 50 {
		t.Errorf("early abandon should return value > limit, got %v", got)
	}
	full := a.SqDist(b)
	if got > full {
		t.Errorf("abandoned value %v exceeds full distance %v", got, full)
	}
}

func TestSqDistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Series{1}.SqDist(Series{1, 2})
}

func TestBinaryRoundTrip(t *testing.T) {
	s := Series{1.5, -2.25, math.Pi, 0, math.Inf(1)}
	buf := s.AppendBinary(nil)
	if len(buf) != Size(len(s)) {
		t.Fatalf("encoded size %d, want %d", len(buf), Size(len(s)))
	}
	got, err := DecodeBinary(buf, len(s))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if got[i] != s[i] {
			t.Errorf("roundtrip[%d] = %v, want %v", i, got[i], s[i])
		}
	}
}

func TestDecodeBinaryShort(t *testing.T) {
	if _, err := DecodeBinary(make([]byte, 7), 1); err == nil {
		t.Fatal("expected short-buffer error")
	}
}

func TestDatasetAppendGet(t *testing.T) {
	d := NewDataset(3)
	id, err := d.Append(Series{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Errorf("first id = %d, want 0", id)
	}
	s, err := d.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if s[1] != 2 {
		t.Errorf("Get(0)[1] = %v, want 2", s[1])
	}
	if _, err := d.Get(5); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := d.Get(-1); err == nil {
		t.Error("expected out-of-range error for negative id")
	}
	if _, err := d.Append(Series{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestPropertyZNormStats(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) < 2 {
			return true
		}
		s := Series(vals)
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological inputs
			}
		}
		if s.Std() < 1e-9 {
			return true
		}
		z := s.ZNormalize()
		return almostEq(z.Mean(), 0, 1e-6) && almostEq(z.Std(), 1, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistSymmetricNonNegative(t *testing.T) {
	f := func(a, b [8]float64) bool {
		sa, sb := Series(a[:]), Series(b[:])
		for i := 0; i < 8; i++ {
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) || math.IsInf(a[i], 0) || math.IsInf(b[i], 0) {
				return true
			}
			if math.Abs(a[i]) > 1e100 || math.Abs(b[i]) > 1e100 {
				return true
			}
		}
		dab := sa.SqDist(sb)
		dba := sb.SqDist(sa)
		return dab >= 0 && dab == dba && sa.SqDist(sa) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(vals [16]float64) bool {
		s := Series(vals[:])
		buf := s.AppendBinary(nil)
		got, err := DecodeBinary(buf, 16)
		if err != nil {
			return false
		}
		for i := range s {
			// Compare bit patterns so NaN round-trips count as equal.
			if math.Float64bits(got[i]) != math.Float64bits(s[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
