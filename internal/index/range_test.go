package index

import (
	"math"
	"math/rand"
	"testing"
)

func TestRangeCollectorBasics(t *testing.T) {
	c := NewRangeCollector(5.0)
	if c.Bound() != 5.0 {
		t.Fatalf("bound = %v", c.Bound())
	}
	if !c.Add(Result{ID: 1, Dist: 4.9}) {
		t.Fatal("in-range candidate rejected")
	}
	if c.Add(Result{ID: 2, Dist: 5.1}) {
		t.Fatal("out-of-range candidate accepted")
	}
	if c.Add(Result{ID: 1, Dist: 1.0}) {
		t.Fatal("duplicate accepted")
	}
	if !c.Add(Result{ID: 3, Dist: 5.0}) {
		t.Fatal("boundary candidate (== eps) rejected")
	}
	c.Add(Result{ID: 4, Dist: 0.5})
	res := c.Results()
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
	if res[0].ID != 4 {
		t.Fatalf("closest = %+v", res[0])
	}
}

func TestRangeCollectorEmpty(t *testing.T) {
	c := NewRangeCollector(0)
	if got := c.Results(); len(got) != 0 {
		t.Fatalf("results = %v", got)
	}
	if math.IsNaN(c.Bound()) {
		t.Fatal("bound NaN")
	}
}

// Bound returns a range collector's limit as a true distance: the largest
// distance it accepts.
func (c *Collector) Bound() float64 { return math.Sqrt(c.limit) }

// TestRangeLimitMatchesSqrt holds a range collector's squared limit to the
// true-distance test it stands for: SkipSq(x) and AddSq membership decide
// math.Sqrt(x) > eps for x at fl(eps²) and 1–2 ulps either side, across
// binades (eps² overflowing and underflowing included), at eps 0, +Inf and
// NaN, and for x NaN, negative, zero and +Inf. Each then yields every
// member once.
func TestRangeLimitMatchesSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	epss := []float64{0, math.Inf(1), math.NaN(), 5, 1, 0.1, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Sqrt(math.MaxFloat64), 1e-160, 1e-200}
	for i := 0; i < 3000; i++ {
		epss = append(epss, math.Ldexp(1+rng.Float64(), rng.Intn(2100)-1070))
	}
	up, down := math.Inf(1), math.Inf(-1)
	for _, eps := range epss {
		sq := eps * eps
		xs := []float64{sq, math.NaN(), -1, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -sq}
		for x, n := sq, 0; n < 2; n++ {
			x = math.Nextafter(x, up)
			xs = append(xs, x)
		}
		for x, n := sq, 0; n < 2; n++ {
			x = math.Nextafter(x, down)
			xs = append(xs, x)
		}
		c := NewRangeCollector(eps)
		members := map[int64]bool{}
		for id, x := range xs {
			out := math.Sqrt(x) > eps
			if c.SkipSq(x) != out {
				t.Fatalf("eps %v x %v: SkipSq %v, sqrt(x) > eps %v", eps, x, c.SkipSq(x), out)
			}
			if c.AddSq(int64(id), 0, x) == out {
				t.Fatalf("eps %v x %v: AddSq admitted %v, sqrt(x) > eps %v", eps, x, !out, out)
			}
			if !out {
				members[int64(id)] = true
			}
		}
		seen := map[int64]int{}
		c.Each(func(id, _ int64, _ float64) { seen[id]++ })
		for id, n := range seen {
			if n != 1 || !members[id] {
				t.Fatalf("eps %v: Each yielded %d %d times (member %v)", eps, id, n, members[id])
			}
		}
		if len(seen) != len(members) {
			t.Fatalf("eps %v: Each yielded %d of %d members", eps, len(seen), len(members))
		}
	}
	// A negative eps admits no distance a search can produce.
	c := NewRangeCollector(-1)
	for _, x := range []float64{0, math.SmallestNonzeroFloat64, 1, math.Inf(1), math.NaN()} {
		if out := math.Sqrt(x) > -1; c.SkipSq(x) != out {
			t.Fatalf("eps -1 x %v: SkipSq %v, sqrt(x) > eps %v", x, c.SkipSq(x), out)
		}
	}
}
