package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/series"
)

func testConfig() Config {
	return Config{SeriesLen: 128, Segments: 16, Bits: 8}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SeriesLen: 0, Segments: 8, Bits: 8},
		{SeriesLen: 128, Segments: 0, Bits: 8},
		{SeriesLen: 128, Segments: 17, Bits: 8},
		{SeriesLen: 128, Segments: 8, Bits: 0},
		{SeriesLen: 128, Segments: 8, Bits: 9},
		{SeriesLen: 4, Segments: 8, Bits: 8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestConfigCodec(t *testing.T) {
	c := Config{SeriesLen: 64, Segments: 8, Bits: 4, Materialized: true}
	codec := c.Codec()
	if !codec.Materialized || codec.SeriesLen != 64 {
		t.Fatal("codec config mismatch")
	}
}

func TestSummarizeDeterministic(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(1))
	s := gen.RandomWalk(rng, cfg.SeriesLen)
	k1, z1 := cfg.Summarize(s)
	k2, z2 := cfg.Summarize(s)
	if k1 != k2 {
		t.Fatal("summarize not deterministic")
	}
	if math.Abs(z1.Mean()) > 1e-9 || math.Abs(z2.Std()-1) > 1e-9 {
		t.Fatal("summarize must z-normalize")
	}
}

func TestNewQueryMatchesSummarize(t *testing.T) {
	cfg := testConfig()
	s := gen.RandomWalk(rand.New(rand.NewSource(2)), cfg.SeriesLen)
	q := NewQuery(s, cfg)
	k, _ := cfg.Summarize(s)
	if q.Key != k {
		t.Fatal("query key differs from summarize key")
	}
	if len(q.PAA) != cfg.Segments {
		t.Fatalf("PAA segments = %d", len(q.PAA))
	}
}

func TestMinDistKeyLowerBounds(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a := gen.RandomWalk(rng, cfg.SeriesLen)
		b := gen.RandomWalk(rng, cfg.SeriesLen)
		q := NewQuery(a, cfg)
		kb, zb := cfg.Summarize(b)
		trueDist := math.Sqrt(q.Norm.SqDist(zb))
		ctx := AcquireCtx(q, cfg)
		lb := math.Sqrt(ctx.P.MinDistSqKey(kb))
		ctx.Release()
		if lb > trueDist+1e-9 {
			t.Fatalf("trial %d: lower bound %v > true %v", trial, lb, trueDist)
		}
	}
}

func TestQueryWindow(t *testing.T) {
	q := Query{}
	if !q.InWindow(-100) || !q.InWindow(1<<40) {
		t.Fatal("unwindowed query must accept any TS")
	}
	w := q.WithWindow(10, 20)
	if w.InWindow(9) || !w.InWindow(10) || !w.InWindow(20) || w.InWindow(21) {
		t.Fatal("window bounds wrong")
	}
	if q.Windowed {
		t.Fatal("WithWindow must not mutate the original")
	}
}

func TestCollectorBasics(t *testing.T) {
	c := NewCollector(3)
	if c.Full() {
		t.Fatal("empty collector reported full")
	}
	if !math.IsInf(c.WorstSq(), 1) {
		t.Fatal("unfilled collector WorstSq must be +Inf")
	}
	for i, d := range []float64{5, 3, 8, 1, 9, 2} {
		c.Add(Result{ID: int64(i), Dist: d})
	}
	res := c.Results()
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	want := []float64{1, 2, 3}
	for i, r := range res {
		if r.Dist != want[i] {
			t.Fatalf("results = %v", res)
		}
	}
	if c.WorstSq() != 9 {
		t.Fatalf("WorstSq = %v, want 9", c.WorstSq())
	}
}

func TestCollectorDeduplicates(t *testing.T) {
	c := NewCollector(5)
	c.Add(Result{ID: 1, Dist: 2})
	if c.Add(Result{ID: 1, Dist: 1}) {
		t.Fatal("duplicate ID accepted")
	}
	if len(c.Results()) != 1 {
		t.Fatal("duplicate stored")
	}
}

func TestCollectorEvictionMaintainsSeen(t *testing.T) {
	c := NewCollector(2)
	c.Add(Result{ID: 1, Dist: 10})
	c.Add(Result{ID: 2, Dist: 20})
	// Evict ID 2 (worst) with a better one.
	if !c.Add(Result{ID: 3, Dist: 5}) {
		t.Fatal("better candidate rejected")
	}
	// ID 2 was evicted, so it may be re-offered.
	if !c.Add(Result{ID: 2, Dist: 1}) {
		t.Fatal("evicted ID should be re-admissible")
	}
	res := c.Results()
	if res[0].ID != 2 || res[1].ID != 3 {
		t.Fatalf("results = %v", res)
	}
}

func TestCollectorKOne(t *testing.T) {
	c := NewCollector(0) // clamps to 1
	c.Add(Result{ID: 1, Dist: 5})
	c.Add(Result{ID: 2, Dist: 3})
	res := c.Results()
	if len(res) != 1 || res[0].ID != 2 {
		t.Fatalf("results = %v", res)
	}
}

func TestCollectorMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		c := NewCollector(k)
		all := make([]Result, n)
		for i := range all {
			all[i] = Result{ID: int64(i), Dist: rng.Float64() * 100}
			c.Add(all[i])
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
		want := all[:min(k, n)]
		got := c.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d: result %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTrueDistMaterialized(t *testing.T) {
	cfg := Config{SeriesLen: 8, Segments: 4, Bits: 2, Materialized: true}
	s := series.Series{1, 2, 3, 4, 5, 6, 7, 8}
	q := NewQuery(s, cfg)
	_, z := cfg.Summarize(s)
	e := record.Entry{ID: 0, Payload: z}
	d, err := TrueDistSq(q, e, nil, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestTrueDistNonMaterializedNeedsRaw(t *testing.T) {
	cfg := Config{SeriesLen: 8, Segments: 4, Bits: 2}
	q := NewQuery(series.Series{1, 2, 3, 4, 5, 6, 7, 8}, cfg)
	if _, err := TrueDistSq(q, record.Entry{ID: 0}, nil, math.Inf(1), nil); err == nil {
		t.Fatal("expected error without raw store")
	}
	// With a raw store holding z-normalized series.
	ds := series.NewDataset(8)
	_, z := cfg.Summarize(series.Series{1, 2, 3, 4, 5, 6, 7, 8})
	ds.Append(z)
	d, err := TrueDistSq(q, record.Entry{ID: 0}, ds, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestPropertyCollectorNeverExceedsK(t *testing.T) {
	f := func(dists []float64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		c := NewCollector(k)
		for i, d := range dists {
			if math.IsNaN(d) {
				continue
			}
			c.Add(Result{ID: int64(i), Dist: math.Abs(d)})
		}
		res := c.Results()
		if len(res) > k {
			return false
		}
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
