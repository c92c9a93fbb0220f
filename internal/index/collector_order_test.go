package index

import (
	"math/rand"
	"reflect"
	"testing"
)

// The parallel query engine's determinism guarantee rests on the collector
// being a pure function of the candidate set: these tests feed identical
// candidates in shuffled orders and through arbitrary merge topologies and
// demand identical output, including with distance ties at the k boundary.

func randomResults(rng *rand.Rand, n int, distinctDists int) []Result {
	out := make([]Result, n)
	for i := range out {
		out[i] = Result{
			ID: int64(i),
			TS: int64(rng.Intn(100)),
			// Few distinct distances force ties at the k boundary.
			Dist: float64(rng.Intn(distinctDists)),
		}
	}
	return out
}

func TestCollectorOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		results := randomResults(rng, 40, 5)
		k := 1 + rng.Intn(10)
		base := NewCollector(k)
		for _, r := range results {
			base.Add(r)
		}
		want := base.Results()
		for perm := 0; perm < 10; perm++ {
			shuffled := append([]Result(nil), results...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			col := NewCollector(k)
			for _, r := range shuffled {
				col.Add(r)
			}
			if got := col.Results(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d perm %d: order-dependent results\ngot  %v\nwant %v", trial, perm, got, want)
			}
		}
	}
}

func TestCollectorMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		results := randomResults(rng, 60, 4)
		k := 1 + rng.Intn(8)
		serial := NewCollector(k)
		for _, r := range results {
			serial.Add(r)
		}
		// Split candidates into random shards, collect independently, merge.
		shards := 1 + rng.Intn(5)
		cols := make([]*Collector, shards)
		for i := range cols {
			cols[i] = NewCollector(k)
		}
		for _, r := range results {
			cols[rng.Intn(shards)].Add(r)
		}
		merged := NewCollector(k)
		for _, i := range rng.Perm(shards) { // merge order must not matter
			merged.Merge(cols[i])
		}
		if got, want := merged.Results(), serial.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged != serial\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

func TestCollectorSeededCloneMergeMatchesSerial(t *testing.T) {
	// The engine seeds worker collectors with the approximate phase's
	// results; duplicates must not distort the merged answer.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		results := randomResults(rng, 50, 6)
		k := 1 + rng.Intn(6)
		seedCount := rng.Intn(len(results))
		serial := NewCollector(k)
		for _, r := range results {
			serial.Add(r)
		}
		seed := NewCollector(k)
		for _, r := range results[:seedCount] {
			seed.Add(r)
		}
		a, b := seed.Clone(), seed.Clone()
		for i, r := range results {
			if i%2 == 0 {
				a.Add(r)
			} else {
				b.Add(r)
			}
		}
		final := seed
		final.Merge(a)
		final.Merge(b)
		if got, want := final.Results(), serial.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: seeded clone merge != serial\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

func TestCollectorSkipIsStrict(t *testing.T) {
	col := NewCollector(2)
	col.Add(Result{ID: 1, Dist: 1})
	if col.SkipSq(25) {
		t.Fatal("SkipSq before full")
	}
	col.Add(Result{ID: 2, Dist: 3})
	if col.SkipSq(9) {
		t.Fatal("lb == worst must not be skipped: an ID tie-break can still enter")
	}
	if !col.SkipSq(9.0000001) {
		t.Fatal("lb > worst must be skipped")
	}
	// A same-distance, lower-ID candidate must actually displace.
	if !col.Add(Result{ID: 0, Dist: 3}) {
		t.Fatal("equal-distance lower-ID candidate rejected")
	}
	rs := col.Results()
	if rs[1].ID != 0 {
		t.Fatalf("results = %v, want ID 0 to win the tie", rs)
	}
}

func TestRangeCollectorMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	results := randomResults(rng, 80, 10)
	serial := NewRangeCollector(5)
	a, b := NewRangeCollector(5), NewRangeCollector(5)
	for i, r := range results {
		serial.Add(r)
		if i%2 == 0 {
			a.Add(r)
		} else {
			b.Add(r)
		}
	}
	merged := NewRangeCollector(5)
	merged.Merge(b)
	merged.Merge(a)
	if got, want := merged.Results(), serial.Results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("range merge != serial\ngot  %v\nwant %v", got, want)
	}
}
