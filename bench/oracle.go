package main

import (
	"fmt"
	"math"
	"sort"
)

// The oracle answers queries by scanning z-normalised inputs with plain
// loops, sharing no code with the program's kernels, summaries or indexes.

type neighbor struct {
	ID   int
	TS   int64
	Dist float64
}

// distTolerance is how far an answer's distance may sit from the oracle's:
// the program sums squares in blocked SIMD order, the oracle left to right.
const distTolerance = 1e-9

func znorm(s []float64) []float64 {
	n := float64(len(s))
	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / n
	var ss float64
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / n)
	out := make([]float64, len(s))
	if std < 1e-12 { // the program's convention: a constant series normalises to zeros
		return out
	}
	for i, v := range s {
		out[i] = (v - mean) / std
	}
	return out
}

func znormAll(data [][]float64) [][]float64 {
	out := make([][]float64, len(data))
	for i, s := range data {
		out[i] = znorm(s)
	}
	return out
}

func euclid(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// scan returns every (id, dist) of znormed series whose timestamp passes
// keep (nil keeps all), sorted by (dist, id).
func scan(znormed [][]float64, ts []int64, q []float64, keep func(ts int64) bool) []neighbor {
	zq := znorm(q)
	out := make([]neighbor, 0, len(znormed))
	for id, s := range znormed {
		var t int64
		if ts != nil {
			t = ts[id]
		}
		if keep != nil && !keep(t) {
			continue
		}
		out = append(out, neighbor{ID: id, TS: t, Dist: euclid(zq, s)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// checkKNN compares a k-NN answer with the oracle's scan: same length,
// distances equal rank by rank within distTolerance, and the same IDs
// (order may differ only among distances that tie within the tolerance).
func checkKNN(got []neighbor, all []neighbor, k int) error {
	want := all
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, oracle has %d", len(got), len(want))
	}
	ids := make(map[int]float64, len(want))
	for _, w := range want {
		ids[w.ID] = w.Dist
	}
	for i, g := range got {
		if math.Abs(g.Dist-want[i].Dist) > distTolerance {
			return fmt.Errorf("rank %d: distance %.12g, oracle %.12g", i, g.Dist, want[i].Dist)
		}
		if _, ok := ids[g.ID]; ok {
			continue
		}
		// An ID outside the oracle's top k is right only if it ties with the
		// k-th distance.
		if len(all) > k && math.Abs(all[k].Dist-want[len(want)-1].Dist) <= distTolerance {
			continue
		}
		return fmt.Errorf("rank %d: id %d is not among the oracle's %d nearest", i, g.ID, k)
	}
	return nil
}

// checkRange compares a range answer with the oracle's: the same IDs, apart
// from series whose distance lies within the tolerance of eps.
func checkRange(got []neighbor, all []neighbor, eps float64) error {
	in := make(map[int]bool, len(got))
	for _, g := range got {
		in[g.ID] = true
	}
	n := 0
	for _, a := range all {
		switch {
		case a.Dist <= eps-distTolerance:
			if !in[a.ID] {
				return fmt.Errorf("id %d at distance %.12g <= eps %.12g is missing", a.ID, a.Dist, eps)
			}
			n++
		case a.Dist <= eps+distTolerance:
			if in[a.ID] {
				n++
			}
		}
	}
	if n != len(got) {
		return fmt.Errorf("range answer has %d series, oracle accepts %d of them", len(got), n)
	}
	return nil
}

// recallAt counts how many of the exact answer's IDs the approximate answer
// found.
func recallAt(exact, approx []neighbor) (found, of int) {
	in := make(map[int]bool, len(approx))
	for _, a := range approx {
		in[a.ID] = true
	}
	for _, e := range exact {
		if in[e.ID] {
			found++
		}
	}
	return found, len(exact)
}
