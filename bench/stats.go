package main

import (
	"math"
	"sort"
)

// tailRank returns the 1-based rank, in n ascending samples, of the order
// statistic reported for percentile p: the p-th percentile when at least
// ten samples lie beyond it, otherwise the highest rank that still has ten
// samples beyond it (never below the median's rank).
func tailRank(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if limit := n - 10; rank > limit {
		rank = limit
	}
	if mid := (n + 1) / 2; rank < mid {
		rank = mid
	}
	return rank
}

// percentile returns the order statistic tailRank selects for p, and the
// share of samples at or below it (the percentile actually reported).
// samples is sorted in place.
func percentile(samples []float64, p float64) (value, reported float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(samples)
	rank := tailRank(n, p)
	return samples[rank-1], float64(rank) / float64(n)
}

// median returns the middle order statistic (mean of the two middle ones
// for an even count). samples is sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what the driver computes.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
