package workload

import (
	"math/rand"
	"time"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/series"
	"repro/internal/storage"
)

// Variants names the index variants the experiments sweep, matching Figure 1
// of the paper.
var Variants = assemble.Variants

// QueryStats aggregates a query workload's cost.
type QueryStats struct {
	Queries   int
	Stats     storage.Stats // I/O during the workload
	WallTime  time.Duration
	MeanDist  float64 // mean distance of the best answer (quality indicator)
	ExactDist float64 // mean true 1-NN distance (for approximate recall context)
	// PlannedSkips is the probe units the workload's searches skipped by a
	// bound: the sum of each search's own count.
	PlannedSkips int64
}

// Cost returns the workload's I/O cost per query under the model.
func (q QueryStats) Cost(m storage.CostModel) float64 {
	if q.Queries == 0 {
		return 0
	}
	return q.Stats.Cost(m) / float64(q.Queries)
}

// RunQueries executes a query workload against a built index. Exact selects
// exact (vs. approximate) search.
func RunQueries(b *assemble.Built, queries []series.Series, cfg index.Config, k int, exact bool) (QueryStats, error) {
	cfg.Materialized = false // query preparation does not depend on it
	search := b.ExactSearch
	if !exact {
		search = b.ApproxSearch
	}
	answers, qs, err := pass(b, len(queries), k, func(i int) index.Query { return index.NewQuery(queries[i], cfg) }, search)
	var distSum float64
	for _, rs := range answers {
		if len(rs) > 0 {
			distSum += rs[0].Dist
		}
	}
	qs.MeanDist = distSum / float64(max(1, len(queries)))
	return qs, err
}

// pass runs the searches of queries 0..n-1 against b, one at a time, and
// returns their answers with the pass's accounting: I/O (the build's disk
// delta), wall time and the planned skips their records hold.
func pass(b *assemble.Built, n, k int, query func(i int) index.Query, search func(index.Query, int) ([]index.Result, error)) ([][]index.Result, QueryStats, error) {
	var tally obs.Tally
	before, start := b.IOStats(), time.Now()
	out := make([][]index.Result, n)
	for i := range out {
		q := query(i)
		q.Tally = &tally
		rs, err := search(q, k)
		if err != nil {
			return nil, QueryStats{}, err
		}
		out[i] = rs
	}
	return out, QueryStats{
		Queries:      n,
		Stats:        b.IOStats().Sub(before),
		WallTime:     time.Since(start),
		PlannedSkips: tally.PlannedSkips(),
	}, nil
}

// walks draws n random-walk series from the given seed.
func (s Scale) walks(seed int64, n int) []series.Series {
	rng := rand.New(rand.NewSource(seed))
	out := make([]series.Series, n)
	for i := range out {
		out[i] = gen.RandomWalk(rng, s.SeriesLen)
	}
	return out
}
