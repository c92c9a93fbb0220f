package workload

import (
	"math/rand"
	"time"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
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
	// PlannedSkips is the planner's activity during the workload: probe
	// units skipped by their synopsis bound (zero with the planner
	// disabled or absent).
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
	search := b.Index.ExactSearch
	if !exact {
		search = b.Index.ApproxSearch
	}
	answers, qs, err := pass(b, len(queries), func(i int) ([]index.Result, error) {
		return search(index.NewQuery(queries[i], cfg), k)
	})
	var distSum float64
	for _, rs := range answers {
		if len(rs) > 0 {
			distSum += rs[0].Dist
		}
	}
	qs.MeanDist = distSum / float64(max(1, len(queries)))
	return qs, err
}

// exactPass answers every prepared query exactly against b, returning the
// answers with the pass's accounting.
func exactPass(b *assemble.Built, iqs []index.Query, k int) ([][]index.Result, QueryStats, error) {
	return pass(b, len(iqs), func(i int) ([]index.Result, error) { return b.Index.ExactSearch(iqs[i], k) })
}

// pass runs n searches against b, returning their answers with the pass's
// accounting (I/O, wall time, planner skips).
func pass(b *assemble.Built, n int, search func(i int) ([]index.Result, error)) ([][]index.Result, QueryStats, error) {
	before, skipsBefore := b.IOStats(), b.Planner.Skips()
	start := time.Now()
	out := make([][]index.Result, n)
	for i := range out {
		rs, err := search(i)
		if err != nil {
			return nil, QueryStats{}, err
		}
		out[i] = rs
	}
	return out, QueryStats{
		Queries:      n,
		Stats:        b.IOStats().Sub(before),
		WallTime:     time.Since(start),
		PlannedSkips: b.Planner.Skips() - skipsBefore,
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

// walkQueries prepares n random-walk queries from the given seed.
func (s Scale) walkQueries(seed int64, n int) []index.Query {
	iqs := make([]index.Query, n)
	for i, w := range s.walks(seed, n) {
		iqs[i] = index.NewQuery(w, s.config())
	}
	return iqs
}
