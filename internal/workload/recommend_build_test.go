package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/recommender"
	"repro/internal/series"
)

// TestRecommendationsBuild: the recommender's advice can be built. For every
// scenario of E8's decision table, and for two static scenarios with appends
// whose advice is PP, the recommendation's index, materialization and scheme
// map onto one assemble.Spec — PP onto no scheme, the index itself — which
// Build accepts; a stream ingested through it answers a windowed exact query
// as brute force does.
func TestRecommendationsBuild(t *testing.T) {
	scenarios := append(e8Scenarios(),
		recommender.Scenario{UpdateRate: 0.05, ExpectedQueries: 1000, MemoryBudgetFrac: 0.25},
		recommender.Scenario{UpdateRate: 0.5, ExpectedQueries: 10, MemoryBudgetFrac: 0.25},
	)
	const n, k, lo, hi = 600, 3, 150, 420
	rng := rand.New(rand.NewSource(61))
	ss := make([]series.Series, n)
	for i := range ss {
		ss[i] = gen.RandomWalk(rng, 64)
	}
	raw := gen.RandomWalk(rng, 64)
	built := map[string]bool{}
	for _, sc := range scenarios {
		r := recommender.Recommend(sc)
		if built[r.Variant()] {
			continue
		}
		built[r.Variant()] = true
		spec := assemble.Spec{
			Variant:   assemble.VariantOf(string(r.Index), r.Materialized),
			SeriesLen: 64, Segments: 8, Bits: 8,
			FillFactor: r.FillFactor, GrowthFactor: r.GrowthFactor,
			BufferEntries: 128, RawInMemory: true,
		}
		if r.Scheme != recommender.SchemePP {
			spec.Scheme = string(r.Scheme)
		}
		b, err := assemble.Build(spec, nil)
		if err != nil {
			t.Fatalf("%s: Build refused the advice: %v", r.Variant(), err)
		}
		defer b.Close()
		for i, s := range ss {
			if err := b.Ingest(s, int64(i)); err != nil {
				t.Fatalf("%s: ingest %d: %v", r.Variant(), i, err)
			}
		}
		q := index.NewQuery(raw, b.Config).WithWindow(lo, hi)
		brute := index.NewCollector(k)
		for id := lo; id <= hi; id++ {
			brute.Add(index.Result{ID: int64(id), TS: int64(id), Dist: math.Sqrt(q.Norm.SqDist(ss[id].ZNormalize()))})
		}
		want := brute.Results()
		got, err := b.ExactSearch(q, k)
		if err != nil {
			t.Fatalf("%s: %v", r.Variant(), err)
		}
		for i := range want {
			if len(got) != len(want) || got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("%s: windowed exact %+v, brute force %+v", r.Variant(), got, want)
			}
		}
	}
	for _, v := range []string{"CTree", "CTreeFull", "CLSM+BTP", "CLSMFull+BTP", "CTreeFull+PP", "CLSM+PP"} {
		if !built[v] {
			t.Errorf("no scenario advised %s; the advice built: %v", v, built)
		}
	}
}
