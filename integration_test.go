package coconut

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/workload"
)

// specFor describes a build of variant under cfg for assemble.Build.
func specFor(variant string, cfg index.Config, s assemble.Spec) assemble.Spec {
	s.Variant, s.SeriesLen, s.Segments, s.Bits = variant, cfg.SeriesLen, cfg.Segments, cfg.Bits
	return s
}

// TestAllVariantsAgreeOnExactSearch is the repository's strongest
// integration invariant: every index variant — two layout families, a
// baseline, materialized and not — must return exactly the same k-NN
// answers for the same data and queries. Any divergence means a pruning
// bound, codec, or traversal bug somewhere in the stack.
func TestAllVariantsAgreeOnExactSearch(t *testing.T) {
	cfg := index.Config{SeriesLen: 96, Segments: 12, Bits: 8}
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 1200, Len: 96, FracEvent: 0.05, Seed: 99})
	rng := rand.New(rand.NewSource(990))
	queries := make([]series.Series, 12)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = gen.TemplateQueries(gen.TemplateSupernova, 96, 1, 0.2, rng.Int63())[0]
		} else {
			queries[i] = gen.RandomWalk(rng, 96)
		}
	}

	type answerSet [][]index.Result
	answers := map[string]answerSet{}
	for _, v := range workload.Variants {
		b, err := assemble.Build(specFor(v, cfg, assemble.Spec{}), ds)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		var as answerSet
		for _, q := range queries {
			rs, err := b.ExactSearch(index.NewQuery(q, cfg), 5)
			if err != nil {
				t.Fatalf("%s: %v", v, err)
			}
			as = append(as, rs)
		}
		answers[v] = as
	}
	ref := answers["CTree"]
	for _, v := range workload.Variants {
		for qi := range queries {
			got, want := answers[v][qi], ref[qi]
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d results, CTree returned %d", v, qi, len(got), len(want))
			}
			for i := range want {
				// Distances must agree exactly (same arithmetic on the same
				// z-normalized data); IDs may differ only on exact ties.
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Errorf("%s query %d result %d: dist %v, CTree %v",
						v, qi, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

// TestRawOnDiskPipeline exercises the non-materialized path with the raw
// series file living on the same accounted disk, as in the experiments.
func TestRawOnDiskPipeline(t *testing.T) {
	cfg := index.Config{SeriesLen: 64, Segments: 8, Bits: 8}
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 500, Len: 64, Seed: 7})
	b, err := assemble.Build(specFor("CTree", cfg, assemble.Spec{}), ds)
	if err != nil {
		t.Fatal(err)
	}
	// Non-materialized exact search must fetch from the on-disk raw file:
	// random reads appear.
	before := b.Disk.Stats()
	q := index.NewQuery(gen.RandomWalk(rand.New(rand.NewSource(70)), 64), cfg)
	rs, err := b.ExactSearch(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatal("no result")
	}
	diff := b.Disk.Stats().Sub(before)
	if diff.RandReads == 0 {
		t.Error("non-materialized exact search should fetch from the raw file (random reads)")
	}
	// And the answer matches brute force over z-normalized data.
	best, bestD := -1, math.Inf(1)
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if d := math.Sqrt(q.Norm.SqDist(s.ZNormalize())); d < bestD {
			best, bestD = id, d
		}
	}
	if rs[0].ID != int64(best) || math.Abs(rs[0].Dist-bestD) > 1e-9 {
		t.Fatalf("got %+v, want id %d dist %v", rs[0], best, bestD)
	}
}

// TestScenario1Recall verifies the demo's headline exploration outcome end
// to end: searching a built index with a clean template finds the injected
// events.
func TestScenario1Recall(t *testing.T) {
	cfg := index.Config{SeriesLen: 128, Segments: 16, Bits: 8}
	ds, injected := gen.Astronomy(gen.AstronomyConfig{N: 3000, Len: 128, FracEvent: 0.02, Seed: 11})
	isInjected := map[int64]bool{}
	for _, in := range injected {
		if in.Template == gen.TemplateSupernova {
			isInjected[int64(in.ID)] = true
		}
	}
	if len(isInjected) < 10 {
		t.Skip("too few supernovae injected for a recall check")
	}
	b, err := assemble.Build(specFor("CTreeFull", cfg, assemble.Spec{}), ds)
	if err != nil {
		t.Fatal(err)
	}
	q := index.NewQuery(gen.TemplateSupernova.Shape(128, 0.3), cfg)
	rs, err := b.ExactSearch(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, r := range rs {
		if isInjected[r.ID] {
			hits++
		}
	}
	// Injected supernovae are ~1% of the collection, so 4+/10 in the top-10
	// is a >40x lift over chance; phase-randomized templates at this length
	// keep some honest confusions in the mix.
	if hits < 4 {
		t.Errorf("only %d/10 top answers are injected supernovae", hits)
	}
}
