// Astronomy reproduces the demo's Scenario 1: exploring a large static
// collection of light curves for known patterns of interest (supernovae,
// eclipsing binary stars). It runs the exploration workflow on the ADS+
// baseline and on the recommender's choice, comparing construction cost,
// query cost, and recall of the injected events.
package main

import (
	"fmt"
	"log"

	coconut "repro"
	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	const (
		n      = 20000
		length = 256
	)
	fmt.Println("Scenario 1: big static data series (synthetic astronomy workload)")
	ds, injected := gen.Astronomy(gen.AstronomyConfig{
		N: n, Len: length, FracEvent: 0.02, NoiseStd: 0.1, Seed: 42,
	})
	fmt.Printf("collection: %d light curves of length %d, %d with injected events\n\n",
		ds.Count(), length, len(injected))

	// Step 1: ask the recommender. Exploration means a handful of queries.
	rec := coconut.Recommend(coconut.Scenario{
		Streaming:        false,
		ExpectedQueries:  20,
		MemoryBudgetFrac: 0.1,
	})
	fmt.Println(rec.String())

	// Step 2: run the same workflow on the baseline and the recommendation.
	cfg := index.Config{SeriesLen: length, Segments: 16, Bits: 8}
	queries := gen.TemplateQueries(gen.TemplateSupernova, length, 10, 0.1, 7)
	for _, variant := range []string{"ADS+", string(rec.Index)} {
		b, err := assemble.Build(assemble.Spec{Variant: variant, SeriesLen: length, Segments: 16, Bits: 8}, ds)
		if err != nil {
			log.Fatal(err)
		}
		cost := b.BuildCost(storage.DefaultCostModel)
		qs, err := workload.RunQueries(b, queries, cfg, 5, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s build cost %-8.0f index pages %-6d exact query cost %-8.1f mean 1-NN dist %.3f\n",
			variant, cost, b.IndexPages, qs.Cost(storage.DefaultCostModel), qs.MeanDist)
	}

	// Step 3: verify the exploration finds the planted supernovae: query
	// with a clean template and check the top answers are injected events.
	b, err := assemble.Build(assemble.Spec{Variant: "CTreeFull", SeriesLen: length, Segments: 16, Bits: 8}, ds)
	if err != nil {
		log.Fatal(err)
	}
	isInjected := map[int64]string{}
	for _, in := range injected {
		isInjected[int64(in.ID)] = in.Template.String()
	}
	q := index.NewQuery(gen.TemplateSupernova.Shape(length, 0.3), cfg)
	rs, err := b.ExactSearch(q, 10)
	if err != nil {
		log.Fatal(err)
	}
	hits := 0
	fmt.Println("\ntop-10 matches for a clean supernova template:")
	for _, r := range rs {
		tag := "background"
		if tpl, ok := isInjected[r.ID]; ok {
			tag = "INJECTED " + tpl
			hits++
		}
		fmt.Printf("  id=%-6d dist=%6.3f  %s\n", r.ID, r.Dist, tag)
	}
	fmt.Printf("recall within top-10: %d/10 are injected events\n", hits)
}
