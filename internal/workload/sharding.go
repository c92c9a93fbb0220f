package workload

import (
	"fmt"
	"time"

	"repro/internal/assemble"
	"repro/internal/index"
)

// E13Sharding measures the sharding + batching layer: exact k-NN queries
// against a CTreeFull hash-partitioned across increasing shard counts,
// executed one at a time (the per-query path) and as one batch (the
// pipelined path). Alongside wall-clock throughput it reports the I/O cost
// per query, which grows mildly with shards (every shard pays its own
// approximate probe) — the trade the recommender weighs against the
// parallel speedup. Results at every shard count and on both paths are
// byte-identical (asserted here, not just in tests: a mismatch fails the
// experiment rather than publishing a wrong table).
func E13Sharding(sc Scale, n, numQueries, k int, shardCounts []int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:    "E13",
		Title: fmt.Sprintf("sharded batch execution over N=%d series, %d exact %d-NN queries", n, numQueries, k),
		Note: "loop = one query at a time; batch = SearchBatch pipelining pooled contexts across the worker pool; " +
			"answers byte-identical at every shard count (verified)",
		Columns: []string{"shards", "build ms", "loop q/s", "batch q/s", "batch speedup", "io-cost/query"},
	}
	ds := sc.dataset(n)
	iqs := sc.walkQueries(sc.Seed+13, numQueries)

	var reference [][]index.Result
	for _, shards := range shardCounts {
		b, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{
			Shards: shards, Parallelism: -1, RawInMemory: true,
		}), ds)
		if err != nil {
			return nil, fmt.Errorf("E13 shards=%d: %w", shards, err)
		}

		looped, loopQS, err := exactPass(b, iqs, k)
		if err != nil {
			return nil, fmt.Errorf("E13 shards=%d loop: %w", shards, err)
		}
		loopTime := loopQS.WallTime

		before := b.IOStats()
		batchStart := time.Now()
		batched, err := b.SearchBatch(iqs, k)
		if err != nil {
			return nil, fmt.Errorf("E13 shards=%d batch: %w", shards, err)
		}
		batchTime := time.Since(batchStart)
		ioPerQuery := b.IOStats().Sub(before).Cost(sc.Cost) / float64(len(iqs))

		if err := sameResults(looped, batched); err != nil {
			return nil, fmt.Errorf("E13 shards=%d: batch diverged from loop: %w", shards, err)
		}
		if reference == nil {
			reference = looped
		} else if err := sameResults(reference, looped); err != nil {
			return nil, fmt.Errorf("E13 shards=%d: sharded diverged from shards=%d: %w", shards, shardCounts[0], err)
		}

		qps := func(d time.Duration) float64 { return float64(len(iqs)) / d.Seconds() }
		t.AddRow(
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", b.BuildTime.Milliseconds()),
			fmt.Sprintf("%.0f", qps(loopTime)),
			fmt.Sprintf("%.0f", qps(batchTime)),
			fmt.Sprintf("%.2fx", loopTime.Seconds()/batchTime.Seconds()),
			fmt.Sprintf("%.0f", ioPerQuery),
		)
	}
	return t, nil
}

// sameResults reports the first divergence between two result batches —
// the experiment's built-in equivalence assertion.
func sameResults(a, b [][]index.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d result sets", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("query %d: %d vs %d results", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("query %d result %d: %+v vs %+v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}
