package index

import "repro/internal/parallel"

// This file implements batched query execution: many queries pipelined
// through pooled SearchCtx scratch, parallelized across queries rather than
// within one. A batch executor hands each worker slot one context and one
// query at a time; the slot's context is refilled per query (table fill is
// the only per-query cost) while its page buffers, decode scratch, and
// candidate slices persist across the whole batch — no per-query
// re-allocation. Each query's own scan runs serially (SerialPool), so batch
// throughput comes from inter-query parallelism and per-query results stay
// byte-identical to a standalone Search of the same query.

// SerialPool is the shared one-worker pool used by ctx-managed search
// variants: a batch executor owns the parallelism across queries, so each
// individual query's scan stays serial. Pools are immutable and goroutine
// safe, so one shared instance serves every index.
var SerialPool = parallel.New(1)

// CtxSearcher is implemented by indexes whose exact search can run with a
// caller-managed context: ctx must already be filled for q (Refill), and the
// scan runs serially on the calling goroutine. Batch executors and sharded
// probes use it to share one table fill across shards and to recycle
// scratch across queries.
type CtxSearcher interface {
	ExactSearchCtx(q Query, k int, ctx *SearchCtx) ([]Result, error)
}

// CollSearcher is implemented by indexes whose exact search can hand back
// its collector instead of rendered results: the collector still holds the
// exact accumulated squared distances, which a sharded merge folds together
// without the (lossy in the last ulp) true-distance round trip. ctx must
// already be filled for q; the scan runs serially, like ExactSearchCtx.
type CollSearcher interface {
	ExactSearchColl(q Query, k int, ctx *SearchCtx) (*Collector, error)
}

// BatchSearcher is implemented by indexes with a batched exact-search path:
// out[i] is byte-identical to ExactSearch(qs[i], k), with per-query scratch
// pooled across the batch.
type BatchSearcher interface {
	ExactSearchBatch(qs []Query, k int) ([][]Result, error)
}

// Refill re-fills the context's pruning tables for a new query, keeping
// every scratch buffer, and re-binds the context's trace to the query's so a
// pooled batch context follows each query's tracing state. Batch executors
// call it between queries instead of releasing and re-acquiring the context.
func (c *SearchCtx) Refill(q Query, cfg Config) {
	c.P.Fill(q.PAA, cfg)
	c.Trace = q.Trace
}

// Batch runs one exact search per query over the pool. Each worker slot
// owns one SearchCtx for the whole batch: the slot refills its tables per
// query and reuses its scratch buffers across every query it executes.
// out[i] is whatever search returns for qs[i]; because search receives a
// filled context and runs each query identically to the standalone path,
// batching never changes answers — only wall-clock time. On error the
// lowest-indexed query's error is reported (parallel.Pool's deterministic
// error contract) and the partial outputs are discarded.
func Batch(pool *parallel.Pool, cfg Config, qs []Query, search func(q Query, ctx *SearchCtx) ([]Result, error)) ([][]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	out := make([][]Result, len(qs))
	w := pool.WorkersFor(len(qs))
	ctxs := make([]*SearchCtx, w)
	for i := range ctxs {
		ctxs[i] = ctxPool.Get().(*SearchCtx)
	}
	defer func() {
		for _, c := range ctxs {
			c.Release()
		}
	}()
	err := pool.ForEach(len(qs), func(worker, i int) error {
		ctx := ctxs[worker]
		ctx.Refill(qs[i], cfg)
		rs, err := search(qs[i], ctx)
		if err != nil {
			return err
		}
		out[i] = rs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
