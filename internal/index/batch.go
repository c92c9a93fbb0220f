package index

import (
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Refill re-fills the context's pruning tables for a new query, keeping
// every scratch buffer, and re-binds its trace and record to the query's so
// a pooled batch context follows each query's state. Batch executors call
// it between queries instead of releasing and re-acquiring the context.
func (c *SearchCtx) Refill(q Query, cfg Config) {
	c.P.Fill(q.PAA, cfg)
	c.Trace, c.Tally = q.Trace, obs.Tally{}
}

// Batch answers one exact k-NN query per element of qs on any index,
// parallelized across queries rather than within one. Each worker slot of the
// pool owns one SearchCtx for the whole batch: its tables are refilled per
// query (the only per-query cost) while its page buffers, decode scratch and
// candidate slices persist, and it is handed to idx.ExactInto without a pool
// — on a shard group each query probes every shard with that single context.
// Each query scans serially under pl, so out[i] is byte-identical to what
// Into answers for qs[i] with idx.ExactInto: batching changes throughput,
// never answers, and its record goes where Into's does. On error the
// lowest-indexed query's error is reported (parallel.Pool's deterministic
// error contract) and the partial outputs are discarded.
func Batch(pool *parallel.Pool, pl *Planner, total *obs.Tally, cfg Config, idx Index, qs []Query, k int) ([][]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	out := make([][]Result, len(qs))
	w := pool.WorkersFor(len(qs))
	ctxs := make(Ctxs, w)
	for i := range ctxs {
		ctxs[i] = ctxPool.Get().(*SearchCtx)
		ctxs[i].Planner = pl
	}
	defer ctxs.Release()
	err := pool.ForEach(len(qs), func(worker, i int) error {
		ctx := ctxs[worker]
		ctx.Refill(qs[i], cfg)
		col := NewCollector(k)
		err := idx.ExactInto(qs[i], col, ctx)
		qs[i].Tally.Add(&ctx.Tally)
		total.Add(&ctx.Tally)
		if err != nil {
			return err
		}
		out[i] = col.Results()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
