package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/storage"
)

// Group is the set of shards one process holds of a logical index
// hash-partitioned into NShards shards (placement Of). Owning every shard it
// is the in-process sharded index; owning a subset it is a cluster node's
// share, the server-side building block of the distributed scatter-gather
// tier: the router asks each node for exact per-shard answers over a
// requested shard list, and the Group answers with the collectors' exact
// accumulated squared sums under global IDs — so the router-side merge
// reproduces the single-node collector selection bit-for-bit, exactly as the
// in-process merge over all shards does.
//
// Probes fan across the requested shards through index.ProbeUnits on the
// group's worker pool, ordered and skipped by the group's planner (typically
// the planner every shard's sub-index also carries, so shard-, run- and
// leaf-level planning share one set of counters). A cluster node built at
// parallelism 1 is the serial case of the same executor.
//
// A Group implements index.Index, index.RangeSearcher and the batch
// interfaces over its whole owned subset; on a fully replicated node those
// answers equal the cluster-wide ones.
//
// Searches may run concurrently with each other and with inserts (the ID
// mappings are RWMutex-guarded and readers snapshot slice headers); the
// sub-indexes' own insert paths require the caller to serialize inserts
// against each other.
type Group struct {
	cfg     index.Config
	nshards int
	owned   []int // ascending shard indices
	shards  map[int]*Shard
	pool    *parallel.Pool
	planner *index.Planner

	// idsMu guards every owned shard's IDs slice, lastID and count so
	// inserts may run concurrently with searches: readers snapshot a slice
	// header under the read lock (appends never touch an index a snapshot
	// can see), writers append under the write lock.
	idsMu  sync.RWMutex
	lastID map[int]int64 // last appended global ID per owned shard, -1 when empty
	count  int64         // series held locally (sum over owned shards)
}

// NewGroup assembles a shard group. nshards is the logical shard count;
// owned maps shard index -> shard. Every owned shard's IDs must be ascending
// and hash-placed into that shard (Of(id, nshards)), and its index must hold
// exactly len(IDs) series. Sub-indexes should search serially: the group
// owns the fan-out (parallelism <= 0 selects GOMAXPROCS), and nesting pools
// only adds scheduling overhead. A nil planner plans with default settings;
// one with Disabled set restores the unplanned fan-out.
func NewGroup(cfg index.Config, nshards int, owned map[int]*Shard, parallelism int, planner *index.Planner) (*Group, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("shard: cluster needs at least one shard, got %d", nshards)
	}
	if len(owned) == 0 {
		return nil, fmt.Errorf("shard: group owns no shards")
	}
	g := &Group{
		cfg:     cfg,
		nshards: nshards,
		shards:  make(map[int]*Shard, len(owned)),
		pool:    parallel.New(parallelism),
		planner: planner,
		lastID:  make(map[int]int64, len(owned)),
	}
	for si, sh := range owned {
		if si < 0 || si >= nshards {
			return nil, fmt.Errorf("shard: owned shard %d outside [0, %d)", si, nshards)
		}
		if sh == nil || sh.Index == nil {
			return nil, fmt.Errorf("shard: owned shard %d has no index", si)
		}
		if got := sh.Index.Count(); got != int64(len(sh.IDs)) {
			return nil, fmt.Errorf("shard: shard %d holds %d series but maps %d IDs", si, got, len(sh.IDs))
		}
		last := int64(-1)
		for _, id := range sh.IDs {
			if id <= last {
				return nil, fmt.Errorf("shard: shard %d IDs not ascending at %d", si, id)
			}
			if Of(id, nshards) != si {
				return nil, fmt.Errorf("shard: ID %d hashed to shard %d, held by %d", id, Of(id, nshards), si)
			}
			last = id
		}
		g.shards[si] = sh
		g.lastID[si] = last
		g.owned = append(g.owned, si)
		g.count += int64(len(sh.IDs))
	}
	sort.Ints(g.owned)
	return g, nil
}

// NShards returns the logical shard count.
func (g *Group) NShards() int { return g.nshards }

// SetParallelism re-sizes the cross-shard worker pool (n <= 0 selects
// GOMAXPROCS; 1 probes shards serially). Answers are identical at every
// setting. Call only while no search is in flight.
func (g *Group) SetParallelism(n int) { g.pool = parallel.New(n) }

// Owned returns the shard indices this group holds, ascending. The slice is
// owned by the group; callers must not mutate it.
func (g *Group) Owned() []int { return g.owned }

// Owns reports whether the group holds shard si.
func (g *Group) Owns(si int) bool { _, ok := g.shards[si]; return ok }

// Shard returns the owned shard si, or nil.
func (g *Group) Shard(si int) *Shard { return g.shards[si] }

// Name identifies the group: "Sharded4xCTreeFull" when it owns every shard,
// "Group2of4xCTreeFull" when it owns a subset.
func (g *Group) Name() string {
	inner := g.shards[g.owned[0]].Index.Name()
	if len(g.owned) == g.nshards {
		return fmt.Sprintf("Sharded%dx%s", g.nshards, inner)
	}
	return fmt.Sprintf("Group%dof%dx%s", len(g.owned), g.nshards, inner)
}

// Count returns the number of series held locally (owned shards only — not
// the cluster-wide count).
func (g *Group) Count() int64 {
	g.idsMu.RLock()
	defer g.idsMu.RUnlock()
	return g.count
}

// MaxID returns the largest global ID held locally, or -1 when empty. The
// router derives the cluster-wide series count (max over nodes + 1) from it
// at startup: global IDs are dense, so any node owning at least one shard
// has seen an ID within nshards of the global maximum.
func (g *Group) MaxID() int64 {
	g.idsMu.RLock()
	defer g.idsMu.RUnlock()
	m := int64(-1)
	for _, si := range g.owned {
		if ids := g.shards[si].IDs; len(ids) > 0 && ids[len(ids)-1] > m {
			m = ids[len(ids)-1]
		}
	}
	return m
}

// resolve maps a requested shard list to owned shards, rejecting requests
// for shards this node does not hold (a router/topology mismatch the node
// must surface, not silently answer incompletely). nil requests every owned
// shard.
func (g *Group) resolve(reqs []int) ([]int, error) {
	if reqs == nil {
		return g.owned, nil
	}
	for _, si := range reqs {
		if !g.Owns(si) {
			return nil, fmt.Errorf("shard: node does not own shard %d (owned %v of %d)", si, g.owned, g.nshards)
		}
	}
	return reqs, nil
}

// exactInto probes the listed shards through the planned-probe executor,
// worker slot w of pool searching with ctxs[w]. The plan lives in ctxs[0]'s
// outer buffer: each shard's inner index plans its own runs or leaves in the
// primary buffer of the same context.
func (g *Group) exactInto(q index.Query, k int, shards []int, pool *parallel.Pool, ctxs []*index.SearchCtx) (*index.Collector, error) {
	col := index.NewCollector(k)
	err := index.ProbeUnits(index.ProbePlan{
		Planner: g.planner, Pool: pool, Trace: q.Trace, Kind: "shard", Units: ctxs[0].OuterPlanUnits(len(shards)),
	}, col, func(i int) float64 {
		return g.shards[shards[i]].boundSq(q, ctxs[0])
	}, func(i, w int, col *index.Collector) error {
		return g.shards[shards[i]].exactInto(&g.idsMu, q, k, ctxs[w], col)
	})
	return col, err
}

// ExactSearchShards answers an exact k-NN over the requested shard subset
// (nil = all owned), returning the collector itself: its contents are the k
// best (squared distance, global ID) pairs over the union of the requested
// shards' series, with the exact accumulated squared sums intact for a
// higher-level merge. Every shard answers an exact top-k over its subset
// (concurrently on the group's pool, each worker with its own pooled search
// context) and the per-shard collectors merge on their exact squared sums,
// so the answer is byte-identical to the unsharded index's at every
// parallelism.
func (g *Group) ExactSearchShards(q index.Query, k int, reqs []int) (*index.Collector, error) {
	shards, err := g.resolve(reqs)
	if err != nil {
		return nil, err
	}
	ctxs := make([]*index.SearchCtx, g.pool.WorkersFor(len(shards)))
	for i := range ctxs {
		ctxs[i] = index.AcquireCtx(q, g.cfg)
	}
	defer func() {
		for _, c := range ctxs {
			c.Release()
		}
	}()
	return g.exactInto(q, k, shards, g.pool, ctxs)
}

// RangeSearchShards answers a range (epsilon) query over the requested
// shard subset (nil = all owned), returning the collector with every
// qualifying series under its global ID. The epsilon bound is static, so a
// shard whose envelope bound exceeds it is dropped before the fan-out.
// Re-squaring reported distances is exact on the range path (see
// Shard.rangeInto), so merging range collectors across nodes preserves every
// distance bit-for-bit.
func (g *Group) RangeSearchShards(q index.Query, eps float64, reqs []int) (*index.RangeCollector, error) {
	shards, err := g.resolve(reqs)
	if err != nil {
		return nil, err
	}
	ctx := index.AcquireCtx(q, g.cfg)
	defer ctx.Release()
	col := index.NewRangeCollector(eps)
	err = index.ProbeUnits(index.ProbePlan{
		Planner: g.planner, Pool: g.pool, Trace: q.Trace, Kind: "shard", Units: ctx.OuterPlanUnits(len(shards)),
	}, col, func(i int) float64 {
		return g.shards[shards[i]].boundSq(q, ctx)
	}, func(i, _ int, col *index.RangeCollector) error {
		return g.shards[shards[i]].rangeInto(&g.idsMu, q, eps, col)
	})
	return col, err
}

// ApproxSearchShards answers an approximate k-NN over the requested shard
// subset (nil = all owned): per-shard approximate probes merged on reported
// distances. Like every approximate search it carries no distance
// guarantee, so distributed approximate answers match the merge contract
// (up to k deduplicated results ordered by (distance, ID)) rather than
// being byte-identical across topologies.
func (g *Group) ApproxSearchShards(q index.Query, k int, reqs []int) (*index.Collector, error) {
	shards, err := g.resolve(reqs)
	if err != nil {
		return nil, err
	}
	col := index.NewCollector(k)
	err = index.FanOut(g.pool, len(shards), col, func(i, _ int, col *index.Collector) error {
		return g.shards[shards[i]].approxInto(&g.idsMu, q, k, col)
	})
	return col, err
}

// ExactSearch answers an exact k-NN over every owned shard (index.Index).
func (g *Group) ExactSearch(q index.Query, k int) ([]index.Result, error) {
	return results(g.ExactSearchShards(q, k, nil))
}

// results renders a search's collector, passing its error through.
func results[C interface{ Results() []index.Result }](col C, err error) ([]index.Result, error) {
	if err != nil {
		return nil, err
	}
	return col.Results(), nil
}

// ExactSearchCtx answers an exact k-NN query probing every owned shard
// serially with a caller-managed context (already filled for q). One table
// fill serves every shard — the shards share a summarization configuration —
// which is what makes batched sharded search cheap: the batch executor
// parallelizes across queries while each query pays a single context.
func (g *Group) ExactSearchCtx(q index.Query, k int, ctx *index.SearchCtx) ([]index.Result, error) {
	return results(g.exactInto(q, k, g.owned, index.SerialPool, []*index.SearchCtx{ctx}))
}

// ExactSearchBatch answers one exact k-NN query per element of qs,
// pipelined over the cross-shard pool: each worker slot reuses one search
// context across every query it executes, and each query probes all owned
// shards with that single context. out[i] is byte-identical to
// ExactSearch(qs[i], k).
func (g *Group) ExactSearchBatch(qs []index.Query, k int) ([][]index.Result, error) {
	return index.Batch(g.pool, g.cfg, qs, func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error) {
		return g.ExactSearchCtx(q, k, ctx)
	})
}

// ApproxSearch answers an approximate k-NN over every owned shard.
func (g *Group) ApproxSearch(q index.Query, k int) ([]index.Result, error) {
	return results(g.ApproxSearchShards(q, k, nil))
}

// RangeSearch answers a range query over every owned shard
// (index.RangeSearcher).
func (g *Group) RangeSearch(q index.Query, eps float64) ([]index.Result, error) {
	return results(g.RangeSearchShards(q, eps, nil))
}

// PrepareInsert validates that global ID id may be appended next: the node
// must own its hash-assigned shard, and id must be exactly the shard's next
// expected ID. Global IDs are dense (the router assigns them sequentially)
// and placement is the pure function Of, so after last appended ID L the
// shard's next ID is the smallest id > L hashing to it — computable
// locally, with no knowledge of other shards' progress. The exactness is
// what makes replica failover safe: a replica that missed a write (it was
// down, or a previous batch failed on it) sees a later ID than it expects
// and rejects the insert instead of silently diverging, so the router marks
// it stale rather than serving wrong answers from it.
func (g *Group) PrepareInsert(id int64) (int, error) {
	si := Of(id, g.nshards)
	if !g.Owns(si) {
		return 0, fmt.Errorf("shard: ID %d belongs to shard %d, not owned (owned %v)", id, si, g.owned)
	}
	g.idsMu.RLock()
	last := g.lastID[si]
	g.idsMu.RUnlock()
	if id <= last {
		return 0, fmt.Errorf("shard: ID %d not ascending on shard %d (last %d)", id, si, last)
	}
	if next := nextIDFor(si, last, g.nshards); next >= 0 && id != next {
		return 0, fmt.Errorf("shard: ID %d skips shard %d's next expected ID %d (last %d): this replica missed a write",
			id, si, next, last)
	}
	return si, nil
}

// nextIDFor returns the smallest global ID greater than last that hash-
// places into shard si — the only ID a dense ID assignment can send to the
// shard next. Returns -1 when the scan bound is exceeded (the probability
// of a gap that long is negligible; callers then skip the exactness check
// rather than reject a valid insert).
func nextIDFor(si int, last int64, nshards int) int64 {
	bound := int64(nshards) * 64
	if bound < 1<<16 {
		bound = 1 << 16
	}
	for id := last + 1; id <= last+bound; id++ {
		if Of(id, nshards) == si {
			return id
		}
	}
	return -1
}

// NoteInsert records that the caller appended the series with global ID id
// to shard si through the shard's own build (which keeps raw mirrors in
// sync before the sub-index sees the series). Callers must have validated
// the append with PrepareInsert under the same external insert lock. On a
// group that owns every shard the next dense ID is Count().
func (g *Group) NoteInsert(si int, id int64) {
	g.idsMu.Lock()
	defer g.idsMu.Unlock()
	g.shards[si].IDs = append(g.shards[si].IDs, id)
	g.lastID[si] = id
	g.count++
}

// IOStats returns disk statistics aggregated over every owned shard,
// cache-aware when shards read through a buffer pool.
func (g *Group) IOStats() storage.Stats {
	var agg storage.Stats
	for _, si := range g.owned {
		agg = agg.Add(g.shards[si].IOStats())
	}
	return agg
}

// ShardStats returns each owned shard's statistics, in ascending shard
// order (matching Owned).
func (g *Group) ShardStats() []storage.Stats {
	out := make([]storage.Stats, 0, len(g.owned))
	for _, si := range g.owned {
		out = append(out, g.shards[si].IOStats())
	}
	return out
}

// TotalPages returns the page count summed over every owned shard's disk.
func (g *Group) TotalPages() int64 {
	var n int64
	for _, si := range g.owned {
		n += g.shards[si].Disk.TotalPages()
	}
	return n
}

// index.Inserter is deliberately not implemented: inserts carry explicit
// global IDs (PrepareInsert/NoteInsert around the owning shard's own
// ingest), and on a group owning a subset a plain Insert assigning the
// local count as the ID would corrupt the global ID space.
var (
	_ index.Index         = (*Group)(nil)
	_ index.RangeSearcher = (*Group)(nil)
	_ index.CtxSearcher   = (*Group)(nil)
	_ index.BatchSearcher = (*Group)(nil)
)
