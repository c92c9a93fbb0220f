package shard

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
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
// worker pool the search context carries, ordered and skipped by its planner;
// every shard searches serially, with a context of its own per worker slot
// under the same planner (index.SearchCtx.Parts), so shard-, run-, leaf- and
// page-level outcomes count into the search's one record. A search without a
// pool is the serial case of the same executor.
//
// A Group implements index.Index over its whole owned subset; on a fully
// replicated node those answers equal the cluster-wide ones.
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
// exactly len(IDs) series.
func NewGroup(cfg index.Config, nshards int, owned map[int]*Shard) (*Group, error) {
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

// Owned returns the shard indices this group holds, ascending. The slice is
// owned by the group; callers must not mutate it.
func (g *Group) Owned() []int { return g.owned }

// Owns reports whether the group holds shard si.
func (g *Group) Owns(si int) bool { _, ok := g.shards[si]; return ok }

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

// ErrNotOwned is the error of a search that names a shard the node does not
// hold: a router/topology mismatch, not a failure of the node.
var ErrNotOwned = errors.New("shard: not owned")

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
			return nil, fmt.Errorf("%w: node does not own shard %d (owned %v of %d)", ErrNotOwned, si, g.owned, g.nshards)
		}
	}
	return reqs, nil
}

// shardsInto runs search — one of exact, approx and rangeScan — over a
// requested shard list into col through the one search entry (index.Into),
// fanning out on pool under pl, and returns col.
func shardsInto(g *Group, q index.Query, reqs []int, pool *parallel.Pool, pl *index.Planner, col *index.Collector, search func(index.Query, *index.Collector, []int, *index.SearchCtx) error) (*index.Collector, error) {
	shards, err := g.resolve(reqs)
	if err != nil {
		return col, err
	}
	return index.Into(q, g.cfg, pool, pl, nil, col, func(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
		return search(q, col, shards, ctx)
	})
}

// probe searches the listed shards into col through the planned-probe
// executor on ctx's pool, worker slot w searching with the serial context
// ctxs[w]. The plan lives in ctx's outer buffer: each shard's inner index
// plans its own runs or leaves in the primary buffer of its context, which
// without a pool is ctx itself.
func probe(g *Group, q index.Query, col *index.Collector, shards []int, ctx *index.SearchCtx, search func(sh *Shard, ctx *index.SearchCtx, col *index.Collector) error) error {
	return ctx.Parts(q, g.cfg, len(shards), func(ctxs index.Ctxs) error {
		return index.ProbeUnits(ctx, obs.ShardUnit, ctx.OuterPlanUnits(len(shards)), col, func(i int) float64 {
			return g.shards[shards[i]].boundSq(q, ctx)
		}, func(i, w int, col *index.Collector) error {
			return search(g.shards[shards[i]], ctxs[w], col)
		})
	})
}

// exact is the exact search: every listed shard answers an exact top-k over
// its subset, and the per-shard collectors merge on their exact squared
// sums, so the answer is byte-identical to the unsharded index's at every
// parallelism.
func (g *Group) exact(q index.Query, col *index.Collector, shards []int, ctx *index.SearchCtx) error {
	return probe(g, q, col, shards, ctx, func(sh *Shard, ctx *index.SearchCtx, col *index.Collector) error {
		return into(sh, &g.idsMu, sh.Index.ExactInto, q, ctx, col)
	})
}

// approx is the approximate search: per-shard approximate probes, merged
// like exact answers. No shard is skipped — an approximate probe reads a
// page or two wherever the query's key falls.
func (g *Group) approx(q index.Query, col *index.Collector, shards []int, ctx *index.SearchCtx) error {
	return ctx.Parts(q, g.cfg, len(shards), func(ctxs index.Ctxs) error {
		return index.FanOut(ctx.Pool, len(shards), col, func(i, w int, col *index.Collector) error {
			sh := g.shards[shards[i]]
			return into(sh, &g.idsMu, sh.Index.ApproxInto, q, ctxs[w], col)
		})
	})
}

// rangeScan is the range search. The range collector's limit is fixed, so a
// shard whose envelope bound exceeds it is dropped before the fan-out.
func (g *Group) rangeScan(q index.Query, col *index.Collector, shards []int, ctx *index.SearchCtx) error {
	return probe(g, q, col, shards, ctx, func(sh *Shard, ctx *index.SearchCtx, col *index.Collector) error {
		return into(sh, &g.idsMu, sh.Index.RangeInto, q, ctx, col)
	})
}

// ExactSearchShards answers an exact k-NN over the requested shard subset
// (nil = all owned), fanning out on pool under pl, and returns the collector
// itself: its contents are the k best (squared distance, global ID) pairs
// over the union of the requested shards' series, with the exact accumulated
// squared sums intact for a higher-level merge.
func (g *Group) ExactSearchShards(q index.Query, k int, reqs []int, pool *parallel.Pool, pl *index.Planner) (*index.Collector, error) {
	return shardsInto(g, q, reqs, pool, pl, index.NewCollector(k), g.exact)
}

// RangeSearchShards answers a range (epsilon) query over the requested
// shard subset (nil = all owned), fanning out on pool under pl, and returns
// the collector with every qualifying series under its global ID and its
// exact squared sum.
func (g *Group) RangeSearchShards(q index.Query, eps float64, reqs []int, pool *parallel.Pool, pl *index.Planner) (*index.Collector, error) {
	return shardsInto(g, q, reqs, pool, pl, index.NewRangeCollector(eps), g.rangeScan)
}

// ApproxSearchShards answers an approximate k-NN over the requested shard
// subset (nil = all owned), fanning out on pool under pl. Like every
// approximate search it carries no distance guarantee, so distributed
// approximate answers match the merge contract (up to k deduplicated results
// ordered by (distance, ID)) rather than being byte-identical across
// topologies.
func (g *Group) ApproxSearchShards(q index.Query, k int, reqs []int, pool *parallel.Pool, pl *index.Planner) (*index.Collector, error) {
	return shardsInto(g, q, reqs, pool, pl, index.NewCollector(k), g.approx)
}

// ExactInto, ApproxInto and RangeInto are the cores (index.Index): every
// owned shard probed on the context's pool, or, without one, serially with
// the context itself. One table fill then serves every shard, which is what
// makes a batch over a sharded build (index.Batch) cheap.
func (g *Group) ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return g.exact(q, col, g.owned, ctx)
}

func (g *Group) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return g.approx(q, col, g.owned, ctx)
}

func (g *Group) RangeInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	return g.rangeScan(q, col, g.owned, ctx)
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
	g.idsMu.RLock()
	defer g.idsMu.RUnlock()
	return g.prepare(id, g.lastID)
}

// PrepareBatch checks that ids may be appended in their order: each as
// PrepareInsert checks it once the ones before it are in. It applies
// nothing, and on a bad ID returns its position in ids and PrepareInsert's
// error for it, so a caller can refuse the whole batch before any of it
// applies.
func (g *Group) PrepareBatch(ids []int64) (int, error) {
	g.idsMu.RLock()
	defer g.idsMu.RUnlock()
	last := maps.Clone(g.lastID)
	for i, id := range ids {
		si, err := g.prepare(id, last)
		if err != nil {
			return i, err
		}
		last[si] = id
	}
	return 0, nil
}

// prepare is PrepareInsert's check of id against the last IDs in last.
// Callers hold idsMu.
func (g *Group) prepare(id int64, last map[int]int64) (int, error) {
	si := Of(id, g.nshards)
	if !g.Owns(si) {
		return 0, fmt.Errorf("shard: ID %d belongs to shard %d, not owned (owned %v)", id, si, g.owned)
	}
	if id <= last[si] {
		return 0, fmt.Errorf("shard: ID %d not ascending on shard %d (last %d)", id, si, last[si])
	}
	if next := nextIDFor(si, last[si], g.nshards); next >= 0 && id != next {
		return 0, fmt.Errorf("shard: ID %d skips shard %d's next expected ID %d (last %d): this replica missed a write",
			id, si, next, last[si])
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
// to shard si through the shard's own build (which appends to its raw
// series file before the sub-index sees the series). Callers must have validated
// the append with PrepareInsert under the same external insert lock. On a
// group that owns every shard the next dense ID is Count().
func (g *Group) NoteInsert(si int, id int64) {
	g.idsMu.Lock()
	defer g.idsMu.Unlock()
	g.shards[si].IDs = append(g.shards[si].IDs, id)
	g.lastID[si] = id
	g.count++
}

// index.Inserter is deliberately not implemented: inserts carry explicit
// global IDs (PrepareInsert/NoteInsert around the owning shard's own
// ingest), and on a group owning a subset a plain Insert assigning the
// local count as the ID would corrupt the global ID space.
var _ index.Index = (*Group)(nil)
