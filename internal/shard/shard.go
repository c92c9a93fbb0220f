// Package shard implements horizontal partitioning of data series indexes:
// a Sharded index hash-partitions series across N independent sub-indexes,
// each on its own simulated disk, and answers queries by fanning probes
// across the shards and merging per-shard answers through the deterministic
// squared-space collectors of package index.
//
// # Placement
//
// Series are placed by a fixed hash of their global ID (Of), so the
// partition is a pure function of (ID, shard count): rebuilding, reopening,
// or replaying an ingest stream always reproduces the same placement, and a
// snapshot only needs to record the shard count to recover the full
// global-to-local ID mapping (Partition).
//
// # Determinism
//
// A sharded search returns results byte-identical to the equivalent
// unsharded index's serial search. Three facts combine to give that
// guarantee:
//
//   - Distances are per-pair: the distance between a query and a series is
//     computed by the same accumulation whichever shard holds the series,
//     so every candidate carries the same distance in both layouts.
//   - Per-shard exact top-k is exhaustive over the shard's subset, so the
//     union of per-shard top-k sets contains the global top-k.
//   - The merge collector's contents are a pure function of the offered
//     candidate set ordered by (distance, global ID) — see index.Collector
//     — so merging shard answers in any order, on any number of workers,
//     selects exactly the global top-k. Exact merges fold the shards'
//     collectors together on their original accumulated squared sums
//     (index.CollSearcher), the very keys the unsharded collector compares,
//     so even sub-ulp tie-breaks at the k boundary are preserved.
//
// Shard-local collectors tie-break on local IDs, but hash placement
// preserves relative order (local IDs are assigned in ascending global-ID
// order), so local and global tie-breaking agree within a shard.
package shard

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// Of returns the shard that owns global series ID id among n shards. The
// mapping is a fixed avalanche hash (the 64-bit finalizer of MurmurHash3),
// so placement is stable across processes and uniform even for the
// sequential IDs the facades assign.
func Of(id int64, n int) int {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// Partition assigns global IDs 0..n-1 to shards by Of, returning each
// shard's global IDs in ascending order. partition[s][local] is therefore
// the local-to-global ID mapping of shard s — the inverse of placement —
// which is all a reader needs to reconstruct a sharded index's identity
// space from (n, shards) alone.
func Partition(n int64, shards int) [][]int64 {
	out := make([][]int64, shards)
	for id := int64(0); id < n; id++ {
		s := Of(id, shards)
		out[s] = append(out[s], id)
	}
	return out
}

// Shard is one partition of a sharded index: an independent sub-index on
// its own disk, plus the local-to-global ID mapping of the series it holds.
type Shard struct {
	Index index.Index
	Disk  storage.Backend
	// Reader is the page reader the shard's index reads through — the disk
	// itself, or a buffer pool over it. When it provides statistics
	// (storage.StatsProvider — *bufpool.Pool does), shard-level accounting
	// includes its cache hit/miss counters; nil falls back to Disk.
	Reader storage.PageReader
	IDs    []int64 // IDs[local] = global ID, ascending
}

// IOStats returns the shard's I/O accounting: the reader's cache-aware
// statistics when available, the bare disk's otherwise.
func (sh Shard) IOStats() storage.Stats {
	if sp, ok := sh.Reader.(storage.StatsProvider); ok {
		return sp.Stats()
	}
	return sh.Disk.Stats()
}

// ids snapshots the shard's local-to-global ID mapping under mu, the
// owner's lock over every IDs slice it holds: inserts append under the
// write lock and never touch an index a snapshot can see.
func (sh *Shard) ids(mu *sync.RWMutex) []int64 {
	mu.RLock()
	ids := sh.IDs
	mu.RUnlock()
	return ids
}

// exactInto runs the shard's exact top-k and folds it into col under global
// IDs. Sub-indexes exposing their collector (index.CollSearcher — CTree and
// CLSM do) merge on the exact accumulated squared sums, making the sharded
// selection bit-for-bit the unsharded one; others fall back to re-squared
// reported distances, which preserves each distance exactly (IEEE-754 sqrt
// is correctly rounded, so sqrt(fl(d*d)) == d) but not necessarily the last
// ulp of the collector's squared ordering key. ctx must already be filled
// for q and is used serially; callers own the cross-shard parallelism.
func (sh *Shard) exactInto(mu *sync.RWMutex, q index.Query, k int, ctx *index.SearchCtx, col *index.Collector) error {
	cs, ok := sh.Index.(index.CollSearcher)
	if !ok {
		rs, err := sh.Index.ExactSearch(q, k)
		if err != nil {
			return err
		}
		offer(sh, mu, col, rs)
		return nil
	}
	sub, err := cs.ExactSearchColl(q, k, ctx)
	if err != nil {
		return err
	}
	ids := sh.ids(mu)
	sub.Each(func(id, ts int64, distSq float64) {
		col.AddSq(ids[id], ts, distSq)
	})
	return nil
}

// approxInto probes the shard's approximate path and folds the answer into
// col under global IDs.
func (sh *Shard) approxInto(mu *sync.RWMutex, q index.Query, k int, col *index.Collector) error {
	rs, err := sh.Index.ApproxSearch(q, k)
	if err != nil {
		return err
	}
	offer(sh, mu, col, rs)
	return nil
}

// rangeInto runs the shard's range search and folds every qualifying series
// into col under its global ID. Unlike the k-NN heap, re-squaring reported
// distances is exact here: a range collector performs no squared-key
// selection — membership (sqrt(distSq) > eps) and the final ordering
// (Results sorts on (Dist, ID)) are both decided in true-distance space.
func (sh *Shard) rangeInto(mu *sync.RWMutex, q index.Query, eps float64, col *index.RangeCollector) error {
	rs, ok := sh.Index.(index.RangeSearcher)
	if !ok {
		return fmt.Errorf("shard: %s does not support range search", sh.Index.Name())
	}
	found, err := rs.RangeSearch(q, eps)
	if err != nil {
		return err
	}
	offer(sh, mu, col, found)
	return nil
}

// offer re-squares one shard's rendered results into a collector,
// translating local IDs to global.
func offer[C interface {
	AddSq(id, ts int64, distSq float64) bool
}](sh *Shard, mu *sync.RWMutex, col C, rs []index.Result) {
	ids := sh.ids(mu)
	for _, r := range rs {
		col.AddSq(ids[r.ID], r.TS, r.Dist*r.Dist)
	}
}

// Sharded is a horizontally partitioned index. It implements index.Index
// (and index.RangeSearcher / index.Inserter / the batch interfaces when its
// sub-indexes do), fanning probes across shards on a bounded worker pool
// and merging through deterministic collectors. Like the underlying
// indexes, a Sharded is safe for concurrent searches; inserts require
// external serialization against searches.
type Sharded struct {
	cfg     index.Config
	shards  []Shard
	pool    *parallel.Pool
	planner *index.Planner

	// idsMu guards count and every shard's IDs slice so inserts may run
	// concurrently with searches: readers snapshot a slice header under the
	// read lock (appends never touch an index a snapshot can see), writers
	// append under the write lock.
	idsMu sync.RWMutex
	count int64
}

// New assembles a sharded index from its shards. Sub-indexes should be
// configured with serial internal search pools: the sharded layer owns the
// fan-out (parallelism <= 0 selects GOMAXPROCS), and nesting pools only
// adds scheduling overhead. Every shard must hold exactly len(IDs) series.
func New(cfg index.Config, shards []Shard, parallelism int) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: need at least one shard")
	}
	s := &Sharded{cfg: cfg, shards: shards, pool: parallel.New(parallelism)}
	for i, sh := range shards {
		if sh.Index == nil {
			return nil, fmt.Errorf("shard: shard %d has no index", i)
		}
		if got := sh.Index.Count(); got != int64(len(sh.IDs)) {
			return nil, fmt.Errorf("shard: shard %d holds %d series but maps %d IDs", i, got, len(sh.IDs))
		}
		s.count += int64(len(sh.IDs))
	}
	return s, nil
}

// Name identifies the sharded variant, e.g. "Sharded4xCTreeFull".
func (s *Sharded) Name() string {
	return fmt.Sprintf("Sharded%dx%s", len(s.shards), s.shards[0].Index.Name())
}

// Count returns the total number of indexed series across all shards.
func (s *Sharded) Count() int64 {
	s.idsMu.RLock()
	defer s.idsMu.RUnlock()
	return s.count
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shards exposes the underlying shards (read-only by convention): the
// server uses it for per-shard statistics.
func (s *Sharded) Shards() []Shard { return s.shards }

// Config returns the shared summarization configuration.
func (s *Sharded) Config() index.Config { return s.cfg }

// SetParallelism re-sizes the cross-shard worker pool (n <= 0 selects
// GOMAXPROCS; 1 probes shards serially). Answers are identical at every
// setting. Call only while no search is in flight.
func (s *Sharded) SetParallelism(n int) { s.pool = parallel.New(n) }

// SetPlanner installs the query planner that orders the cross-shard fan-out
// by each shard's best synopsis envelope bound and skips shards that cannot
// improve the current answer. The same *index.Planner is typically also
// installed in every shard's sub-index, so run- and leaf-level planning
// share one set of counters. nil (the default) plans
// with default settings; a planner with Disabled set restores the unplanned
// fan-out. Call only while no search is in flight.
func (s *Sharded) SetPlanner(pl *index.Planner) { s.planner = pl }

// shardBoundSq returns the squared envelope lower bound between the query
// and every series in shard i: the minimum of the shard's per-unit synopsis
// bounds, with window-disjoint units contributing +Inf. A shard whose index
// exposes no synopses — or whose synopses do not cover every entry (an
// unflushed write buffer, a pre-synopsis snapshot) — yields 0: no bound,
// always probe. An empty (or fully out-of-window) shard yields +Inf.
func (s *Sharded) shardBoundSq(i int, q index.Query, ctx *index.SearchCtx) float64 {
	prov, ok := s.shards[i].Index.(zonestat.Provider)
	if !ok {
		return 0
	}
	syns, complete := prov.PlanSynopses()
	if !complete {
		return 0
	}
	bound := math.Inf(1)
	for _, syn := range syns {
		var b float64
		if q.Windowed && syn != nil && !syn.IntersectsWindow(q.MinTS, q.MaxTS) {
			b = math.Inf(1)
		} else {
			b = ctx.P.SynopsisBoundSq(syn)
		}
		if b < bound {
			bound = b
		}
	}
	return bound
}

// IOStats returns the disk statistics aggregated across every shard,
// including buffer-pool hit/miss counters when shards read through one.
func (s *Sharded) IOStats() storage.Stats {
	var agg storage.Stats
	for _, sh := range s.shards {
		agg = agg.Add(sh.IOStats())
	}
	return agg
}

// ShardStats returns each shard's statistics (cache-aware when the shard
// reads through a buffer pool), in shard order.
func (s *Sharded) ShardStats() []storage.Stats {
	out := make([]storage.Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.IOStats()
	}
	return out
}

// TotalPages returns the page count summed over every shard's disk.
func (s *Sharded) TotalPages() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Disk.TotalPages()
	}
	return n
}

// ExactSearch returns the true k nearest neighbors across all shards:
// every shard answers an exact top-k over its subset (concurrently, each on
// its own disk, each worker with its own pooled search context), and the
// per-shard collectors merge on their exact squared sums. Results are
// byte-identical to the unsharded index's.
func (s *Sharded) ExactSearch(q index.Query, k int) ([]index.Result, error) {
	ctxs := make([]*index.SearchCtx, s.pool.WorkersFor(len(s.shards)))
	for i := range ctxs {
		ctxs[i] = index.AcquireCtx(q, s.cfg)
	}
	defer func() {
		for _, c := range ctxs {
			c.Release()
		}
	}()
	return s.exactShards(q, k, s.pool, ctxs)
}

// ExactSearchCtx answers an exact k-NN query probing shards serially with a
// caller-managed context (already filled for q). One table fill serves
// every shard — the shards share a summarization configuration — which is
// what makes batched sharded search cheap: the batch executor parallelizes
// across queries while each query pays a single context.
func (s *Sharded) ExactSearchCtx(q index.Query, k int, ctx *index.SearchCtx) ([]index.Result, error) {
	return s.exactShards(q, k, index.SerialPool, []*index.SearchCtx{ctx})
}

// exactShards probes the shards through the planned-probe executor, worker
// slot w of pool searching with ctxs[w]. The plan lives in ctxs[0]'s outer
// buffer: each shard's inner index plans its own runs or leaves in the
// primary buffer of the same context.
func (s *Sharded) exactShards(q index.Query, k int, pool *parallel.Pool, ctxs []*index.SearchCtx) ([]index.Result, error) {
	col := index.NewCollector(k)
	err := index.ProbeUnits(index.ProbePlan{
		Planner: s.planner, Pool: pool, Trace: q.Trace, Kind: "shard", Units: ctxs[0].OuterPlanUnits(len(s.shards)),
	}, col, func(i int) float64 {
		return s.shardBoundSq(i, q, ctxs[0])
	}, func(i, w int, col *index.Collector) error {
		return s.shards[i].exactInto(&s.idsMu, q, k, ctxs[w], col)
	})
	if err != nil {
		return nil, err
	}
	return col.Results(), nil
}

// ApproxSearch probes every shard's approximate path and merges the best k.
// Like every approximate search it carries no distance guarantee; it keeps
// the approximate contract (up to k deduplicated results with true
// distances, ordered by (distance, ID)) while paying one shard-local probe
// per shard.
func (s *Sharded) ApproxSearch(q index.Query, k int) ([]index.Result, error) {
	col := index.NewCollector(k)
	err := index.FanOut(s.pool, len(s.shards), col, func(i, _ int, col *index.Collector) error {
		return s.shards[i].approxInto(&s.idsMu, q, k, col)
	})
	if err != nil {
		return nil, err
	}
	return col.Results(), nil
}

// RangeSearch returns every series within eps of the query: shards scan
// concurrently and the per-shard answers (each exhaustive over its subset)
// merge into one deduplicated, distance-sorted result, byte-identical to
// the unsharded answer. The epsilon bound is static, so a shard whose
// envelope bound exceeds it is dropped before the fan-out — no series in
// the shard can lie within eps of the query. Every shard must implement
// index.RangeSearcher.
func (s *Sharded) RangeSearch(q index.Query, eps float64) ([]index.Result, error) {
	ctx := index.AcquireCtx(q, s.cfg)
	defer ctx.Release()
	col := index.NewRangeCollector(eps)
	err := index.ProbeUnits(index.ProbePlan{
		Planner: s.planner, Pool: s.pool, Trace: q.Trace, Kind: "shard", Units: ctx.OuterPlanUnits(len(s.shards)),
	}, col, func(i int) float64 {
		return s.shardBoundSq(i, q, ctx)
	}, func(i, _ int, col *index.RangeCollector) error {
		return s.shards[i].rangeInto(&s.idsMu, q, eps, col)
	})
	if err != nil {
		return nil, err
	}
	return col.Results(), nil
}

// ExactSearchBatch answers one exact k-NN query per element of qs,
// pipelined over the cross-shard pool: each worker slot reuses one search
// context across every query it executes, and each query probes all shards
// with that single context. out[i] is byte-identical to ExactSearch(qs[i], k).
func (s *Sharded) ExactSearchBatch(qs []index.Query, k int) ([][]index.Result, error) {
	return index.Batch(s.pool, s.cfg, qs, func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error) {
		return s.ExactSearchCtx(q, k, ctx)
	})
}

// Insert routes one series to its hash-assigned shard. The global ID is the
// current count (insertion order), exactly as an unsharded index would
// assign it; every sub-index must implement index.Inserter.
func (s *Sharded) Insert(ser series.Series, ts int64) error {
	s.idsMu.Lock()
	id := s.count
	s.idsMu.Unlock()
	si := Of(id, len(s.shards))
	ins, ok := s.shards[si].Index.(index.Inserter)
	if !ok {
		return fmt.Errorf("shard: %s does not support inserts", s.shards[si].Index.Name())
	}
	if err := ins.Insert(ser, ts); err != nil {
		return err
	}
	s.idsMu.Lock()
	s.shards[si].IDs = append(s.shards[si].IDs, id)
	s.count++
	s.idsMu.Unlock()
	return nil
}

// NoteInsert records that the caller inserted the series holding the next
// global ID into shard si through the shard's own facade (which keeps
// facade-level raw mirrors in sync before the sub-index sees the series).
// The target must match the hash placement; a mismatch would silently
// corrupt the ID translation, so it panics instead.
func (s *Sharded) NoteInsert(si int) {
	s.idsMu.Lock()
	defer s.idsMu.Unlock()
	id := s.count
	if want := Of(id, len(s.shards)); si != want {
		panic(fmt.Sprintf("shard: NoteInsert(%d) but ID %d belongs to shard %d", si, id, want))
	}
	s.shards[si].IDs = append(s.shards[si].IDs, id)
	s.count++
}

var (
	_ index.Index         = (*Sharded)(nil)
	_ index.RangeSearcher = (*Sharded)(nil)
	_ index.Inserter      = (*Sharded)(nil)
	_ index.CtxSearcher   = (*Sharded)(nil)
	_ index.BatchSearcher = (*Sharded)(nil)
)
