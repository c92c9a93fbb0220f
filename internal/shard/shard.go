// Package shard implements horizontal partitioning of data series indexes:
// series are hash-partitioned across N independent sub-indexes, each on its
// own disk, and a Group over the shards one process holds answers queries by
// fanning probes across them and merging per-shard answers through the
// deterministic squared-space collectors of package index. A Group that
// owns every shard is the in-process sharded index; one that owns a subset
// is a cluster node's share of it.
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
//     selects exactly the global top-k. Every merge — exact, approximate
//     and range, whatever the sub-index — folds the shards' collectors
//     together on their original accumulated squared sums
//     (index.Collector.MergeMapped), the very keys the unsharded collector
//     compares, so even sub-ulp tie-breaks at the k boundary are preserved.
//
// Shard-local collectors tie-break on local IDs, but hash placement
// preserves relative order (local IDs are assigned in ascending global-ID
// order), so local and global tie-breaking agree within a shard.
package shard

import (
	"math"
	"sync"

	"repro/internal/index"
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

// boundSq returns the squared envelope lower bound between the query and
// every series in the shard: the minimum of the shard's per-unit synopsis
// bounds, with window-disjoint units contributing +Inf. A shard whose index
// exposes no synopses — or whose synopses do not cover every entry (an
// unflushed write buffer) — yields 0: no bound, always probe. An empty (or
// fully out-of-window) shard yields +Inf.
func (sh *Shard) boundSq(q index.Query, ctx *index.SearchCtx) float64 {
	prov, ok := sh.Index.(zonestat.Provider)
	if !ok {
		return 0
	}
	syns, complete := prov.PlanSynopses()
	if !complete {
		return 0
	}
	bound := math.Inf(1)
	for _, syn := range syns {
		bound = min(bound, ctx.P.UnitBoundSq(q, syn))
	}
	return bound
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

// into searches the shard through one of its index's cores into col.Sub() —
// an empty pooled collector of col's k and limit, filled under local IDs —
// and folds that into col under global IDs on the exact accumulated squared
// sums, which makes the sharded selection bit-for-bit the unsharded one. The
// ID mapping is snapshotted after the search: an insert the search saw is
// then in it.
func into(sh *Shard, mu *sync.RWMutex, core func(index.Query, *index.Collector, *index.SearchCtx) error, q index.Query, ctx *index.SearchCtx, col *index.Collector) error {
	sub := col.Sub()
	if err := core(q, sub, ctx); err != nil {
		return err
	}
	col.MergeMapped(sub, sh.ids(mu))
	return nil
}
