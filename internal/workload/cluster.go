package workload

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/bufpool"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/storage"
)

// This file builds the node-local side of the distributed serving tier: a
// cluster build hash-partitions the dataset into ClusterShards logical
// shards exactly as an in-process sharded build would, but materializes
// only the NodeShards subset on this node, wrapped in a shard.Group. A
// router (internal/cluster) fans queries across nodes and merges their
// per-shard exact squared sums, so the distributed answer is byte-identical
// to the single-node one at any node/shard topology.

// buildClusterGroup builds the NodeShards subset of a ClusterShards-way
// partitioned variant, one sub-build per owned shard (each on its own disk,
// sharing one buffer-pool cache and one planner), wrapped in a shard.Group.
func buildClusterGroup(variant string, ds *series.Dataset, cfg index.Config, opts BuildOptions) (*Built, error) {
	nsh := opts.ClusterShards
	ownedList := opts.NodeShards
	if len(ownedList) == 0 {
		return nil, fmt.Errorf("workload: cluster build needs node_shards (which of the %d shards this node holds)", nsh)
	}
	seen := make(map[int]bool, len(ownedList))
	for _, si := range ownedList {
		if si < 0 || si >= nsh {
			return nil, fmt.Errorf("workload: node shard %d outside [0, %d)", si, nsh)
		}
		if seen[si] {
			return nil, fmt.Errorf("workload: node shard %d listed twice", si)
		}
		seen[si] = true
	}
	part := shard.Partition(int64(ds.Count()), nsh)
	inner := opts
	inner.Shards = 0
	inner.ClusterShards = 0
	inner.NodeShards = nil
	inner.Parallelism = 1
	// Durable ingest stays an unsharded-build feature, as in buildSharded.
	inner.WALDir = ""
	inner.CompactionWorkers = 0
	if opts.CacheBytes > 0 {
		inner.cache = bufpool.NewCache(opts.CacheBytes, storage.DefaultPageSize)
		inner.CacheBytes = 0
	}
	inner.planner = opts.plannerFor()

	builts := make(map[int]*Built, len(ownedList))
	pool := parallel.New(opts.Parallelism)
	subs := make([]*Built, len(ownedList))
	start := time.Now()
	err := pool.ForEach(len(ownedList), func(_, i int) error {
		si := ownedList[i]
		sub := series.NewDataset(ds.Len)
		for _, gid := range part[si] {
			s, gerr := ds.Get(int(gid))
			if gerr != nil {
				return gerr
			}
			if _, aerr := sub.Append(s); aerr != nil {
				return aerr
			}
		}
		shardOpts := inner
		if opts.StorageDir != "" {
			shardOpts.StorageDir = filepath.Join(opts.StorageDir, fmt.Sprintf("shard-%03d", si))
		}
		b, berr := BuildVariant(variant, sub, cfg, shardOpts)
		if berr != nil {
			return fmt.Errorf("workload: building cluster shard %d: %w", si, berr)
		}
		subs[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &Built{Cache: inner.cache, BuildTime: time.Since(start)}
	out.Materialized = variant == "ADSFull" || variant == "CTreeFull" || variant == "CLSMFull"
	owned := make(map[int]*shard.Shard, len(ownedList))
	for i, si := range ownedList {
		b := subs[i]
		builts[si] = b
		sh := &shard.Shard{Index: b.Index, Disk: b.Disk, IDs: part[si]}
		if b.Pool != nil {
			sh.Reader = b.Pool
			out.ShardPools = append(out.ShardPools, b.Pool)
		}
		owned[si] = sh
		out.ShardDisks = append(out.ShardDisks, b.Disk)
		out.BuildStats = out.BuildStats.Add(b.BuildStats)
		out.IndexPages += b.IndexPages
		out.RawPages += b.RawPages
	}
	g, err := shard.NewGroup(cfg, nsh, owned)
	if err != nil {
		return nil, err
	}
	out.Planner = inner.planner
	out.Index = g
	out.Group = g
	out.groupBuilts = builts
	out.Disk = subs[0].Disk
	out.Raw = subs[0].Raw
	if len(out.ShardPools) > 0 {
		out.Pool = out.ShardPools[0]
	}
	return out, nil
}

// ClusterInsert appends one series under a router-assigned global ID — the
// node-side replica write path. The ID must hash-place into a shard this
// node owns and extend that shard's ID sequence strictly ascending
// (shard.Group.PrepareInsert); the series lands in the owning shard's
// sub-build through its normal ingest path, so raw mirrors stay in sync.
// Callers serialize cluster inserts against each other and against queries
// exactly as they do plain Ingest.
func (b *Built) ClusterInsert(id int64, s series.Series, ts int64) error {
	if b.Group == nil {
		return fmt.Errorf("workload: %s is not a cluster build", b.Index.Name())
	}
	si, err := b.Group.PrepareInsert(id)
	if err != nil {
		return err
	}
	sub := b.groupBuilts[si]
	if err := sub.Ingest(s, ts); err != nil {
		return err
	}
	b.Group.NoteInsert(si, id)
	return nil
}
