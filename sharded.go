package coconut

import (
	"fmt"

	"repro/internal/assemble"
	"repro/internal/clsm"
	"repro/internal/series"
	"repro/internal/wal"
)

// Sharded is a horizontally partitioned index: N independent shards (each a
// Tree or LSM on its own simulated disk) holding hash-assigned partitions
// of the ingested series. Searches fan probes across the shards on a
// bounded worker pool and merge per-shard answers through the deterministic
// squared-space collectors, so Search and SearchRange return results
// byte-identical to the equivalent unsharded index at every shard count and
// parallelism setting; see internal/shard for the argument.
//
// Shards help when the machine has cores to spare for one query (each
// shard's scan runs on its own disk, with no shared pruning state to
// contend on), when build time matters (shards bulk-load concurrently), and
// as the unit of horizontal scale-out: the hash placement is a pure
// function of (series ID, shard count), so a partition computed here maps
// directly onto N machines. A single shard (ShardCount 1) behaves exactly
// like the unsharded index plus one ID translation.
type Sharded struct{ handle }

// buildSharded assembles an n-shard index of the family over ds.
func buildSharded(fam string, ds *series.Dataset, n int, opts Options) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("coconut: shard count must be >= 1, got %d", n)
	}
	spec := opts.spec(fam)
	spec.Shards = n
	b, err := assemble.Build(spec, ds)
	if err != nil {
		return nil, err
	}
	return &Sharded{handle{b: b, cfg: b.Config}}, nil
}

// BuildShardedTree bulk-loads a sharded CoconutTree: series are
// hash-partitioned across n shards (IDs are their positions in data, as in
// BuildTree) and the shards bulk-load concurrently on a worker pool bounded
// by opts.Parallelism, each on its own simulated disk.
func BuildShardedTree(data [][]float64, n int, opts Options) (*Sharded, error) {
	ds, err := dataset(data, opts.SeriesLen)
	if err != nil {
		return nil, err
	}
	return buildSharded("CTree", ds, n, opts)
}

// NewShardedLSM creates an empty sharded CoconutLSM with n shards, each a
// write-optimized LSM on its own disk. Inserted series route to their
// hash-assigned shard; IDs are assigned in insertion order, exactly as in
// an unsharded LSM.
//
// With opts.WALDir set, each shard keeps its own write-ahead log in a
// subdirectory (shard-000, shard-001, ...), and reopening over a directory
// that already holds logs replays every shard's tail — the global ID space
// is rebuilt from the deterministic hash placement, so recovery reproduces
// exactly the pre-crash sharded index. The logs must be mutually
// consistent for that rebuild: with DurabilityBatched a crash may lose
// one shard's un-synced group-commit window while later inserts survive
// in other shards, in which case recovery refuses (loudly) rather than
// mislabel IDs — use DurabilitySync, or sync via Close, when sharded
// crash recovery must cover every acknowledged insert. With
// opts.CompactionWorkers set, one scheduler of that many workers runs
// every shard's background merges, bounding the whole deployment's merge
// I/O, not each shard's.
func NewShardedLSM(n int, opts Options) (*Sharded, error) {
	return buildSharded("CLSM", nil, n, opts)
}

// Kind reports the shard index variant: "tree" or "lsm".
func (s *Sharded) Kind() string { return s.b.Kind() }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return s.b.Group.NShards() }

// Flush forces every LSM shard's in-memory buffer into a sorted on-disk
// run. On a tree-kind index it is a no-op.
func (s *Sharded) Flush() error { return s.b.Flush() }

// Quiesce waits until no shard has background-merge work pending or in
// flight (a no-op without CompactionWorkers).
func (s *Sharded) Quiesce() error { return s.b.Quiesce() }

// CompactionStats returns each LSM shard's ingest/compaction state, in
// shard order (nil for tree-kind indexes).
func (s *Sharded) CompactionStats() []clsm.CompactionStats {
	var out []clsm.CompactionStats
	for _, p := range s.b.Parts {
		if st, ok := p.CompactionStats(); ok {
			out = append(out, st)
		}
	}
	return out
}

// WALStats returns each shard's log accounting; ok is false when the index
// was created without a WAL.
func (s *Sharded) WALStats() (out []wal.Stats, ok bool) {
	for _, p := range s.b.Parts {
		st, has := p.WALStats()
		if !has {
			return nil, false
		}
		out = append(out, st)
	}
	return out, true
}

// SearchWindow returns the exact k nearest neighbors among entries whose
// timestamp lies in [minTS, maxTS], across all shards.
func (s *Sharded) SearchWindow(q []float64, k int, minTS, maxTS int64) ([]Match, error) {
	return s.searchWindow(q, k, minTS, maxTS)
}

// ShardStats returns each shard's I/O accounting, in shard order (cache
// counters are per shard: each shard's disk has its own view of the shared
// pool).
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, len(s.b.Parts))
	for i, p := range s.b.Parts {
		out[i] = toStats(p.IOStats(), p.TotalPages())
	}
	return out
}
