package coconut

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/clsm"
	"repro/internal/compact"
	"repro/internal/fsx"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/storage"
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
type Sharded struct {
	sh      *shard.Sharded
	kind    string // "tree" or "lsm"
	trees   []*Tree
	lsms    []*LSM
	cache   *bufpool.Cache // shared across every shard's disk; nil uncached
	planner *index.Planner // ONE planner shared by every shard
	cfg     index.Config
	hostFS  fsx.FS // filesystem for the snapshot manifest; nil means the OS

	insertMu sync.Mutex         // serializes global ID assignment across shards
	sched    *compact.Scheduler // ONE background-merge pool shared by every shard; nil inline
	closed   atomic.Bool
}

// shardKindTree and shardKindLSM tag snapshots and drive facade dispatch.
const (
	shardKindTree = "tree"
	shardKindLSM  = "lsm"
)

// innerOptions returns the per-shard build options: shards run their
// internal scans serially because the sharded layer owns the fan-out, and
// caching is owned by the shared cache the sharded facade attaches (one
// budget for the whole index, not CacheBytes per shard). Likewise the
// WAL, storage root, and compaction scheduler are owned at the sharded
// level (per-shard log and page-file directories, one shared worker
// pool), so the per-shard knobs clear; callers re-point StorageDir at
// the shard's own subdirectory via shardDir.
func innerOptions(opts Options) Options {
	opts.Parallelism = 1
	opts.CacheBytes = 0
	opts.WALDir = ""
	opts.StorageDir = ""
	opts.CompactionWorkers = 0
	return opts
}

// shardDir names shard i's directory under a sharded root (the same
// shard-%03d layout for WAL roots and file-backed storage roots).
func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// sharedCache builds the one cache every shard's disk attaches to, sized
// by Options.CacheBytes over the whole sharded index; nil when uncached.
func sharedCache(opts Options) *bufpool.Cache {
	if opts.CacheBytes <= 0 {
		return nil
	}
	pageSize := opts.PageSize
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	return bufpool.NewCache(opts.CacheBytes, pageSize)
}

// BuildShardedTree bulk-loads a sharded CoconutTree: series are
// hash-partitioned across n shards (IDs are their positions in data, as in
// BuildTree) and the shards bulk-load concurrently on a worker pool bounded
// by opts.Parallelism, each on its own simulated disk.
func BuildShardedTree(data [][]float64, n int, opts Options) (*Sharded, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("coconut: shard count must be >= 1, got %d", n)
	}
	part := shard.Partition(int64(len(data)), n)
	trees := make([]*Tree, n)
	cache := sharedCache(opts)
	planner := opts.newPlanner()
	pool := parallel.New(opts.Parallelism)
	err = pool.ForEach(n, func(_, i int) error {
		sub := make([][]float64, len(part[i]))
		for j, gid := range part[i] {
			sub[j] = data[gid]
		}
		inner := innerOptions(opts)
		if opts.StorageDir != "" {
			inner.StorageDir = shardDir(opts.StorageDir, i)
		}
		t, berr := buildTreeCache(sub, inner, cache, planner)
		if berr != nil {
			return fmt.Errorf("coconut: building shard %d: %w", i, berr)
		}
		trees[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	sh, err := assembleShardedTrees(trees, part, cfg, opts.Parallelism, cache, planner)
	if err != nil {
		return nil, err
	}
	sh.hostFS = opts.FS
	return sh, nil
}

// assembleShardedTrees wires built (or reopened) per-shard trees into one
// sharded index, re-pointing every shard at the single shared planner so
// skip counters aggregate across the whole index.
func assembleShardedTrees(trees []*Tree, part [][]int64, cfg index.Config, parallelism int, cache *bufpool.Cache, planner *index.Planner) (*Sharded, error) {
	shards := make([]shard.Shard, len(trees))
	for i, t := range trees {
		t.planner = planner
		t.tree.SetPlanner(planner)
		shards[i] = shard.Shard{Index: t.tree, Disk: t.disk, IDs: part[i]}
		if t.pool != nil {
			shards[i].Reader = t.pool
		}
	}
	sh, err := shard.New(cfg, shards, parallelism)
	if err != nil {
		return nil, err
	}
	sh.SetPlanner(planner)
	return &Sharded{sh: sh, kind: shardKindTree, trees: trees, cache: cache, planner: planner, cfg: cfg}, nil
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
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("coconut: shard count must be >= 1, got %d", n)
	}
	var sched *compact.Scheduler
	if opts.CompactionWorkers > 0 {
		sched = compact.NewScheduler(opts.CompactionWorkers)
	}
	lsms := make([]*LSM, n)
	cache := sharedCache(opts)
	planner := opts.newPlanner()
	for i := range lsms {
		walDir := ""
		if opts.WALDir != "" {
			walDir = shardDir(opts.WALDir, i)
		}
		inner := innerOptions(opts)
		inner.Durability = opts.Durability
		if opts.StorageDir != "" {
			inner.StorageDir = shardDir(opts.StorageDir, i)
		}
		l, lerr := newLSMFull(inner, cache, sched, planner, walDir)
		if lerr != nil {
			for _, built := range lsms[:i] {
				built.Close()
			}
			if sched != nil {
				sched.Close()
			}
			return nil, lerr
		}
		lsms[i] = l
	}
	// Rebuild the global ID space. Fresh logs leave every shard empty and
	// the partition trivially empty; recovered logs restore per-shard
	// counts whose hash partition must match them shard for shard. A
	// mismatch means the logs are mutually inconsistent — a wrong shard
	// count, or a crash under batched durability that lost one shard's
	// un-synced group-commit window while a later-ID insert survived in
	// another shard — and the only safe answer is to refuse: guessing a
	// placement would silently mislabel every ID after the gap. Use
	// DurabilitySync (or Close, which syncs every shard) when sharded
	// recovery must be exact to the last acknowledged insert.
	closeAll := func() {
		for _, l := range lsms {
			l.Close()
		}
		if sched != nil {
			sched.Close()
		}
	}
	var total int64
	for _, l := range lsms {
		total += int64(l.Count())
	}
	part := shard.Partition(total, n)
	for i, l := range lsms {
		if len(part[i]) != l.Count() {
			closeAll()
			return nil, fmt.Errorf("coconut: recovered shard %d holds %d series but the hash placement of %d total assigns it %d (wrong shard count, or a crash lost part of a batched group-commit window — see NewShardedLSM)",
				i, l.Count(), total, len(part[i]))
		}
	}
	sh, err := assembleShardedLSMs(lsms, part, cfg, opts.Parallelism, cache, planner)
	if err != nil {
		closeAll()
		return nil, err
	}
	sh.sched = sched
	sh.hostFS = opts.FS
	return sh, nil
}

// assembleShardedLSMs mirrors assembleShardedTrees for LSM shards, sharing
// one planner across every shard.
func assembleShardedLSMs(lsms []*LSM, part [][]int64, cfg index.Config, parallelism int, cache *bufpool.Cache, planner *index.Planner) (*Sharded, error) {
	shards := make([]shard.Shard, len(lsms))
	for i, l := range lsms {
		l.planner = planner
		l.lsm.SetPlanner(planner)
		shards[i] = shard.Shard{Index: l.lsm, Disk: l.disk, IDs: part[i]}
		if l.pool != nil {
			shards[i].Reader = l.pool
		}
	}
	sh, err := shard.New(cfg, shards, parallelism)
	if err != nil {
		return nil, err
	}
	sh.SetPlanner(planner)
	return &Sharded{sh: sh, kind: shardKindLSM, lsms: lsms, cache: cache, planner: planner, cfg: cfg}, nil
}

// Kind reports the shard index variant: "tree" or "lsm".
func (s *Sharded) Kind() string { return s.kind }

// Count returns the total number of indexed series across all shards.
func (s *Sharded) Count() int { return int(s.sh.Count()) }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return s.sh.NumShards() }

// SetParallelism re-sizes the cross-shard worker pool (n <= 0 selects
// GOMAXPROCS; 1 probes shards serially). Answers are identical at every
// setting. Call only while no search is in flight.
func (s *Sharded) SetParallelism(n int) { s.sh.SetParallelism(n) }

// Insert adds one series with a timestamp, routing it to its hash-assigned
// shard. The facade keeps the shard's raw series mirror in sync, so
// non-materialized shards keep answering searches.
func (s *Sharded) Insert(ser []float64, ts int64) error {
	if len(ser) != s.cfg.SeriesLen {
		return fmt.Errorf("coconut: series length %d, want %d", len(ser), s.cfg.SeriesLen)
	}
	s.insertMu.Lock()
	defer s.insertMu.Unlock()
	si := shard.Of(s.sh.Count(), s.sh.NumShards())
	// The facade shard insert (Tree.Insert / LSM.Insert) appends to the
	// shard's raw store and its internal index; the sharded layer only has
	// to record the new global ID against the shard.
	var err error
	switch s.kind {
	case shardKindTree:
		err = s.trees[si].Insert(ser, ts)
	default:
		err = s.lsms[si].Insert(ser, ts)
	}
	if err != nil {
		return err
	}
	s.sh.NoteInsert(si)
	return nil
}

// Flush forces every LSM shard's in-memory buffer into a sorted on-disk
// run. On a tree-kind index it is a no-op.
func (s *Sharded) Flush() error {
	for _, l := range s.lsms {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Quiesce waits until no shard has background-merge work pending or in
// flight (a no-op without CompactionWorkers).
func (s *Sharded) Quiesce() error {
	for _, l := range s.lsms {
		if err := l.Quiesce(); err != nil {
			return err
		}
	}
	return nil
}

// CompactionStats returns each LSM shard's ingest/compaction state, in
// shard order (nil for tree-kind indexes).
func (s *Sharded) CompactionStats() []clsm.CompactionStats {
	if s.kind != shardKindLSM {
		return nil
	}
	out := make([]clsm.CompactionStats, len(s.lsms))
	for i, l := range s.lsms {
		out[i] = l.CompactionStats()
	}
	return out
}

// WALStats returns each shard's log accounting; ok is false when the index
// was created without a WAL.
func (s *Sharded) WALStats() (out []wal.Stats, ok bool) {
	for _, l := range s.lsms {
		st, has := l.WALStats()
		if !has {
			return nil, false
		}
		out = append(out, st)
	}
	return out, len(out) > 0
}

// Close shuts down every shard (waiting out background merges, syncing and
// closing per-shard WALs, releasing pools) and then the shared compaction
// scheduler. Idempotent; call with no insert in flight.
func (s *Sharded) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	for _, l := range s.lsms {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	for _, t := range s.trees {
		if cerr := t.Close(); err == nil {
			err = cerr
		}
	}
	if s.sched != nil {
		if cerr := s.sched.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Search returns the exact k nearest neighbors of q, byte-identical to the
// unsharded index's answer: shards scan concurrently and their exact
// per-shard top-k answers merge deterministically.
func (s *Sharded) Search(q []float64, k int) ([]Match, error) {
	rs, err := s.sh.ExactSearch(index.NewQuery(series.Series(q), s.cfg), k)
	return convert(rs), err
}

// SearchApprox probes every shard's approximate path (one or two page reads
// per shard) and merges the best k. No exactness guarantee; results keep
// the approximate contract: up to k deduplicated matches with true
// distances, ordered by (distance, ID).
func (s *Sharded) SearchApprox(q []float64, k int) ([]Match, error) {
	rs, err := s.sh.ApproxSearch(index.NewQuery(series.Series(q), s.cfg), k)
	return convert(rs), err
}

// SearchRange returns every indexed series within Euclidean distance eps of
// q, sorted by distance — byte-identical to the unsharded answer.
func (s *Sharded) SearchRange(q []float64, eps float64) ([]Match, error) {
	rs, err := s.sh.RangeSearch(index.NewQuery(series.Series(q), s.cfg), eps)
	return convert(rs), err
}

// SearchWindow returns the exact k nearest neighbors among entries whose
// timestamp lies in [minTS, maxTS], across all shards.
func (s *Sharded) SearchWindow(q []float64, k int, minTS, maxTS int64) ([]Match, error) {
	pq := index.NewQuery(series.Series(q), s.cfg).WithWindow(minTS, maxTS)
	rs, err := s.sh.ExactSearch(pq, k)
	return convert(rs), err
}

// SearchBatch answers one exact k-NN query per element of qs. The batch
// pipelines through pooled per-worker search contexts — one context per
// worker slot for the whole batch, refilled per query, its scratch buffers
// reused across queries — and each query probes all shards with that single
// context. out[i] is byte-identical to Search(qs[i], k); batching changes
// throughput, never answers.
func (s *Sharded) SearchBatch(qs [][]float64, k int) ([][]Match, error) {
	iqs, err := s.prepareBatch(qs)
	if err != nil {
		return nil, err
	}
	rss, err := s.sh.ExactSearchBatch(iqs, k)
	if err != nil {
		return nil, err
	}
	return convertBatch(rss), nil
}

func (s *Sharded) prepareBatch(qs [][]float64) ([]index.Query, error) {
	return prepareQueries(qs, s.cfg)
}

// Stats returns the I/O accounting aggregated across every shard's disk,
// including the shared buffer pool's hit/miss counters when one is
// configured (CacheBytes > 0 — one pool serves every shard), plus the
// shared query planner's skip counter.
func (s *Sharded) Stats() Stats {
	return toStats(s.sh.IOStats(), s.sh.TotalPages()).withPlanner(s.planner)
}

// ShardStats returns each shard's I/O accounting, in shard order (cache
// counters are per shard: each shard's disk has its own view of the shared
// pool).
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, s.sh.NumShards())
	for i, shd := range s.sh.Shards() {
		out[i] = toStats(shd.IOStats(), shd.Disk.TotalPages())
	}
	return out
}

// EnableCache installs one shared buffer pool of cacheBytes across every
// shard's disk (useful after OpenSharded, which reopens uncached). A
// no-op if a cache is already attached. Call only while no search is in
// flight.
func (s *Sharded) EnableCache(cacheBytes int64) error {
	if s.cache != nil || cacheBytes <= 0 {
		return nil
	}
	shards := s.sh.Shards()
	cache := bufpool.NewCache(cacheBytes, shards[0].Disk.PageSize())
	for i := range shards {
		pool, err := cache.Attach(shards[i].Disk)
		if err != nil {
			return err
		}
		shards[i].Reader = pool
		switch s.kind {
		case shardKindTree:
			s.trees[i].pool = pool
			s.trees[i].tree.UseReader(pool)
		default:
			s.lsms[i].pool = pool
			s.lsms[i].lsm.UseReader(pool)
		}
	}
	s.cache = cache
	return nil
}

// prepareQueries validates and prepares a batch of raw queries under cfg.
func prepareQueries(qs [][]float64, cfg index.Config) ([]index.Query, error) {
	iqs := make([]index.Query, len(qs))
	for i, q := range qs {
		if len(q) != cfg.SeriesLen {
			return nil, fmt.Errorf("coconut: query %d length %d, want %d", i, len(q), cfg.SeriesLen)
		}
		iqs[i] = index.NewQuery(series.Series(q), cfg)
	}
	return iqs, nil
}

func convertBatch(rss [][]index.Result) [][]Match {
	out := make([][]Match, len(rss))
	for i, rs := range rss {
		out[i] = convert(rs)
	}
	return out
}

// SearchBatch answers one exact k-NN query per element of qs against the
// tree, pipelined over the tree's worker pool: parallelism moves from
// within one scan to across queries, and each worker slot reuses one pooled
// search context (tables refilled per query, scratch persistent) for the
// whole batch. out[i] is byte-identical to Search(qs[i], k).
func (t *Tree) SearchBatch(qs [][]float64, k int) ([][]Match, error) {
	iqs, err := prepareQueries(qs, t.cfg)
	if err != nil {
		return nil, err
	}
	rss, err := t.tree.ExactSearchBatch(iqs, k)
	if err != nil {
		return nil, err
	}
	return convertBatch(rss), nil
}

// SearchBatch answers one exact k-NN query per element of qs against the
// LSM, pipelined over the LSM's worker pool exactly as Tree.SearchBatch.
// out[i] is byte-identical to Search(qs[i], k).
func (l *LSM) SearchBatch(qs [][]float64, k int) ([][]Match, error) {
	iqs, err := prepareQueries(qs, l.cfg)
	if err != nil {
		return nil, err
	}
	rss, err := l.lsm.ExactSearchBatch(iqs, k)
	if err != nil {
		return nil, err
	}
	return convertBatch(rss), nil
}
