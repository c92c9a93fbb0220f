package workload

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/adsplus"
	"repro/internal/bufpool"
	"repro/internal/clsm"
	"repro/internal/compact"
	"repro/internal/ctree"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Variant names accepted by BuildVariant, matching Figure 1 of the paper.
var Variants = []string{"ADS+", "ADSFull", "CTree", "CTreeFull", "CLSM", "CLSMFull"}

// normStore adapts a dataset to the z-normalized raw store the indexes
// expect (indexes store and compare z-normalized series).
type normStore struct{ d *series.Dataset }

// Get returns the z-normalized series with the given ID.
func (n normStore) Get(id int) (series.Series, error) {
	s, err := n.d.Get(id)
	if err != nil {
		return nil, err
	}
	return s.ZNormalize(), nil
}

// Count returns the dataset size.
func (n normStore) Count() int { return n.d.Count() }

// GetInto implements series.IntoGetter: the raw series is normalized into
// dst, so repeated fetches through a scratch buffer allocate nothing.
func (n normStore) GetInto(id int, dst series.Series) (series.Series, error) {
	s, err := n.d.Get(id)
	if err != nil {
		return nil, err
	}
	return s.ZNormalizeInto(dst), nil
}

// NormStore wraps a dataset as a z-normalizing series.RawStore.
func NormStore(d *series.Dataset) series.RawStore { return normStore{d} }

// DiskRawStore materializes the z-normalized dataset onto the disk as the
// raw series file non-materialized indexes fetch from, charging its I/O to
// the disk like the paper's raw data file.
func DiskRawStore(d storage.Backend, ds *series.Dataset, name string) (*storage.RawFile, error) {
	rf, err := storage.CreateRawFile(d, name, ds.Len)
	if err != nil {
		return nil, err
	}
	for id := 0; id < ds.Count(); id++ {
		s, err := ds.Get(id)
		if err != nil {
			return nil, err
		}
		if _, err := rf.Append(s.ZNormalize()); err != nil {
			return nil, err
		}
	}
	if err := rf.Seal(); err != nil {
		return nil, err
	}
	return rf, nil
}

// BuildOptions tune BuildVariant.
type BuildOptions struct {
	// MemBudget is the construction memory in bytes (external sort for
	// CTree; write buffer for CLSM; insert buffer for ADS+). Default 1 MiB.
	MemBudget int
	// FillFactor applies to CTree (default 1.0).
	FillFactor float64
	// GrowthFactor applies to CLSM (default 4).
	GrowthFactor int
	// LeafCapacity applies to ADS+ (default 4 pages worth).
	LeafCapacity int
	// RawInMemory serves raw-series fetches from memory instead of the
	// on-disk raw file. The default (false) charges non-materialized query
	// fetches their page I/O, as in the paper.
	RawInMemory bool
	// Parallelism bounds worker goroutines for construction sorting and
	// searches of the built index. The default (0) means 1 — fully serial —
	// so experiment tables keep the paper's single-stream I/O accounting;
	// pass a higher value (or a negative one for GOMAXPROCS) to exercise
	// the parallel query engine.
	Parallelism int
	// Shards > 1 hash-partitions the dataset across that many independent
	// shards of the chosen variant, each on its own disk, wrapped in a
	// shard.Sharded that fans queries across them (see internal/shard).
	// Shard construction and cross-shard probing use the Parallelism pool;
	// per-shard internals stay serial. 0 or 1 builds the unsharded index.
	Shards int
	// CacheBytes sizes the buffer pool between the index and its disk(s):
	// index pages and raw-series pages are served from memory on repeat
	// access, and Cost charges only the misses. 0 (the default) keeps every
	// read on the simulated head — the paper-faithful accounting. Sharded
	// builds share one pool of this size across all shards. Results are
	// byte-identical at every cache size.
	CacheBytes int64
	// WALDir (CLSM variants, unsharded) makes ingest durable: every insert
	// is appended to a segmented write-ahead log in this host-filesystem
	// directory before it is buffered, manifests persist on every flush and
	// merge, and segments truncate once their entries are safely in an
	// on-disk run. The directory must be fresh. Empty disables the WAL.
	WALDir string
	// Durability selects the WAL group-commit policy: "" or "batched"
	// groups several inserts per fsync; "sync" fsyncs every insert.
	Durability string
	// CompactionWorkers (CLSM variants, unsharded) moves level merges onto
	// a background pool of that many workers; 0 keeps the synchronous
	// cascade inside flushes — the paper-faithful accounting.
	CompactionWorkers int
	// Compress stores on-disk pages (CTree leaves, CLSM runs) in the
	// packed encoding: delta/bit-packed keys, frame-of-reference IDs and
	// timestamps. More entries per page, lower I/O cost per query,
	// byte-identical results.
	Compress bool
	// StorageDir selects the file-backed storage backend: index and raw
	// pages live as page-aligned files under this host directory instead
	// of the simulated in-memory disk. Results and Stats are byte-for-byte
	// identical to the simulated backend; sharded builds give each shard
	// its own shard-NNN subdirectory. Empty (the default) keeps the
	// paper-faithful simulated disk.
	StorageDir string
	// ClusterShards > 0 builds the node-local portion of a distributed
	// index: the dataset is hash-partitioned into ClusterShards logical
	// shards (the same placement Shards uses), but only the NodeShards
	// subset is materialized here, wrapped in a shard.Group the cluster
	// router scatter-gathers over. Mutually exclusive with Shards.
	ClusterShards int
	// NodeShards lists which logical shards this node holds (each in
	// [0, ClusterShards), no duplicates). Required when ClusterShards > 0.
	NodeShards []int
	// DisablePlanner turns off statistics-driven probe ordering and
	// envelope skipping on the built index's query paths. Answers are
	// byte-identical either way; only I/O cost changes (the A/B switch
	// experiment E17 measures).
	DisablePlanner bool

	// cache, when set, is the shared frame store a sharded build hands each
	// of its per-shard sub-builds (CacheBytes then sizes nothing here).
	cache *bufpool.Cache
	// planner, when set, is the shared query planner a sharded build hands
	// each of its per-shard sub-builds.
	planner *index.Planner
}

// defaultDisablePlanner is the process-wide planner default, applied by
// BuildVariant to builds whose BuildOptions leave DisablePlanner unset.
// cmd/coconut-bench's -no-planner flag steers whole experiment sweeps
// through it. Set before any build runs; not safe to change concurrently.
var defaultDisablePlanner bool

// PlannerDefaults sets the process-wide planner default (see above).
func PlannerDefaults(disable bool) { defaultDisablePlanner = disable }

// defaultCompress, like the planner default, steers whole experiment
// sweeps through cmd/coconut-bench's -compress flag: builds whose
// BuildOptions leave Compress unset inherit it. Set before any build runs.
var defaultCompress bool

// CompressDefault sets the process-wide run-encoding default (see above).
func CompressDefault(on bool) { defaultCompress = on }

// compressOn folds the process-wide default under the explicit option.
func (o BuildOptions) compressOn() bool { return o.Compress || defaultCompress }

// plannerFor builds the planner a BuildVariant call should use, folding the
// process-wide default under the explicit option.
func (o BuildOptions) plannerFor() *index.Planner {
	return &index.Planner{Disabled: o.DisablePlanner || defaultDisablePlanner}
}

// newDisk creates the build's storage backend: the simulated disk by
// default, or a file-backed FileDisk rooted at StorageDir.
func (o BuildOptions) newDisk() (storage.Backend, error) {
	if o.StorageDir == "" {
		return storage.NewDisk(0), nil
	}
	return storage.NewFileDisk(storage.FileDiskOptions{Dir: o.StorageDir})
}

// walFor opens the build's write-ahead log under the configured policy.
func (o BuildOptions) walFor() (*wal.Log, error) {
	var wopts wal.Options
	switch o.Durability {
	case "", "batched":
		wopts = wal.BatchedOptions(o.WALDir)
	case "sync":
		wopts = wal.SyncOptions(o.WALDir)
	default:
		return nil, fmt.Errorf("workload: unknown durability %q (want \"batched\" or \"sync\")", o.Durability)
	}
	w, err := wal.Open(wopts)
	if err != nil {
		return nil, err
	}
	if w.NextLSN() > 0 {
		w.Close()
		return nil, fmt.Errorf("workload: WAL dir %s already holds a log; builds need a fresh directory", o.WALDir)
	}
	return w, nil
}

// Built is a constructed index plus its cost accounting.
type Built struct {
	Index      index.Index
	Disk       storage.Backend
	Raw        series.RawStore
	BuildStats storage.Stats
	BuildTime  time.Duration
	IndexPages int64 // pages used by index structures (excluding raw file)
	RawPages   int64 // pages used by the raw series file
	// ShardDisks holds every shard's disk for sharded builds (Disk then
	// aliases shard 0, keeping single-disk callers working); nil otherwise.
	ShardDisks []storage.Backend
	// Pool is the buffer pool fronting Disk when CacheBytes > 0; nil when
	// uncached. Sharded builds fill ShardPools instead (Pool then aliases
	// shard 0's pool).
	Pool       *bufpool.Pool
	ShardPools []*bufpool.Pool
	// Cache is the shared frame store behind the pool(s); nil uncached.
	Cache *bufpool.Cache
	// Planner carries the build's query-planning state (skip counter, plan
	// cache). Shared across shards of a sharded build. Nil for variants
	// without a planned query path (ADS+).
	Planner *index.Planner
	// WAL is the write-ahead log behind a durable CLSM build (nil without
	// WALDir); Compactor the background-merge scheduler (nil inline).
	// Both are owned by the build — Close releases them.
	WAL       *wal.Log
	Compactor *compact.Scheduler
	// Materialized records whether entries carry series inline; SourceDS is
	// the dataset backing an in-memory raw store (nil for on-disk raw files
	// and sharded builds). Together they decide whether Ingest can keep the
	// raw store consistent.
	Materialized bool
	SourceDS     *series.Dataset
	// Group is the node-local shard subset of a cluster build (nil
	// otherwise); Index then aliases it. groupBuilts maps each owned shard
	// to its sub-build for the ClusterInsert replica-write path.
	Group       *shard.Group
	groupBuilts map[int]*Built
}

// Ingest appends one series to a built index after construction — the
// server's live-insert path. The index must support inserts, and the raw
// store must stay resolvable: materialized variants carry series inline,
// and in-memory raw stores accept appends; a non-materialized build whose
// raw series live in a sealed on-disk file cannot ingest.
func (b *Built) Ingest(s series.Series, ts int64) error {
	ins, ok := b.Index.(index.Inserter)
	if !ok {
		return fmt.Errorf("workload: %s does not support inserts", b.Index.Name())
	}
	if !b.Materialized {
		if b.SourceDS == nil {
			return fmt.Errorf("workload: %s keeps raw series in a sealed on-disk file; ingest needs a materialized variant (or RawInMemory on an unsharded build)", b.Index.Name())
		}
		if _, err := b.SourceDS.Append(s); err != nil {
			return err
		}
	}
	return ins.Insert(s, ts)
}

// Quiesce waits until no background merge is pending or in flight (a no-op
// for inline builds), surfacing any background-merge error.
func (b *Built) Quiesce() error {
	if l, ok := b.Index.(*clsm.LSM); ok {
		return l.Quiesce()
	}
	return nil
}

// CompactionStats reports the ingest/compaction state of a CLSM build; ok
// is false for other variants.
func (b *Built) CompactionStats() (clsm.CompactionStats, bool) {
	if l, ok := b.Index.(*clsm.LSM); ok {
		return l.CompactionStats(), true
	}
	return clsm.CompactionStats{}, false
}

// WALStats reports the write-ahead log's accounting; ok is false when the
// build has no WAL.
func (b *Built) WALStats() (wal.Stats, bool) {
	if b.WAL == nil {
		return wal.Stats{}, false
	}
	return b.WAL.Stats(), true
}

// Close shuts down the build's background machinery — waits out in-flight
// merges, stops the compaction workers, syncs and closes the WAL — and
// closes every storage backend behind the build (which, on the file
// backend, fsyncs and releases the page files; a no-op on the simulated
// disk). Simulated-disk builds without WAL or compactor are free to skip
// it.
func (b *Built) Close() error {
	var err error
	if l, ok := b.Index.(*clsm.LSM); ok {
		err = l.Close()
	}
	if b.Compactor != nil {
		if cerr := b.Compactor.Close(); err == nil {
			err = cerr
		}
	}
	if b.WAL != nil {
		if werr := b.WAL.Close(); err == nil {
			err = werr
		}
	}
	disks := b.ShardDisks
	if len(disks) == 0 && b.Disk != nil {
		disks = []storage.Backend{b.Disk}
	}
	for _, d := range disks {
		if derr := d.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// BuildCost returns the I/O cost of construction under the model.
func (b Built) BuildCost(m storage.CostModel) float64 { return b.BuildStats.Cost(m) }

// IOStats returns the current disk statistics aggregated over every disk
// backing the build — the one disk of an unsharded index, or all shard
// disks of a sharded one — including buffer-pool hit/miss counters when a
// cache is configured. Query-cost accounting must diff this, not
// Disk.Stats, to charge cross-shard probes and observe cache hits.
func (b *Built) IOStats() storage.Stats {
	if len(b.ShardPools) > 0 {
		var agg storage.Stats
		for _, p := range b.ShardPools {
			agg = agg.Add(p.Stats())
		}
		return agg
	}
	if b.Pool != nil {
		return b.Pool.Stats()
	}
	if len(b.ShardDisks) == 0 {
		return b.Disk.Stats()
	}
	var agg storage.Stats
	for _, d := range b.ShardDisks {
		agg = agg.Add(d.Stats())
	}
	return agg
}

// prefixTracer namespaces one shard's page accesses before forwarding them:
// every shard's disk reuses the same constant file names ("idx", "raw"), so
// without the prefix a shared recorder would overlay unrelated files'
// histograms into one meaningless heat map.
type prefixTracer struct {
	prefix string
	t      storage.Tracer
}

func (p prefixTracer) Access(file string, page int64, write bool) {
	p.t.Access(p.prefix+file, page, write)
}

// SetTracer installs a page-access tracer on every disk backing the build.
// Sharded builds wrap the tracer per shard so file names stay distinct
// ("shard03/idx"); the heatmap recorder is mutex-protected, so one recorder
// may observe all shards' (concurrent) accesses.
func (b *Built) SetTracer(t storage.Tracer) {
	if len(b.ShardDisks) == 0 {
		b.Disk.SetTracer(t)
		return
	}
	for i, d := range b.ShardDisks {
		d.SetTracer(prefixTracer{prefix: fmt.Sprintf("shard%02d/", i), t: t})
	}
}

// Shards returns the shard count of the built index (1 when unsharded).
func (b *Built) Shards() int {
	if n := len(b.ShardDisks); n > 0 {
		return n
	}
	return 1
}

// BuildVariant constructs the named index variant over the dataset on a
// fresh simulated disk and returns it with its construction accounting.
func BuildVariant(variant string, ds *series.Dataset, cfg index.Config, opts BuildOptions) (*Built, error) {
	if opts.MemBudget == 0 {
		opts.MemBudget = 1 << 20
	}
	if opts.FillFactor == 0 {
		opts.FillFactor = 1.0
	}
	if opts.GrowthFactor == 0 {
		opts.GrowthFactor = 4
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = 1
	}
	if opts.ClusterShards > 0 || len(opts.NodeShards) > 0 {
		if opts.Shards > 1 {
			return nil, fmt.Errorf("workload: cluster builds partition by cluster_shards; shards must stay unset")
		}
		if opts.ClusterShards < 1 {
			return nil, fmt.Errorf("workload: node_shards needs cluster_shards >= 1, got %d", opts.ClusterShards)
		}
		return buildClusterGroup(variant, ds, cfg, opts)
	}
	if opts.Shards > 1 {
		return buildSharded(variant, ds, cfg, opts)
	}
	disk, err := opts.newDisk()
	if err != nil {
		return nil, err
	}
	out := &Built{Disk: disk}

	// Buffer pool: either a slice of the sharded build's shared cache or a
	// private one sized by CacheBytes; reader stays nil (→ the bare disk)
	// when uncached, so the default accounting is exactly the paper's.
	var reader storage.PageReader
	pool, perr := bufpool.AttachOrNew(disk, opts.cache, opts.CacheBytes)
	if perr != nil {
		return nil, perr
	}
	if pool != nil {
		out.Pool, out.Cache, reader = pool, pool.Cache(), pool
	}

	materialized := variant == "ADSFull" || variant == "CTreeFull" || variant == "CLSMFull"
	cfg.Materialized = materialized
	out.Materialized = materialized
	if opts.RawInMemory {
		out.SourceDS = ds
	}

	// Raw series file: non-materialized variants need it for queries; it is
	// written before the build (shared by all variants, like the paper's
	// raw data file) and its pages are tracked separately. Query-time raw
	// fetches go through the buffer pool when one is configured.
	var raw series.RawStore
	if opts.RawInMemory {
		raw = NormStore(ds)
	} else {
		rf, err := DiskRawStore(disk, ds, "raw")
		if err != nil {
			return nil, err
		}
		if reader != nil {
			if err := rf.UseReader(reader); err != nil {
				return nil, err
			}
		}
		raw = rf
		out.RawPages, _ = disk.NumPages("raw")
	}
	out.Raw = raw
	if out.Pool != nil {
		out.Pool.ResetStats()
	} else {
		disk.ResetStats()
	}

	entryBudget := opts.MemBudget / cfg.Codec().Size()
	if entryBudget < 4 {
		entryBudget = 4
	}
	pl := opts.planner
	if pl == nil {
		pl = opts.plannerFor()
	}
	out.Planner = pl
	start := time.Now()
	var idx index.Index
	switch variant {
	case "CTree", "CTreeFull":
		idx, err = ctree.Build(ctree.Options{
			Disk: disk, Reader: reader, Name: "idx", Config: cfg,
			FillFactor: opts.FillFactor, MemBudget: opts.MemBudget, Raw: raw,
			Parallelism: opts.Parallelism, Planner: pl,
			Compress: opts.compressOn(),
		}, ds, 0)
	case "CLSM", "CLSMFull":
		if opts.WALDir != "" {
			if out.WAL, err = opts.walFor(); err != nil {
				return nil, err
			}
		}
		if opts.CompactionWorkers > 0 {
			out.Compactor = compact.NewScheduler(opts.CompactionWorkers)
		}
		var l *clsm.LSM
		l, err = clsm.New(clsm.Options{
			Disk: disk, Reader: reader, Name: "idx", Config: cfg,
			GrowthFactor: opts.GrowthFactor, BufferEntries: entryBudget, Raw: raw,
			Parallelism: opts.Parallelism, Planner: pl,
			WAL: out.WAL, TruncateWALOnFlush: true,
			Scheduler: out.Compactor,
			Compress:  opts.compressOn(),
		})
		if err == nil {
			for id := 0; id < ds.Count() && err == nil; id++ {
				var s series.Series
				s, err = ds.Get(id)
				if err == nil {
					err = l.Insert(s, 0)
				}
			}
			if err == nil {
				// Construction ends with a durability flush, like the
				// paper's builds.
				err = l.Flush()
			}
		}
		idx = l
	case "ADS+", "ADSFull":
		var t *adsplus.Tree
		t, err = adsplus.New(adsplus.Options{
			Disk: disk, Reader: reader, Name: "idx", Config: cfg,
			LeafCapacity: opts.LeafCapacity, BufferEntries: entryBudget, Raw: raw,
		})
		if err == nil {
			for id := 0; id < ds.Count() && err == nil; id++ {
				var s series.Series
				s, err = ds.Get(id)
				if err == nil {
					err = t.Insert(s, 0)
				}
			}
			if err == nil {
				err = t.FlushBuffers()
			}
		}
		idx = t
	default:
		return nil, fmt.Errorf("workload: unknown variant %q (want one of %v)", variant, Variants)
	}
	if err != nil {
		out.Close() // release the WAL handle / worker pool of a failed build
		return nil, err
	}
	out.Index = idx
	out.BuildTime = time.Since(start)
	// Construction accounting through the pool when one exists, so cached
	// builds report their construction-era hits/misses alongside the disk
	// reads the misses triggered.
	if out.Pool != nil {
		out.BuildStats = out.Pool.Stats()
	} else {
		out.BuildStats = disk.Stats()
	}
	out.IndexPages = disk.TotalPages() - out.RawPages
	return out, nil
}

// buildSharded hash-partitions the dataset across opts.Shards sub-datasets,
// builds one variant per partition concurrently (each on its own disk, with
// serial internals) on a pool bounded by opts.Parallelism, and wraps the
// shards in a shard.Sharded whose cross-shard probes run on the same pool.
func buildSharded(variant string, ds *series.Dataset, cfg index.Config, opts BuildOptions) (*Built, error) {
	nsh := opts.Shards
	part := shard.Partition(int64(ds.Count()), nsh)
	inner := opts
	inner.Shards = 0
	inner.Parallelism = 1
	// Durable ingest is an unsharded-build feature at this layer (the
	// coconut.Sharded facade owns per-shard WALs); a shared directory would
	// collide across shards.
	inner.WALDir = ""
	inner.CompactionWorkers = 0
	// One cache for the whole sharded index: CacheBytes bounds the total,
	// and every shard's disk draws frames from the same budget.
	if opts.CacheBytes > 0 {
		inner.cache = bufpool.NewCache(opts.CacheBytes, storage.DefaultPageSize)
		inner.CacheBytes = 0
	}
	// Likewise one planner for the whole sharded index.
	inner.planner = opts.plannerFor()
	builts := make([]*Built, nsh)
	pool := parallel.New(opts.Parallelism)
	start := time.Now()
	err := pool.ForEach(nsh, func(_, i int) error {
		sub := series.NewDataset(ds.Len)
		for _, gid := range part[i] {
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
			shardOpts.StorageDir = filepath.Join(opts.StorageDir, fmt.Sprintf("shard-%03d", i))
		}
		b, berr := BuildVariant(variant, sub, cfg, shardOpts)
		if berr != nil {
			return fmt.Errorf("workload: building shard %d: %w", i, berr)
		}
		builts[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Built{BuildTime: time.Since(start), Cache: inner.cache}
	out.Materialized = variant == "ADSFull" || variant == "CTreeFull" || variant == "CLSMFull"
	shards := make([]shard.Shard, nsh)
	for i, b := range builts {
		shards[i] = shard.Shard{Index: b.Index, Disk: b.Disk, IDs: part[i]}
		if b.Pool != nil {
			shards[i].Reader = b.Pool
			out.ShardPools = append(out.ShardPools, b.Pool)
		}
		out.ShardDisks = append(out.ShardDisks, b.Disk)
		out.BuildStats = out.BuildStats.Add(b.BuildStats)
		out.IndexPages += b.IndexPages
		out.RawPages += b.RawPages
	}
	sh, err := shard.New(cfg, shards, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	sh.SetPlanner(inner.planner)
	out.Planner = inner.planner
	out.Index = sh
	out.Disk = builts[0].Disk
	out.Raw = builts[0].Raw
	if len(out.ShardPools) > 0 {
		out.Pool = out.ShardPools[0]
	}
	return out, nil
}

// QueryStats aggregates a query workload's cost.
type QueryStats struct {
	Queries   int
	Stats     storage.Stats // I/O during the workload
	WallTime  time.Duration
	MeanDist  float64 // mean distance of the best answer (quality indicator)
	ExactDist float64 // mean true 1-NN distance (for approximate recall context)
	// PlannedSkips is the planner's activity during the workload: probe
	// units skipped by their synopsis bound (zero with the planner
	// disabled or absent).
	PlannedSkips int64
}

// Cost returns the workload's I/O cost per query under the model.
func (q QueryStats) Cost(m storage.CostModel) float64 {
	if q.Queries == 0 {
		return 0
	}
	return q.Stats.Cost(m) / float64(q.Queries)
}

// RunQueries executes a query workload against a built index. Exact selects
// exact (vs. approximate) search.
func RunQueries(b *Built, queries []series.Series, cfg index.Config, k int, exact bool) (QueryStats, error) {
	cfg.Materialized = false // query preparation does not depend on it
	before := b.IOStats()
	skipsBefore := b.Planner.Skips()
	start := time.Now()
	var distSum float64
	for _, q := range queries {
		pq := index.NewQuery(q, index.Config{
			SeriesLen: cfg.SeriesLen, Segments: cfg.Segments, Bits: cfg.Bits,
		})
		var rs []index.Result
		var err error
		if exact {
			rs, err = b.Index.ExactSearch(pq, k)
		} else {
			rs, err = b.Index.ApproxSearch(pq, k)
		}
		if err != nil {
			return QueryStats{}, err
		}
		if len(rs) > 0 {
			distSum += rs[0].Dist
		}
	}
	return QueryStats{
		Queries:      len(queries),
		Stats:        b.IOStats().Sub(before),
		WallTime:     time.Since(start),
		MeanDist:     distSum / float64(max(1, len(queries))),
		PlannedSkips: b.Planner.Skips() - skipsBefore,
	}, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
