package assemble

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
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

// rawFile names the on-disk raw series file of builds without RawInMemory.
const rawFile = "raw"

// Built is an assembled index and everything opened for it. Close releases
// all of it.
type Built struct {
	// Spec is the validated description the build was assembled from,
	// defaults applied; Config the summarization shape it resolves to.
	Spec   Spec
	Config index.Config
	// Index is the built index: the CTree / CLSM / ADS+ itself, or, for a
	// partitioned build, Group.
	Index index.Index
	// Group is the hash-partitioned composition of a partitioned build (nil
	// otherwise) and Parts its owned shards' sub-builds, in ascending shard
	// order (matching Group.Owned). Every part shares the build's Cache,
	// Planner and Compactor.
	Group *shard.Group
	Parts []*Built
	// Disk is the storage backend, Pool the buffer pool fronting it (nil
	// uncached) and Raw the raw series store; on a partitioned build they
	// alias the first part's.
	Disk storage.Backend
	Pool *bufpool.Pool
	Raw  series.RawStore
	// Cache is the frame store behind the pool(s); nil uncached.
	Cache *bufpool.Cache
	// Planner carries the build's query-planning switch and skip counter.
	Planner *index.Planner
	// WAL is the write-ahead log of a durable CLSM build (nil without
	// WALDir; partitioned builds keep one per part) and Compactor the
	// background-merge scheduler (nil inline).
	WAL       *wal.Log
	Compactor *compact.Scheduler
	// Construction accounting: I/O and wall time of the build, and the pages
	// the index structures and the raw series file occupy.
	BuildStats storage.Stats
	BuildTime  time.Duration
	IndexPages int64
	RawPages   int64

	mem       *MemStore  // in-memory raw store; nil when raw series live in rawFile
	insertMu  sync.Mutex // keeps raw store, ID assignment and index insert in step
	ownsSched bool       // Compactor is closed by this handle (false on parts)
	closed    atomic.Bool
}

// shared is what every part of one build has in common: one frame budget,
// one planner, one background-merge pool.
type shared struct {
	cache   *bufpool.Cache
	planner *index.Planner
	sched   *compact.Scheduler
}

func newShared(spec Spec) shared {
	sh := shared{planner: &index.Planner{Disabled: spec.DisablePlanner}}
	if spec.CacheBytes > 0 {
		sh.cache = bufpool.NewCache(spec.CacheBytes, spec.PageSize)
	}
	return sh
}

// Build assembles the index spec describes over the series of ds (IDs are
// dataset positions; nil or empty starts the index empty).
func Build(spec Spec, ds *series.Dataset) (*Built, error) {
	spec, cfg, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	if ds == nil {
		ds = series.NewDataset(cfg.SeriesLen)
	}
	if ds.Len != cfg.SeriesLen {
		return nil, fmt.Errorf("assemble: dataset holds series of length %d, spec says %d", ds.Len, cfg.SeriesLen)
	}
	sh := newShared(spec)
	if fam, _, _ := family(spec.Variant); fam == familyCLSM && spec.CompactionWorkers > 0 {
		sh.sched = compact.NewScheduler(spec.CompactionWorkers)
	}
	var b *Built
	if spec.Partitioned() {
		b, err = buildGroup(spec, cfg, ds, sh)
	} else {
		b, err = buildOne(spec, cfg, ds, sh)
	}
	if err != nil {
		if b != nil {
			b.Close()
		}
		if sh.sched != nil {
			sh.sched.Close()
		}
		return nil, err
	}
	b.ownsSched = true
	return b, nil
}

// Base opens the storage half of a build — backend, buffer pool, planner
// and the in-memory raw store — and leaves the index to the caller (the
// streaming schemes, which are not index variants). spec.RawInMemory must be
// set.
func Base(spec Spec) (*Built, error) {
	spec, cfg, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	return base(spec, cfg, series.NewDataset(cfg.SeriesLen), newShared(spec))
}

// base performs the steps every build starts with: backend → buffer pool →
// planner → raw store. On error everything opened so far is closed.
func base(spec Spec, cfg index.Config, ds *series.Dataset, sh shared) (*Built, error) {
	b := &Built{Spec: spec, Config: cfg, Cache: sh.cache, Planner: sh.planner, Compactor: sh.sched}
	if spec.StorageDir == "" {
		b.Disk = storage.NewDisk(spec.PageSize)
	} else {
		fd, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: spec.StorageDir, PageSize: spec.PageSize, FS: spec.FS})
		if err != nil {
			return nil, err
		}
		b.Disk = fd
	}
	if spec.Tracer != nil {
		b.Disk.SetTracer(spec.Tracer)
	}
	if err := b.attach(sh.cache); err != nil {
		b.Close()
		return nil, err
	}
	if spec.RawInMemory {
		b.mem = NewMemStore(ds)
		b.Raw = b.mem
	} else {
		// The raw series file is written before the index (shared by all
		// variants, like the paper's raw data file), its pages are tracked
		// separately, and query-time fetches go through the pool.
		rf, err := writeRawFile(b.Disk, rawFile, ds.Len, ds.Count(), func(i int) series.Series {
			return ds.Values[i].ZNormalize()
		})
		if err == nil && b.Pool != nil {
			err = rf.UseReader(b.Pool)
		}
		if err != nil {
			b.Close()
			return nil, err
		}
		b.Raw = rf
		b.RawPages, _ = b.Disk.NumPages(rawFile)
	}
	if b.Pool != nil {
		b.Pool.ResetStats()
	} else {
		b.Disk.ResetStats()
	}
	return b, nil
}

// attach puts the build's disk behind a pool on cache (nil: uncached).
func (b *Built) attach(cache *bufpool.Cache) error {
	if cache == nil {
		return nil
	}
	pool, err := cache.Attach(b.Disk)
	if err != nil {
		return err
	}
	b.Pool, b.Cache = pool, cache
	return nil
}

// Reader returns the page reader indexes over this build's disk read
// through: the pool when cached, else nil (the index then reads the bare
// disk) — a typed-nil *Pool in the interface would not compare equal to nil.
func (b *Built) Reader() storage.PageReader {
	if b.Pool == nil {
		return nil
	}
	return b.Pool
}

// writeRawFile writes the n z-normalized series get yields into a sealed raw
// file on d, replacing any previous file of that name.
func writeRawFile(d storage.Backend, name string, seriesLen, n int, get func(i int) series.Series) (*storage.RawFile, error) {
	if d.Exists(name) {
		if err := d.Remove(name); err != nil {
			return nil, err
		}
	}
	rf, err := storage.CreateRawFile(d, name, seriesLen)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := rf.Append(get(i)); err != nil {
			return nil, err
		}
	}
	if err := rf.Seal(); err != nil {
		return nil, err
	}
	return rf, nil
}

// openWAL opens the log the spec names under its group-commit policy.
func openWAL(spec Spec) (*wal.Log, error) {
	opts := wal.BatchedOptions(spec.WALDir)
	if spec.Durability == "sync" {
		opts = wal.SyncOptions(spec.WALDir)
	}
	opts.FS = spec.FS
	return wal.Open(opts)
}

// replayed is the clsm replay observer: it rebuilds the in-memory raw store
// from the series logged beside each entry.
func (b *Built) replayed(e clsm.ReplayedEntry, z series.Series) error {
	if b.mem != nil {
		b.mem.SetAt(e.ID, z)
	}
	return nil
}

// buildOne assembles one unpartitioned index on its own disk: base, then —
// for CLSM — the WAL (replayed when it already holds entries), then the
// index itself over ds. On error it returns what it had assembled so far
// beside the error, for the caller to Close — once nothing else is using
// the shared scheduler any more.
func buildOne(spec Spec, cfg index.Config, ds *series.Dataset, sh shared) (b *Built, err error) {
	if b, err = base(spec, cfg, ds, sh); err != nil {
		return nil, err
	}
	buffer := spec.BufferEntries
	if buffer == 0 {
		buffer = max(4, spec.MemBudget/cfg.Codec().Size())
	}
	load := func(insert func(series.Series, int64) error) error {
		for _, s := range ds.Values {
			if err := insert(s, 0); err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	switch fam, _, _ := family(spec.Variant); fam {
	case familyCTree:
		var t *ctree.Tree
		t, err = ctree.Build(ctree.Options{
			Disk: b.Disk, Reader: b.Reader(), Name: treeName, Config: cfg,
			FillFactor: spec.FillFactor, MemBudget: spec.MemBudget, Raw: b.Raw,
			Parallelism: spec.Parallelism, Planner: b.Planner, Compress: spec.Compress,
		}, ds, 0)
		if err != nil {
			return
		}
		b.Index = t
	case familyCLSM:
		opts := clsm.Options{
			Disk: b.Disk, Reader: b.Reader(), Name: lsmName, Config: cfg,
			GrowthFactor: spec.GrowthFactor, BufferEntries: buffer, Raw: b.Raw,
			Parallelism: spec.Parallelism, Scheduler: b.Compactor, Planner: b.Planner,
			Compress: spec.Compress,
		}
		if spec.WALDir != "" {
			if b.WAL, err = openWAL(spec); err != nil {
				return
			}
			// A flush may retire the log segments it made durable only when
			// the disk then holds everything: an in-memory raw store comes
			// back from replay (or a snapshot, whose checkpoint truncates),
			// so its log must keep every entry.
			opts.WAL, opts.TruncateWALOnFlush = b.WAL, !spec.RawInMemory
		}
		var l *clsm.LSM
		switch {
		case b.WAL == nil || b.WAL.NextLSN() == 0:
			l, err = clsm.New(opts)
		// The directory already holds acknowledged inserts: crash recovery.
		// They can only continue an index that starts empty, and the retained
		// log must still start at LSN 0 — a log truncated by a SaveFile
		// checkpoint can only be reopened together with its snapshot (Open).
		case ds.Count() > 0:
			err = fmt.Errorf("assemble: WAL dir %s already holds a log; a build over a dataset needs a fresh directory", spec.WALDir)
		case b.WAL.FirstLSN() > 0:
			err = fmt.Errorf("assemble: WAL in %s was truncated by a snapshot checkpoint; reopen the snapshot with OpenLSM", spec.WALDir)
		default:
			l, err = clsm.Recover(opts, b.replayed)
		}
		if err != nil {
			return
		}
		b.Index = l
		if ds.Count() > 0 {
			// Construction ends with a durability flush, like the paper's
			// builds.
			if err = load(l.Insert); err == nil {
				err = l.Flush()
			}
		}
	case familyADS:
		var t *adsplus.Tree
		t, err = adsplus.New(adsplus.Options{
			Disk: b.Disk, Reader: b.Reader(), Config: cfg, BufferEntries: buffer, Raw: b.Raw,
		})
		if err != nil {
			return
		}
		b.Index = t
		if err = load(t.Insert); err == nil {
			err = t.FlushBuffers()
		}
	}
	if err != nil {
		return
	}
	b.BuildTime = time.Since(start)
	// Through the pool when one exists, so cached builds report their
	// construction-era hits and misses beside the disk reads they caused.
	b.BuildStats = b.IOStats()
	b.IndexPages = b.Disk.TotalPages() - b.RawPages
	return b, nil
}

// shardDir names shard i's directory under a partitioned build's storage or
// WAL root.
func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// buildGroup assembles a partitioned build: the series are hash-partitioned
// into the logical shards, every owned shard is built as its own serial
// unpartitioned index (own disk, log and directory; shared cache, planner
// and scheduler), concurrently on a pool bounded by spec.Parallelism, and
// wrapped in a shard.Group whose probes fan out on a pool of the same size.
// On error it returns the shards assembled so far for the caller to Close.
func buildGroup(spec Spec, cfg index.Config, ds *series.Dataset, sh shared) (*Built, error) {
	nsh := spec.Shards
	owned := make([]int, nsh)
	for i := range owned {
		owned[i] = i
	}
	if spec.ClusterShards > 0 {
		nsh = spec.ClusterShards
		owned = append([]int(nil), spec.NodeShards...)
		sort.Ints(owned)
	}
	part := shard.Partition(int64(ds.Count()), nsh)
	inner := spec
	inner.Shards, inner.ClusterShards, inner.NodeShards = 0, 0, nil
	inner.Parallelism = 1

	b := &Built{Spec: spec, Config: cfg, Cache: sh.cache, Planner: sh.planner, Compactor: sh.sched}
	b.Parts = make([]*Built, len(owned))
	start := time.Now()
	err := parallel.New(spec.Parallelism).ForEach(len(owned), func(_, i int) error {
		si := owned[i]
		sub := series.NewDataset(ds.Len)
		sub.Values = make([]series.Series, len(part[si]))
		for j, gid := range part[si] {
			sub.Values[j] = ds.Values[gid]
		}
		shardSpec := inner
		if spec.StorageDir != "" {
			shardSpec.StorageDir = shardDir(spec.StorageDir, si)
		}
		if spec.WALDir != "" {
			shardSpec.WALDir = shardDir(spec.WALDir, si)
		}
		if spec.Tracer != nil {
			shardSpec.Tracer = shardTracer(i, spec.Tracer)
		}
		p, err := buildOne(shardSpec, cfg, sub, sh)
		b.Parts[i] = p
		if err != nil {
			return fmt.Errorf("assemble: building shard %d: %w", si, err)
		}
		return nil
	})
	if err == nil {
		b.BuildTime = time.Since(start)
		if ds.Count() == 0 {
			// Parts recovered from their logs: the ID space is that of
			// everything they hold.
			var total int64
			for _, p := range b.Parts {
				total += p.Index.Count()
			}
			part = shard.Partition(total, nsh)
		}
		err = b.group(nsh, owned, part, spec.Parallelism)
	}
	if err != nil {
		return b, err
	}
	for _, p := range b.Parts {
		b.BuildStats = b.BuildStats.Add(p.BuildStats)
		b.IndexPages += p.IndexPages
		b.RawPages += p.RawPages
	}
	return b, nil
}

// group wraps the built (or reopened) parts in a shard.Group over the
// hash placement part (part[si] = shard si's global IDs). Fresh parts hold
// exactly their partition of the dataset; parts recovered from per-shard
// logs restore per-shard counts, and the placement of their total must match
// them shard for shard. A mismatch means the logs are mutually inconsistent
// — a wrong shard count, or a crash under batched durability that lost one
// shard's un-synced group-commit window while a later-ID insert survived in
// another shard — and the only safe answer is to refuse: guessing a
// placement would silently mislabel every ID after the gap. Use sync
// durability (or Close, which syncs every shard) when sharded recovery must
// be exact to the last acknowledged insert.
func (b *Built) group(nsh int, owned []int, part [][]int64, parallelism int) error {
	shards := make(map[int]*shard.Shard, len(owned))
	for i, si := range owned {
		p := b.Parts[i]
		if got := p.Index.Count(); got != int64(len(part[si])) {
			return fmt.Errorf("assemble: recovered shard %d holds %d series but the hash placement assigns it %d (wrong shard count, or a crash lost part of a batched group-commit window)",
				si, got, len(part[si]))
		}
		shards[si] = &shard.Shard{Index: p.Index, Disk: p.Disk, Reader: p.Reader(), IDs: part[si]}
	}
	g, err := shard.NewGroup(b.Config, nsh, shards, parallelism, b.Planner)
	if err != nil {
		return err
	}
	b.Group, b.Index = g, g
	b.Spec.Parallelism = parallelism // the cross-shard pool's size, which SearchBatch follows
	b.Disk, b.Pool, b.Raw = b.Parts[0].Disk, b.Parts[0].Pool, b.Parts[0].Raw
	return nil
}
