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
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wal"
)

// rawFile names the raw series file of a non-materialized build.
const rawFile = "raw"

// Built is an assembled index and everything opened for it. Close releases
// all of it.
type Built struct {
	// Spec is the validated description the build was assembled from,
	// defaults applied; Config the summarization shape it resolves to.
	Spec   Spec
	Config index.Config
	// Index is the built index: the CTree / CLSM / ADS+ itself, the
	// streaming scheme over one (Spec.Scheme, a stream.Scheme), or, for a
	// partitioned build, Group.
	Index index.Index
	// Group is the hash-partitioned composition of a partitioned build (nil
	// otherwise) and Parts its owned shards' sub-builds, in ascending shard
	// order (matching Group.Owned). Every part shares the build's Cache and
	// Compactor.
	Group *shard.Group
	Parts []*Built
	// Disk is the storage backend, Pool the buffer pool fronting it (nil
	// uncached) and Raw the raw series file of a non-materialized build (nil
	// when materialized): on Disk, or with RawInMemory on a heap disk of its
	// own. On a partitioned build they alias the first part's.
	Disk storage.Backend
	Pool *bufpool.Pool
	Raw  *storage.RawFile
	// Cache is the frame store behind the pool(s); nil uncached.
	Cache *bufpool.Cache
	// Planner is the build's one query planner (the reference switch): every
	// search of the build plans under it; parts hold none.
	Planner *index.Planner
	// Searched is the running total of every finished search's record of
	// its unit outcomes (index.SearchCtx.Tally); parts keep none.
	Searched obs.Tally
	// WAL is the write-ahead log of a durable CLSM build (nil without
	// WALDir; partitioned builds keep one per part) and Compactor the
	// background-merge scheduler (nil inline).
	WAL       *wal.Log
	Compactor *compact.Scheduler
	// workers is the build's search pool, sized by Spec.Parallelism: the
	// only pool any search of the build fans out on.
	workers *parallel.Pool
	// Construction accounting: I/O and wall time of the build, and the pages
	// the index structures and the raw series file occupy on Disk.
	BuildStats storage.Stats
	BuildTime  time.Duration
	IndexPages int64
	RawPages   int64

	insertMu  sync.Mutex    // keeps raw file and index insert in step
	z         series.Series // an insert's z-normalized series, under insertMu
	ownsSched bool          // Compactor is closed by this handle (false on parts)
	closed    atomic.Bool
}

// shared is what every part of one build or reopened snapshot has in
// common: one frame budget, one background-merge pool.
type shared struct {
	cache *bufpool.Cache
	sched *compact.Scheduler
}

// newShared opens what the parts share: a cache of spec.CacheBytes in pages
// of spec.PageSize, and for CLSM with CompactionWorkers the scheduler, which
// the caller closes if no build takes it.
func newShared(spec Spec) shared {
	var sh shared
	if spec.CacheBytes > 0 {
		sh.cache = bufpool.NewCache(spec.CacheBytes, spec.PageSize)
	}
	if fam, _, _ := family(spec.Variant); fam == familyCLSM && spec.CompactionWorkers > 0 {
		sh.sched = compact.NewScheduler(spec.CompactionWorkers)
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
	if spec.Scheme != "" && ds.Count() > 0 {
		return nil, fmt.Errorf("assemble: a %s stream starts empty and takes its series through Ingest; got a dataset of %d", spec.Scheme, ds.Count())
	}
	return owned(spec, func(sh shared) (*Built, error) {
		if spec.Partitioned() {
			return buildGroup(spec, cfg, ds, sh)
		}
		return buildOne(spec, cfg, ds, sh)
	})
}

// owned assembles a build with open over the shared parts of spec and makes
// the result their owner. If open fails, what it returned and what it did not
// take are closed.
func owned(spec Spec, open func(shared) (*Built, error)) (*Built, error) {
	sh := newShared(spec)
	b, err := open(sh)
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
	b.workers, b.Planner = parallel.New(b.Spec.Parallelism), new(index.Planner)
	return b, nil
}

// base performs the steps every build starts with: backend → buffer pool →
// raw series file (openRaw, keeping one the store holds when
// keepRaw). On error everything opened so far is closed.
func base(spec Spec, cfg index.Config, ds *series.Dataset, sh shared, keepRaw bool) (*Built, error) {
	b := &Built{Spec: spec, Config: cfg, Cache: sh.cache, Compactor: sh.sched}
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
	if !cfg.Materialized {
		if err := b.openRaw(ds, keepRaw); err != nil {
			b.Close()
			return nil, err
		}
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

// openRaw gives a non-materialized build its raw series file, holding the
// z-normalized series of ds. Like the paper's raw data file it lives on the
// build's disk, written before the index, its pages counted apart from the
// index's and its fetches read through the pool; with RawInMemory it lives
// on a heap disk of its own instead, which no Stats, cache or page count
// sees. A disk that already holds the file holds an index, and the file is
// never rewritten: a build that continues its store (keep) leaves it for
// buildOne to reopen, and any other build is refused.
func (b *Built) openRaw(ds *series.Dataset, keep bool) (err error) {
	d := b.Disk
	if b.Spec.RawInMemory {
		d = heapRawDisk(ds.Len)
	}
	if d.Exists(rawFile) {
		if !keep {
			return fmt.Errorf("assemble: storage dir %q already holds an index; a build of new series needs fresh directories", b.Spec.StorageDir)
		}
		b.Raw = new(storage.RawFile)
		return nil
	}
	if b.Raw, err = storage.CreateRawFile(d, rawFile, ds.Len, ds.Count(), func(i int) (series.Series, error) {
		return ds.Values[i].ZNormalize(), nil
	}); err != nil {
		return err
	}
	b.useRaw()
	return nil
}

// heapRawDisk is the heap disk of its own a raw series file of a
// RawInMemory build lives on. It holds one series a page, so that an append
// writes a page of its own and rewrites none.
func heapRawDisk(seriesLen int) *storage.Disk { return storage.NewDisk(series.Size(seriesLen)) }

// useRaw sets how the raw series file fetches: through the pool, its pages
// counted, when it lives on the build's disk; from borrowed page slices on a
// heap disk of its own.
func (b *Built) useRaw() {
	if b.Raw.Disk() != b.Disk {
		b.Raw.UseReader(nil)
		return
	}
	b.RawPages, _ = b.Disk.NumPages(rawFile)
	if b.Pool != nil {
		b.Raw.UseReader(b.Pool)
	}
}

// RawStore is Raw as an index takes it: no store at all, not a nil file,
// when the build is materialized.
func (b *Built) RawStore() series.RawStore {
	if b.Raw == nil {
		return nil
	}
	return b.Raw
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

// replay re-inserts the log's tail into a CLSM build; the raw series file
// takes every replayed series past those it holds.
func (b *Built) replay(l *clsm.LSM) error {
	if b.Raw == nil {
		return l.Replay(nil)
	}
	return l.Replay(func(e clsm.ReplayedEntry, z series.Series) error {
		switch n := int64(b.Raw.Count()); {
		case e.ID < n:
			return nil
		case e.ID > n:
			return fmt.Errorf("assemble: the log replays series %d, but the raw series file holds %d", e.ID, n)
		}
		_, err := b.Raw.Append(z)
		return err
	})
}

// inStep is the one ID-drift check: a raw series file holds exactly the
// series its index holds, ID for ID, since both assign IDs in insertion
// order.
func (b *Built) inStep() error {
	if b.Raw != nil && int64(b.Raw.Count()) != b.Index.Count() {
		return fmt.Errorf("assemble: %s holds %d series, its raw series file %d", b.Index.Name(), b.Index.Count(), b.Raw.Count())
	}
	return nil
}

// buildOne assembles one unpartitioned index on its own disk: base, then —
// for CLSM — the WAL (replayed when it already holds entries), then the
// index itself over ds, or the streaming scheme over an empty one. On error
// it returns what it had assembled so far beside the error, for the caller
// to Close — once nothing else is using the shared scheduler any more.
func buildOne(spec Spec, cfg index.Config, ds *series.Dataset, sh shared) (b *Built, err error) {
	fam, _, _ := family(spec.Variant)
	if b, err = base(spec, cfg, ds, sh, fam == familyCLSM && ds.Count() == 0 && spec.Scheme == ""); err != nil {
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
	switch {
	case spec.Scheme != "":
		err = b.openScheme(fam, buffer)
	case fam == familyCTree:
		var t *ctree.Tree
		t, err = ctree.Build(ctree.Options{
			Disk: b.Disk, Reader: b.Reader(), Name: treeName, Config: cfg,
			FillFactor: spec.FillFactor, MemBudget: spec.MemBudget, Raw: b.RawStore(),
			Parallelism: spec.Parallelism,
		}, ds, 0)
		if err != nil {
			return
		}
		b.Index = t
	case fam == familyCLSM:
		opts := clsm.Options{
			Disk: b.Disk, Reader: b.Reader(), Name: lsmName, Config: cfg,
			GrowthFactor: spec.GrowthFactor, BufferEntries: buffer, Raw: b.RawStore(),
			Scheduler: b.Compactor,
		}
		if spec.WALDir != "" {
			if b.WAL, err = openWAL(spec); err != nil {
				return
			}
			opts.WAL = b.WAL
		}
		var l *clsm.LSM
		if l, err = clsm.Open(opts); err != nil {
			return
		}
		b.Index = l
		// Directories that already hold acknowledged inserts are recovery,
		// which can only continue an index that starts empty.
		if ds.Count() > 0 && (l.Count() > 0 || b.WAL != nil && b.WAL.NextLSN() > 0) {
			err = fmt.Errorf("assemble: storage dir %q or WAL dir %q already holds an index; a build over a dataset needs fresh directories", spec.StorageDir, spec.WALDir)
			return
		}
		// A CLSM build of no series continues whatever store its directories
		// hold: the raw series file there holds the series of the runs
		// adopted (none on a fresh one); on a heap disk of its own it starts
		// empty, and replay refills it from the log's head.
		if b.Raw != nil && ds.Count() == 0 && !spec.RawInMemory {
			if err = b.Raw.Open(b.Disk, rawFile, cfg.SeriesLen, l.Count()); err != nil {
				return
			}
			b.useRaw()
		}
		if err = b.replay(l); err != nil {
			return
		}
		if ds.Count() > 0 {
			// Construction ends with a durability flush, like the paper's
			// builds.
			if err = load(l.Insert); err == nil {
				err = l.Flush()
			}
		}
	case fam == familyADS:
		var t *adsplus.Tree
		t, err = adsplus.New(adsplus.Options{
			Disk: b.Disk, Reader: b.Reader(), Config: cfg, BufferEntries: buffer, Raw: b.RawStore(),
		})
		if err != nil {
			return
		}
		b.Index = t
		if err = load(t.Insert); err == nil {
			err = t.FlushBuffers()
		}
	}
	if err == nil {
		err = b.inStep()
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

// openScheme makes the spec's streaming scheme the build's index, on its
// disk, reader and raw series file: TP seals every buffer of arrivals into a
// partition of the variant, BTP into a run.
func (b *Built) openScheme(fam string, buffer int) error {
	raw := b.RawStore()
	var sc stream.Scheme
	var err error
	switch {
	case b.Spec.Scheme == schemeBTP:
		sc, err = stream.NewBTP(b.Disk, b.Reader(), "btp", b.Config, buffer, raw)
	case fam == familyCTree:
		sc, err = stream.NewTP(b.Spec.Variant, b.Config, stream.CTreeFactory(b.Disk, b.Reader(), b.Config, raw), buffer, raw)
	default:
		sc, err = stream.NewTP(b.Spec.Variant, b.Config, stream.ADSFactory(b.Disk, b.Reader(), b.Config, raw), buffer, raw)
	}
	if err != nil {
		return err
	}
	b.Index = sc
	return nil
}

// shardDir names shard i's directory under a partitioned build's storage or
// WAL root.
func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// buildGroup assembles a partitioned build: the series are hash-partitioned
// into the logical shards, every owned shard is built as its own
// unpartitioned index (own disk, log and directory; shared cache and
// scheduler), concurrently on a pool bounded by spec.Parallelism — so
// each shard sorts serially — and wrapped in a shard.Group.
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

	b := &Built{Spec: spec, Config: cfg, Cache: sh.cache, Compactor: sh.sched}
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
		err = b.group(nsh, owned, part)
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
func (b *Built) group(nsh int, owned []int, part [][]int64) error {
	shards := make(map[int]*shard.Shard, len(owned))
	for i, si := range owned {
		p := b.Parts[i]
		if got := p.Index.Count(); got != int64(len(part[si])) {
			return fmt.Errorf("assemble: recovered shard %d holds %d series but the hash placement assigns it %d (wrong shard count, or a crash lost part of a batched group-commit window)",
				si, got, len(part[si]))
		}
		shards[si] = &shard.Shard{Index: p.Index, IDs: part[si]}
	}
	g, err := shard.NewGroup(b.Config, nsh, shards)
	if err != nil {
		return err
	}
	b.Group, b.Index = g, g
	b.Disk, b.Pool, b.Raw = b.Parts[0].Disk, b.Parts[0].Pool, b.Parts[0].Raw
	return nil
}
