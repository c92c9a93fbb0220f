// Package coconut is the public API of the Coconut data series indexing
// infrastructure (Kondylakis, Dayan, Zoumpatianos, Palpanas: "Coconut",
// PVLDB 2018; demonstrated as "Coconut Palm", SIGMOD 2019).
//
// Coconut organizes data series by a sortable summarization: the bits of an
// iSAX word's segments are interleaved most-significant-first so that
// sorting the resulting keys keeps similar series adjacent. On top of that
// ordering the package offers:
//
//   - Tree (CoconutTree): a read-optimized, compact and contiguous B+-tree
//     bulk-loaded with two-pass external sorting.
//   - LSM (CoconutLSM): a write-optimized log-structured merge index for
//     continuously arriving series.
//   - Stream: temporal-window exploration over streams using the PP, TP, or
//     BTP schemes.
//   - Sharded: N independent Tree or LSM shards behind one facade, series
//     hash-partitioned across them, probes fanned out and merged
//     deterministically.
//   - Recommend: the decision-tree recommender that picks a configuration
//     for a scenario and explains why.
//
// All distances are Euclidean distances between z-normalized series, the
// standard in data series similarity search. Indexes run against a
// simulated page-addressed disk that accounts sequential vs. random I/O;
// use Stats to observe the access-pattern behaviour the papers describe.
//
// # Parallelism
//
// Searches fan out over independent sub-scans — the runs of an LSM, the
// time-partitions of a stream, the leaf ranges of a tree — on a bounded
// worker pool sized by Options.Parallelism (default: one worker per CPU,
// i.e. GOMAXPROCS). Parallelism never changes answers: every search
// returns results identical to the serial path's, because each worker
// collects into a deterministic top-k structure whose contents depend only
// on the candidate set, not on evaluation order. Set Parallelism to 1 to
// recover the exact serial execution, e.g. when comparing I/O access
// patterns against the paper. Completed indexes are safe for concurrent
// searches from multiple goroutines; inserts still require external
// serialization against searches.
//
// # Sharding and batching
//
// Sharded (BuildShardedTree / NewShardedLSM) hash-partitions series across
// N complete sub-indexes, each on its own simulated disk, and answers by
// fanning probes across the shards. Exact and range results are
// byte-identical to the unsharded index's at every shard count: placement
// is a pure function of the series ID, distances are per-pair, each
// shard's top-k is exhaustive over its subset, and per-shard answers merge
// through the same order-independent collectors the parallel engine uses.
//
// SearchBatch on Tree, LSM, and Sharded executes many queries through
// pooled per-worker search contexts — tables refilled per query, scratch
// buffers reused across the batch — moving parallelism from within one
// scan to across queries. Every batched answer is byte-identical to the
// corresponding single Search.
package coconut

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/clsm"
	"repro/internal/compact"
	"repro/internal/ctree"
	"repro/internal/fsx"
	"repro/internal/index"
	"repro/internal/recommender"
	"repro/internal/series"
	"repro/internal/simd"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Options configures an index.
type Options struct {
	// SeriesLen is the (fixed) length of every series. Required.
	SeriesLen int
	// Segments is the number of iSAX segments (default 16).
	Segments int
	// Bits is the per-segment cardinality in bits (default 8).
	Bits int
	// Materialized stores full series inside the index (faster queries,
	// larger and slower to build). Non-materialized indexes keep series in
	// a raw store and fetch them during search.
	Materialized bool
	// FillFactor (Tree only): fraction of each leaf filled at build time,
	// in (0,1]. Lower values absorb later inserts without splits.
	FillFactor float64
	// GrowthFactor (LSM only): runs per level before merging (default 4).
	GrowthFactor int
	// BufferEntries (LSM only): in-memory write buffer capacity (default
	// 1024).
	BufferEntries int
	// MemBudget is construction memory in bytes (default 1 MiB).
	MemBudget int
	// PageSize of the simulated disk (default 4096).
	PageSize int
	// CacheBytes sizes the buffer pool between the index and its disk: hot
	// pages (leaf pages, run pages, raw-series pages) are served from
	// memory, and only cache misses reach the disk and its cost accounting.
	// 0 (the default) disables caching — every read reaches the simulated
	// head, the paper-faithful setting. Sharded indexes share one pool of
	// this size across all shards. Results are byte-identical at every
	// cache size; only I/O cost and wall-clock time change.
	CacheBytes int64
	// Parallelism bounds the worker goroutines one search (and one
	// external-sort pass during Tree construction) may use. The default (0)
	// selects GOMAXPROCS — one worker per CPU; 1 runs fully serially.
	// Results are byte-identical at every setting; only wall-clock time and
	// the simulated head's seq/rand accounting change.
	Parallelism int
	// WALDir (LSM only) makes ingest durable: every Insert is appended to a
	// segmented write-ahead log in this host-filesystem directory before it
	// is acknowledged, and reopening over the same directory (NewLSM on a
	// log that was never checkpointed, or OpenLSM after a SaveFile
	// checkpoint) replays the tail so no acknowledged insert is lost — even
	// after a crash that tore the log mid-append. Empty (the default)
	// disables the WAL. Sharded LSMs keep one log per shard under this
	// directory.
	WALDir string
	// Durability selects the WAL group-commit policy: DurabilityBatched
	// (the default) syncs every few inserts or milliseconds, trading a
	// bounded window of recent acknowledgements for ingest throughput;
	// DurabilitySync syncs every insert before acknowledging it.
	Durability Durability
	// StorageDir selects the file-backed storage backend: index pages live
	// in real page-aligned files under this host directory (pread/pwrite,
	// fsync on Sync/Close) instead of the simulated in-memory disk. Empty
	// (the default) keeps the simulated disk — the paper-faithful
	// cost-accounting mode. Results are byte-identical on either backend;
	// only where the pages live changes. Sharded indexes keep one
	// subdirectory per shard under this directory.
	StorageDir string
	// FS overrides the host filesystem used by the file-backed storage
	// backend, the write-ahead log, and snapshot saves. nil (the default)
	// means the real filesystem; crash and fault-injection tests inject
	// fsx.MemFS here.
	FS fsx.FS
	// DisablePlanner turns off statistics-driven probe planning: with the
	// planner on (the default), searches order LSM-run, stream-partition,
	// tree-leaf-range, and shard probes by a per-unit synopsis envelope
	// lower bound and skip units that provably cannot improve the current
	// answer. Answers are byte-identical either way; only I/O cost
	// changes. The escape hatch exists for A/B measurement (experiment
	// E17) and as a safety valve.
	DisablePlanner bool
	// CompactionWorkers (LSM only) moves level merges off the insert path:
	// n > 0 runs merges as background jobs on a pool of n workers while
	// inserts and searches keep running against the pre-merge structure
	// (results stay byte-identical throughout — searches pin an immutable
	// manifest). 0 (the default) keeps the synchronous cascade inside
	// flushes, the paper-faithful accounting. A sharded LSM shares one
	// worker pool across all shards.
	CompactionWorkers int
	// CompressRuns stores on-disk pages — LSM runs and tree leaves — in the
	// packed encoding: delta/bit-packed sortable keys, frame-of-reference
	// IDs and timestamps, payloads verbatim. Each page holds as many
	// entries as its compressed bytes allow, so scans evaluate more
	// candidates per page read and I/O cost per query drops. Results are
	// byte-identical either way. Encoding is a per-run property: an LSM
	// reopened with a different setting keeps old runs readable and
	// re-encodes them as merges rewrite them. Streaming temporal schemes
	// (TP/BTP) keep their fixed-size partitions regardless.
	CompressRuns bool
	// Kernels forces a distance-kernel implementation: "avx2", "neon", or
	// "scalar". Empty (the default) auto-detects the best kernel for the
	// CPU (also overridable via the COCONUT_KERNELS environment variable).
	// All kernels return bit-identical distances; only speed differs. The
	// selection is process-wide. See Stats.Kernel for the active one.
	Kernels string
}

// Durability selects how eagerly the write-ahead log syncs; see
// Options.Durability.
type Durability string

// WAL group-commit policies.
const (
	// DurabilityBatched groups several inserts per fsync (every 64 inserts
	// or 2ms, whichever first). An acknowledged insert is crash-safe once
	// the next group commit lands — the standard group-commit trade.
	DurabilityBatched Durability = "batched"
	// DurabilitySync fsyncs before acknowledging every insert.
	DurabilitySync Durability = "sync"
)

// walOptions maps the facade durability knobs onto the log's sync policy.
func walOptions(dir string, d Durability, fsys fsx.FS) (wal.Options, error) {
	var out wal.Options
	switch d {
	case DurabilityBatched, "":
		out = wal.BatchedOptions(dir)
	case DurabilitySync:
		out = wal.SyncOptions(dir)
	default:
		return wal.Options{}, fmt.Errorf("coconut: unknown durability %q (want %q or %q)", d, DurabilityBatched, DurabilitySync)
	}
	out.FS = fsys
	return out, nil
}

// newBackend selects the storage backend per Options: the simulated disk
// by default, or a file-backed store under StorageDir (plus an optional
// subdirectory, used by sharded indexes) when set.
func (o Options) newBackend(sub string) (storage.Backend, error) {
	if o.StorageDir == "" {
		return storage.NewDisk(o.PageSize), nil
	}
	dir := o.StorageDir
	if sub != "" {
		dir = filepath.Join(dir, sub)
	}
	return storage.NewFileDisk(storage.FileDiskOptions{Dir: dir, PageSize: o.PageSize, FS: o.FS})
}

// newPlanner builds the facade's query planner from the planning knob.
// Every facade handle owns exactly one (shared across shards and batch
// slots), so the skip counter aggregates per index.
func (o Options) newPlanner() *index.Planner {
	return &index.Planner{Disabled: o.DisablePlanner}
}

func (o Options) config() (index.Config, error) {
	if o.Kernels != "" {
		if err := simd.Select(o.Kernels); err != nil {
			return index.Config{}, fmt.Errorf("coconut: %w", err)
		}
	}
	cfg := index.Config{
		SeriesLen:    o.SeriesLen,
		Segments:     o.Segments,
		Bits:         o.Bits,
		Materialized: o.Materialized,
	}
	if cfg.Segments == 0 {
		cfg.Segments = 16
	}
	if cfg.Bits == 0 {
		cfg.Bits = 8
	}
	return cfg, cfg.Validate()
}

// Match is one similarity-search answer.
type Match struct {
	ID   int     // series ID (position in insertion/build order)
	TS   int64   // ingestion timestamp
	Dist float64 // Euclidean distance between z-normalized series
}

// Stats reports the I/O behaviour of an index's disk, including the
// buffer-pool counters when a cache is configured (CacheBytes > 0): a
// cache hit is served from memory and never reaches the disk, so it adds
// nothing to the read counters or the cost; a miss appears both as a miss
// and as the disk read it triggered.
type Stats struct {
	SeqReads, RandReads   int64
	SeqWrites, RandWrites int64
	CacheHits             int64
	CacheMisses           int64
	Pages                 int64 // total pages on the index's disk
	// PlannedSkips counts probe units (runs, partitions, leaf ranges,
	// shards) the query planner skipped because their synopsis envelope
	// bound proved they could not improve the answer.
	PlannedSkips int64
	// Kernel names the active distance-kernel implementation ("avx2",
	// "neon", or "scalar") — see Options.Kernels.
	Kernel string
}

// Cost prices the accesses with random I/O costing ratio times a
// sequential one (the experiments use ratio 10). Cache hits are free; only
// the reads and writes that reached the disk are charged.
func (s Stats) Cost(ratio float64) float64 {
	return float64(s.SeqReads+s.SeqWrites) + ratio*float64(s.RandReads+s.RandWrites)
}

// HitRatio returns the cache hit fraction, or 0 when no cached reads were
// observed (including when no cache is configured).
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// memStore is the facade's raw store: ingested series are z-normalized and
// kept in memory, so the accounted I/O isolates index behaviour. Reads are
// a single atomic snapshot load — zero overhead on the verification hot
// path — while appends serialize on a mutex and publish a new slice header
// (the backing array is shared; an append never touches an index a
// published snapshot can see, so readers and the writer never race).
type memStore struct {
	mu sync.Mutex
	v  atomic.Pointer[[]series.Series]
}

func (m *memStore) snapshot() []series.Series {
	p := m.v.Load()
	if p == nil {
		return nil
	}
	return *p
}

func (m *memStore) Get(id int) (series.Series, error) {
	ss := m.snapshot()
	if id < 0 || id >= len(ss) {
		return nil, fmt.Errorf("coconut: series %d out of range", id)
	}
	return ss[id], nil
}
func (m *memStore) Count() int { return len(m.snapshot()) }

// append adds one series, returning its ID.
func (m *memStore) append(s series.Series) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss := append(m.snapshot(), s)
	m.v.Store(&ss)
	return len(ss) - 1
}

// setAt places a series at a specific ID, growing as needed — the WAL
// replay path, where IDs arrive with the entries.
func (m *memStore) setAt(id int64, s series.Series) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss := m.snapshot()
	for int64(len(ss)) <= id {
		ss = append(ss, nil)
	}
	ss[id] = s
	m.v.Store(&ss)
}

func convert(rs []index.Result) []Match {
	out := make([]Match, len(rs))
	for i, r := range rs {
		out[i] = Match{ID: int(r.ID), TS: r.TS, Dist: r.Dist}
	}
	return out
}

// statsWith renders a disk's accounting, folding in the buffer-pool
// counters when a pool fronts the disk.
func statsWith(d storage.Backend, pool *bufpool.Pool) Stats {
	if pool != nil {
		return toStats(pool.Stats(), d.TotalPages())
	}
	return toStats(d.Stats(), d.TotalPages())
}

// withPlanner folds a planner's skip counter into the stats; a nil planner
// contributes zero.
func (s Stats) withPlanner(pl *index.Planner) Stats {
	s.PlannedSkips = pl.Skips()
	return s
}

// toStats is the one storage.Stats → facade Stats conversion; every stats
// surface funnels through it so new counters cannot silently diverge
// between the aggregate, per-shard, and single-disk views.
func toStats(st storage.Stats, pages int64) Stats {
	return Stats{
		SeqReads: st.SeqReads, RandReads: st.RandReads,
		SeqWrites: st.SeqWrites, RandWrites: st.RandWrites,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		Pages:  pages,
		Kernel: simd.Active(),
	}
}

// Tree is a CoconutTree index.
type Tree struct {
	tree    *ctree.Tree
	cfg     index.Config
	disk    storage.Backend
	pool    *bufpool.Pool // buffer pool fronting disk; nil when uncached
	planner *index.Planner
	raw     *memStore
	hostFS  fsx.FS // filesystem for snapshot saves; nil means the real one
}

// BuildTree bulk-loads a CoconutTree over the given series (IDs are their
// positions). Construction summarizes, external-sorts, and packs leaves
// contiguously — sequential I/O end to end.
func BuildTree(data [][]float64, opts Options) (*Tree, error) {
	return buildTreeCache(data, opts, nil, nil)
}

// attachPool wires a disk into the caching layer (bufpool.AttachOrNew):
// shared cache, private pool, or uncached. The returned reader is nil when
// uncached (index options then default to the disk) — a plain *Pool return
// cannot serve as the reader directly because a typed-nil interface would
// not compare equal to nil.
func attachPool(disk storage.Backend, opts Options, cache *bufpool.Cache) (*bufpool.Pool, storage.PageReader, error) {
	pool, err := bufpool.AttachOrNew(disk, cache, opts.CacheBytes)
	if err != nil || pool == nil {
		return nil, nil, err
	}
	return pool, pool, nil
}

// buildTreeCache is BuildTree with an optional shared cache and planner
// (the sharded facade passes both so every shard's disk draws frames from a
// single budget and every shard's searches count into one planner).
func buildTreeCache(data [][]float64, opts Options, cache *bufpool.Cache, pl *index.Planner) (*Tree, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	raw := &memStore{}
	ds := series.NewDataset(cfg.SeriesLen)
	for i, s := range data {
		if _, err := ds.Append(series.Series(s)); err != nil {
			return nil, fmt.Errorf("coconut: series %d: %w", i, err)
		}
		raw.append(series.Series(s).ZNormalize())
	}
	disk, err := opts.newBackend("")
	if err != nil {
		return nil, err
	}
	pool, reader, err := attachPool(disk, opts, cache)
	if err != nil {
		return nil, err
	}
	if pl == nil {
		pl = opts.newPlanner()
	}
	tr, err := ctree.Build(ctree.Options{
		Disk:        disk,
		Reader:      reader,
		Name:        "ctree",
		Config:      cfg,
		FillFactor:  opts.FillFactor,
		MemBudget:   opts.MemBudget,
		Raw:         raw,
		Parallelism: opts.Parallelism,
		Planner:     pl,
		Compress:    opts.CompressRuns,
	}, ds, 0)
	if err != nil {
		return nil, err
	}
	return &Tree{tree: tr, cfg: cfg, disk: disk, pool: pool, planner: pl, raw: raw, hostFS: opts.FS}, nil
}

// Count returns the number of indexed series.
func (t *Tree) Count() int { return int(t.tree.Count()) }

// Insert adds one series with a timestamp, using the leaf slack left by
// FillFactor (splits happen when a leaf is full).
func (t *Tree) Insert(s []float64, ts int64) error {
	if len(s) != t.cfg.SeriesLen {
		return fmt.Errorf("coconut: series length %d, want %d", len(s), t.cfg.SeriesLen)
	}
	t.raw.append(series.Series(s).ZNormalize())
	return t.tree.Insert(series.Series(s), ts)
}

// Search returns the exact k nearest neighbors of q.
func (t *Tree) Search(q []float64, k int) ([]Match, error) {
	rs, err := t.tree.ExactSearch(index.NewQuery(series.Series(q), t.cfg), k)
	return convert(rs), err
}

// SearchApprox returns up to k likely neighbors with one or two page reads
// and no exactness guarantee.
func (t *Tree) SearchApprox(q []float64, k int) ([]Match, error) {
	rs, err := t.tree.ApproxSearch(index.NewQuery(series.Series(q), t.cfg), k)
	return convert(rs), err
}

// SearchRange returns every indexed series within Euclidean distance eps
// of q, sorted by distance.
func (t *Tree) SearchRange(q []float64, eps float64) ([]Match, error) {
	rs, err := t.tree.RangeSearch(index.NewQuery(series.Series(q), t.cfg), eps)
	return convert(rs), err
}

// SetParallelism re-sizes the tree's search worker pool (n <= 0 selects
// GOMAXPROCS; 1 is serial). Answers are identical at every setting. Call
// only while no search is in flight.
func (t *Tree) SetParallelism(n int) { t.tree.SetParallelism(n) }

// Stats returns the I/O accounting of the tree's disk since creation,
// cache counters included when a buffer pool is configured, plus the query
// planner's skip counter.
func (t *Tree) Stats() Stats { return statsWith(t.disk, t.pool).withPlanner(t.planner) }

// EnableCache installs a buffer pool of cacheBytes between the tree and
// its disk (useful after OpenTree, which reopens uncached). A no-op if a
// pool is already attached. Call only while no search is in flight.
func (t *Tree) EnableCache(cacheBytes int64) {
	if t.pool != nil || cacheBytes <= 0 {
		return
	}
	t.pool = bufpool.New(t.disk, cacheBytes)
	t.tree.UseReader(t.pool)
}

// Close releases the tree's resources: its buffer pool's cached pages and
// the storage backend (which, on the file-backed backend, fsyncs and
// closes the page files). Idempotent; defer it like any other index
// handle.
func (t *Tree) Close() error {
	if t.pool != nil {
		t.pool.Purge()
	}
	return t.disk.Close()
}

// LSM is a CoconutLSM index. With Options.WALDir set every insert is
// logged before acknowledgement (see Options.Durability) and with
// Options.CompactionWorkers set merges run in the background; Insert,
// Flush, and every Search may then be called concurrently from any number
// of goroutines. Defer Close to stop the background machinery and sync the
// log.
type LSM struct {
	lsm     *clsm.LSM
	cfg     index.Config
	disk    storage.Backend
	pool    *bufpool.Pool // buffer pool fronting disk; nil when uncached
	planner *index.Planner
	raw     *memStore
	hostFS  fsx.FS // filesystem for snapshot saves; nil means the real one

	insertMu  sync.Mutex         // keeps the raw mirror and ID assignment in step
	wal       *wal.Log           // nil when WALDir unset
	sched     *compact.Scheduler // nil when CompactionWorkers == 0
	ownsSched bool               // sharded facades share one scheduler
	closed    atomic.Bool
}

// NewLSM creates an empty CoconutLSM ready for continuous insertion. When
// opts.WALDir names a directory that already holds log segments — the
// aftermath of a crash — the log replays first, so the returned index
// contains every previously acknowledged insert.
func NewLSM(opts Options) (*LSM, error) {
	return newLSMFull(opts, nil, nil, nil, opts.WALDir)
}

// newLSMCache is NewLSM with an optional shared cache (sharded facade).
func newLSMCache(opts Options, cache *bufpool.Cache) (*LSM, error) {
	return newLSMFull(opts, cache, nil, nil, opts.WALDir)
}

// newLSMFull is the full constructor: shared cache, shared compaction
// scheduler, shared query planner, and an explicit WAL directory (the
// sharded facade passes a per-shard subdirectory and one scheduler and
// planner for all shards).
func newLSMFull(opts Options, cache *bufpool.Cache, sched *compact.Scheduler, pl *index.Planner, walDir string) (*LSM, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	raw := &memStore{}
	disk, err := opts.newBackend("")
	if err != nil {
		return nil, err
	}
	pool, reader, err := attachPool(disk, opts, cache)
	if err != nil {
		return nil, err
	}
	if pl == nil {
		pl = opts.newPlanner()
	}
	out := &LSM{cfg: cfg, disk: disk, pool: pool, planner: pl, raw: raw, hostFS: opts.FS}
	if sched != nil {
		out.sched = sched
	} else if opts.CompactionWorkers > 0 {
		out.sched = compact.NewScheduler(opts.CompactionWorkers)
		out.ownsSched = true
	}
	copts := clsm.Options{
		Disk:          disk,
		Reader:        reader,
		Name:          "clsm",
		Config:        cfg,
		GrowthFactor:  opts.GrowthFactor,
		BufferEntries: opts.BufferEntries,
		Raw:           raw,
		Parallelism:   opts.Parallelism,
		Scheduler:     out.sched,
		Planner:       pl,
		Compress:      opts.CompressRuns,
	}
	if walDir != "" {
		wopts, werr := walOptions(walDir, opts.Durability, opts.FS)
		if werr != nil {
			out.closeOwned()
			return nil, werr
		}
		w, werr := wal.Open(wopts)
		if werr != nil {
			out.closeOwned()
			return nil, werr
		}
		out.wal = w
		copts.WAL = w
		if w.NextLSN() > 0 {
			// Crash recovery from the log alone: the disk is fresh, so the
			// whole retained log must still start at LSN 0 — a log truncated
			// by a SaveFile checkpoint can only be reopened together with
			// its snapshot (OpenLSM).
			if w.FirstLSN() > 0 {
				out.closeAll()
				return nil, fmt.Errorf("coconut: WAL in %s was truncated by a snapshot checkpoint; reopen the snapshot with OpenLSM", walDir)
			}
			lsm, rerr := clsm.Recover(copts, func(e clsm.ReplayedEntry, z series.Series) error {
				raw.setAt(e.ID, z)
				return nil
			})
			if rerr != nil {
				out.closeAll()
				return nil, rerr
			}
			out.lsm = lsm
			return out, nil
		}
	}
	l, err := clsm.New(copts)
	if err != nil {
		out.closeAll()
		return nil, err
	}
	out.lsm = l
	return out, nil
}

// closeOwned shuts down the machinery this handle owns (not shared ones).
func (l *LSM) closeOwned() {
	if l.ownsSched && l.sched != nil {
		l.sched.Close()
	}
}

// closeAll is closeOwned plus the WAL (always owned by its facade handle).
func (l *LSM) closeAll() {
	l.closeOwned()
	if l.wal != nil {
		l.wal.Close()
	}
}

// Insert adds one series with a timestamp; writes are log-structured. With
// a WAL configured the insert is acknowledged under the configured
// durability policy. Safe for concurrent use with searches and flushes.
func (l *LSM) Insert(s []float64, ts int64) error {
	if len(s) != l.cfg.SeriesLen {
		return fmt.Errorf("coconut: series length %d, want %d", len(s), l.cfg.SeriesLen)
	}
	l.insertMu.Lock()
	defer l.insertMu.Unlock()
	// Mirror first: by the time the entry becomes visible to a search, its
	// raw series is resolvable.
	id := l.raw.append(series.Series(s).ZNormalize())
	gotID, err := l.lsm.InsertID(series.Series(s), ts)
	if err != nil {
		return err
	}
	if gotID != int64(id) {
		return fmt.Errorf("coconut: internal ID drift: index assigned %d, mirror %d", gotID, id)
	}
	return nil
}

// Flush forces the in-memory buffer into a sorted on-disk run.
func (l *LSM) Flush() error { return l.lsm.Flush() }

// Count returns the number of indexed series (buffered included).
func (l *LSM) Count() int { return int(l.lsm.Count()) }

// Runs returns the number of on-disk sorted runs.
func (l *LSM) Runs() int { return l.lsm.Runs() }

// Search returns the exact k nearest neighbors of q.
func (l *LSM) Search(q []float64, k int) ([]Match, error) {
	rs, err := l.lsm.ExactSearch(index.NewQuery(series.Series(q), l.cfg), k)
	return convert(rs), err
}

// SearchApprox probes each run near q's key without exactness guarantees.
func (l *LSM) SearchApprox(q []float64, k int) ([]Match, error) {
	rs, err := l.lsm.ApproxSearch(index.NewQuery(series.Series(q), l.cfg), k)
	return convert(rs), err
}

// SearchWindow returns the exact k nearest neighbors among entries whose
// timestamp lies in [minTS, maxTS].
func (l *LSM) SearchWindow(q []float64, k int, minTS, maxTS int64) ([]Match, error) {
	pq := index.NewQuery(series.Series(q), l.cfg).WithWindow(minTS, maxTS)
	rs, err := l.lsm.ExactSearch(pq, k)
	return convert(rs), err
}

// SearchRange returns every indexed series within Euclidean distance eps
// of q, sorted by distance.
func (l *LSM) SearchRange(q []float64, eps float64) ([]Match, error) {
	rs, err := l.lsm.RangeSearch(index.NewQuery(series.Series(q), l.cfg), eps)
	return convert(rs), err
}

// SetParallelism re-sizes the LSM's search worker pool (n <= 0 selects
// GOMAXPROCS; 1 is serial). Answers are identical at every setting. Call
// only while no search is in flight.
func (l *LSM) SetParallelism(n int) { l.lsm.SetParallelism(n) }

// Stats returns the I/O accounting of the LSM's disk since creation, cache
// counters included when a buffer pool is configured, plus the query
// planner's skip counter.
func (l *LSM) Stats() Stats { return statsWith(l.disk, l.pool).withPlanner(l.planner) }

// EnableCache installs a buffer pool of cacheBytes between the LSM and its
// disk (useful after OpenLSM, which reopens uncached). A no-op if a pool
// is already attached. Call only while no search is in flight.
func (l *LSM) EnableCache(cacheBytes int64) {
	if l.pool != nil || cacheBytes <= 0 {
		return
	}
	l.pool = bufpool.New(l.disk, cacheBytes)
	l.lsm.UseReader(l.pool)
}

// CompactionStats reports the state of the LSM's ingest machinery: flush
// and merge counters, manifest version and retention, and whether merges
// run in the background.
func (l *LSM) CompactionStats() clsm.CompactionStats { return l.lsm.CompactionStats() }

// WALStats reports the write-ahead log's accounting; ok is false when no
// WAL is configured.
func (l *LSM) WALStats() (st wal.Stats, ok bool) {
	if l.wal == nil {
		return wal.Stats{}, false
	}
	return l.wal.Stats(), true
}

// Quiesce waits until no background merge is pending or in flight (a no-op
// without CompactionWorkers), surfacing any background-merge error. Useful
// before comparing against a reference index or measuring steady state.
func (l *LSM) Quiesce() error { return l.lsm.Quiesce() }

// Close shuts the LSM down cleanly: waits out in-flight background merges,
// stops an owned compaction worker pool, syncs and closes the write-ahead
// log, and releases the buffer pool's pages. Idempotent; call with no
// insert in flight.
func (l *LSM) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := l.lsm.Close()
	if l.ownsSched && l.sched != nil {
		if cerr := l.sched.Close(); err == nil {
			err = cerr
		}
	}
	if l.wal != nil {
		if werr := l.wal.Close(); err == nil {
			err = werr
		}
	}
	if l.pool != nil {
		l.pool.Purge()
	}
	if derr := l.disk.Close(); err == nil {
		err = derr
	}
	return err
}

// Scenario describes an application for the recommender; see the field
// documentation in the recommender package.
type Scenario = recommender.Scenario

// Recommendation is the recommender's advice with its rationale.
type Recommendation = recommender.Recommendation

// Recommend walks the recommender's decision tree for a scenario.
func Recommend(s Scenario) Recommendation { return recommender.Recommend(s) }
