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
//     BTP schemes. A stream is an index like the others — a PP stream is a
//     CLSM, a TP or BTP stream keeps its time-partitions itself — but it
//     keeps no write-ahead log and runs no background compaction: NewStream
//     refuses Options.WALDir and CompactionWorkers.
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
	"math"

	"repro/internal/assemble"
	"repro/internal/clsm"
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
	// larger and slower to build) and keeps no other copy of them.
	// Non-materialized indexes keep the z-normalized series in a raw series
	// file on a heap disk of their own, outside Stats, the cache and Pages,
	// and fetch them during search.
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
	// this size across all shards, and the Open functions put one under a
	// reopened snapshot as the builds do. Results are byte-identical at
	// every cache size; only I/O cost and wall-clock time change.
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
	// DurabilitySync syncs every insert before acknowledging it. A
	// materialized LSM with StorageDir set drops flushed inserts from the log:
	// its store then covers them across a process crash, and across a power
	// cut once Close or SaveFile has synced it.
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
	// CompactionWorkers (LSM only) moves level merges off the insert path:
	// n > 0 runs merges as background jobs on a pool of n workers while
	// inserts and searches keep running against the pre-merge structure
	// (results stay byte-identical throughout — searches pin an immutable
	// manifest). 0 (the default) keeps the synchronous cascade inside
	// flushes, the paper-faithful accounting. A sharded LSM shares one
	// worker pool across all shards. It applies alike to NewLSM and OpenLSM,
	// with or without a WAL.
	CompactionWorkers int
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

// spec is the one mapping of the facade's Options onto the assembly
// package's build description. fam is the index family ("CTree", "CLSM").
// The facade's own defaults live here: a non-materialized index keeps its
// raw series on a heap disk of its own, its searches use one worker per CPU
// unless told otherwise, and its LSM write buffer is sized in entries, not
// bytes.
func (o Options) spec(fam string) assemble.Spec {
	s := assemble.Spec{
		Variant:   assemble.VariantOf(fam, o.Materialized),
		SeriesLen: o.SeriesLen, Segments: o.Segments, Bits: o.Bits,
		FillFactor: o.FillFactor, GrowthFactor: o.GrowthFactor,
		BufferEntries: o.BufferEntries, MemBudget: o.MemBudget, PageSize: o.PageSize,
		CacheBytes: o.CacheBytes, Parallelism: o.Parallelism,
		RawInMemory: true,
		WALDir:      o.WALDir, Durability: string(o.Durability), CompactionWorkers: o.CompactionWorkers,
		StorageDir: o.StorageDir, FS: o.FS,
	}
	if s.Parallelism == 0 {
		s.Parallelism = -1
	}
	if s.BufferEntries == 0 {
		s.BufferEntries = 1024
	}
	return s
}

// dataset copies the caller's series into a dataset, checking their length.
func dataset(data [][]float64, seriesLen int) (*series.Dataset, error) {
	ds := series.NewDataset(seriesLen)
	for i, s := range data {
		if _, err := ds.Append(series.Series(s)); err != nil {
			return nil, fmt.Errorf("coconut: series %d: %w", i, err)
		}
	}
	return ds, nil
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
	// PlannedSkips counts the probe units (shards, runs, partitions, leaves,
	// pages) the searches so far skipped whole because a bound proved they
	// could not improve the answer: the sum of each search's own count,
	// which is what its trace reports.
	PlannedSkips int64
	// Kernel names the active distance-kernel implementation ("avx2",
	// "neon", or "scalar"): the best the CPU offers, unless the
	// COCONUT_KERNELS environment variable names one for the process. All
	// kernels return bit-identical distances; only speed differs.
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

func convert(rs []index.Result) []Match {
	out := make([]Match, len(rs))
	for i, r := range rs {
		out[i] = Match{ID: int(r.ID), TS: r.TS, Dist: r.Dist}
	}
	return out
}

// statsOf renders an assembled build's accounting: the I/O of every disk
// behind it, the buffer-pool counters when it is cached, and the units its
// searches skipped (their running total).
func statsOf(b *assemble.Built) Stats {
	s := toStats(b.IOStats(), b.TotalPages())
	s.PlannedSkips = b.Searched.PlannedSkips()
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

// handle is the part of Tree, LSM and Sharded that is the same for all
// three: one assembled build, queried through the index interface. Its
// methods are promoted into each of them.
type handle struct {
	b   *assemble.Built
	cfg index.Config
}

// Count returns the number of indexed series (an LSM's buffered entries and
// every shard of a sharded index included).
func (h *handle) Count() int { return int(h.b.Index.Count()) }

// Insert adds one series with a timestamp. A Tree uses the leaf slack left
// by FillFactor (a full leaf splits); an LSM's writes are log-structured,
// acknowledged under the durability policy when a WAL is configured, and
// safe for concurrent use with searches and flushes; a Sharded index routes
// the series to its hash-assigned shard, assigning IDs in insertion order
// exactly as the unsharded index would. A non-materialized index appends
// the series to its raw series file before the index entry, so the insert
// answers the next search.
func (h *handle) Insert(s []float64, ts int64) error { return h.b.Ingest(series.Series(s), ts) }

// Search returns the exact k nearest neighbors of q. A Sharded index scans
// its shards concurrently and merges their exact per-shard top-k answers
// deterministically: the result is byte-identical to the unsharded index's.
func (h *handle) Search(q []float64, k int) ([]Match, error) {
	rs, err := h.b.ExactSearch(index.NewQuery(series.Series(q), h.cfg), k)
	return convert(rs), err
}

// SearchApprox returns up to k likely neighbors with one or two page reads
// (per run of an LSM, per shard of a Sharded index) and no exactness
// guarantee: deduplicated matches with true distances, ordered by
// (distance, ID).
func (h *handle) SearchApprox(q []float64, k int) ([]Match, error) {
	rs, err := h.b.ApproxSearch(index.NewQuery(series.Series(q), h.cfg), k)
	return convert(rs), err
}

// SearchRange returns every indexed series within Euclidean distance eps
// of q, sorted by distance — on a Sharded index byte-identical to the
// unsharded answer. eps is a distance: 0 answers the exact matches, +Inf
// every series, and a NaN or a negative eps is refused.
func (h *handle) SearchRange(q []float64, eps float64) ([]Match, error) {
	if math.IsNaN(eps) || eps < 0 {
		return nil, fmt.Errorf("coconut: eps must be a distance, at least 0; got %v", eps)
	}
	rs, err := h.b.RangeSearch(index.NewQuery(series.Series(q), h.cfg), eps)
	return convert(rs), err
}

// searchWindow returns the exact k nearest neighbors among entries whose
// timestamp lies in [minTS, maxTS].
func (h *handle) searchWindow(q []float64, k int, minTS, maxTS int64) ([]Match, error) {
	pq := index.NewQuery(series.Series(q), h.cfg).WithWindow(minTS, maxTS)
	rs, err := h.b.ExactSearch(pq, k)
	return convert(rs), err
}

// SearchBatch answers one exact k-NN query per element of qs, pipelined
// over the index's worker pool: parallelism moves from within one scan to
// across queries, and each worker slot reuses one pooled search context
// (tables refilled per query, scratch persistent) for the whole batch — on
// a Sharded index each query probes all shards with that single context.
// out[i] is byte-identical to Search(qs[i], k); batching changes
// throughput, never answers.
func (h *handle) SearchBatch(qs [][]float64, k int) ([][]Match, error) {
	iqs := make([]index.Query, len(qs))
	for i, q := range qs {
		if len(q) != h.cfg.SeriesLen {
			return nil, fmt.Errorf("coconut: query %d length %d, want %d", i, len(q), h.cfg.SeriesLen)
		}
		iqs[i] = index.NewQuery(series.Series(q), h.cfg)
	}
	rss, err := h.b.SearchBatch(iqs, k)
	if err != nil {
		return nil, err
	}
	out := make([][]Match, len(rss))
	for i, rs := range rss {
		out[i] = convert(rs)
	}
	return out, nil
}

// SetParallelism re-sizes the search worker pool — the one every search of
// the index fans out on, across the shards of a Sharded index — (n <= 0
// selects GOMAXPROCS; 1 is serial). Answers are identical at every setting.
// Call only while no search is in flight.
func (h *handle) SetParallelism(n int) { h.b.SetParallelism(n) }

// Stats returns the I/O accounting of the index's disk(s) since creation,
// cache counters included when a buffer pool is configured (one pool serves
// every shard of a Sharded index), plus the units its searches skipped.
func (h *handle) Stats() Stats { return statsOf(h.b) }

// SaveFile persists the index — pages, structure metadata, and, when not
// materialized, its raw series — into a single snapshot file on the host
// filesystem (Options.FS when one was injected); reopen it with OpenTree or
// OpenLSM. A materialized index's snapshot holds no raw series copy. An
// LSM's write buffer is flushed first, and with a WAL configured a
// successful save is a checkpoint: everything the snapshot holds leaves the
// log, which so stays bounded by the insert traffic since the last save. A
// Sharded index saves as one file set — a JSON manifest at path plus one
// such snapshot per shard at path.shardNNN — reopened with OpenSharded.
func (h *handle) SaveFile(path string) error { return h.b.SaveFile(path) }

// Close releases the index's resources: it waits out in-flight background
// merges, stops the compaction workers, syncs and closes the write-ahead
// log(s), drops the buffer pool's pages and closes the storage backend(s)
// (which, on the file-backed backend, fsyncs and closes the page files).
// Idempotent; defer it like any other handle, with no insert in flight.
func (h *handle) Close() error { return h.b.Close() }

// Tree is a CoconutTree index.
type Tree struct{ handle }

func newTree(b *assemble.Built) *Tree { return &Tree{handle{b: b, cfg: b.Config}} }

// BuildTree bulk-loads a CoconutTree over the given series (IDs are their
// positions). Construction summarizes, external-sorts, and packs leaves
// contiguously — sequential I/O end to end.
func BuildTree(data [][]float64, opts Options) (*Tree, error) {
	ds, err := dataset(data, opts.SeriesLen)
	if err != nil {
		return nil, err
	}
	b, err := assemble.Build(opts.spec("CTree"), ds)
	if err != nil {
		return nil, err
	}
	return newTree(b), nil
}

// LSM is a CoconutLSM index. With Options.WALDir set every insert is
// logged before acknowledgement (see Options.Durability) and with
// Options.CompactionWorkers set merges run in the background; Insert,
// Flush, and every Search may then be called concurrently from any number
// of goroutines. Defer Close to stop the background machinery and sync the
// log.
type LSM struct {
	handle
	lsm *clsm.LSM
}

func newLSM(b *assemble.Built) *LSM {
	return &LSM{handle: handle{b: b, cfg: b.Config}, lsm: b.Index.(*clsm.LSM)}
}

// NewLSM creates an empty CoconutLSM ready for continuous insertion. When
// opts.StorageDir or opts.WALDir already holds an LSM — the aftermath of a
// crash or a Close — the index adopts the runs the store holds and replays
// the log past them first, so it contains every previously acknowledged
// insert.
func NewLSM(opts Options) (*LSM, error) {
	b, err := assemble.Build(opts.spec("CLSM"), nil)
	if err != nil {
		return nil, err
	}
	return newLSM(b), nil
}

// Flush forces the in-memory buffer into a sorted on-disk run.
func (l *LSM) Flush() error { return l.lsm.Flush() }

// Runs returns the number of on-disk sorted runs.
func (l *LSM) Runs() int { return l.lsm.Runs() }

// SearchWindow returns the exact k nearest neighbors among entries whose
// timestamp lies in [minTS, maxTS].
func (l *LSM) SearchWindow(q []float64, k int, minTS, maxTS int64) ([]Match, error) {
	return l.searchWindow(q, k, minTS, maxTS)
}

// CompactionStats reports the state of the LSM's ingest machinery: flush
// and merge counters, manifest version and retention, and whether merges
// run in the background.
func (l *LSM) CompactionStats() clsm.CompactionStats { return l.lsm.CompactionStats() }

// WALStats reports the write-ahead log's accounting; ok is false when no
// WAL is configured.
func (l *LSM) WALStats() (st wal.Stats, ok bool) { return l.b.WALStats() }

// Quiesce waits until no merge is pending or in flight — without
// CompactionWorkers it merges any over-full level inline — surfacing the
// first merge error. Useful before comparing against a reference index or
// measuring steady state.
func (l *LSM) Quiesce() error { return l.lsm.Quiesce() }

// Scenario describes an application for the recommender; see the field
// documentation in the recommender package.
type Scenario = recommender.Scenario

// Recommendation is the recommender's advice with its rationale.
type Recommendation = recommender.Recommendation

// Recommend walks the recommender's decision tree for a scenario.
func Recommend(s Scenario) Recommendation { return recommender.Recommend(s) }
