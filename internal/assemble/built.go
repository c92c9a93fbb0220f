package assemble

import (
	"fmt"
	"sort"

	"repro/internal/clsm"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Ingest appends one series after construction: a non-materialized build
// appends it to its raw series file first, so the entry is resolvable once a
// search can see it. The series takes the next dense ID, in insertion order;
// on a partitioned build it routes to its hash-assigned shard, and a cluster
// build refuses, its IDs being the router's to assign (ClusterInsert). Safe
// for concurrent use with searches, except on a streaming scheme
// (Spec.Scheme), whose buffer a search reads unguarded; concurrent inserts
// serialize.
func (b *Built) Ingest(s series.Series, ts int64) error {
	if b.Group == nil {
		return b.insert(s, ts)
	}
	if b.Spec.ClusterShards > 0 {
		return fmt.Errorf("assemble: %s is a cluster build; inserts carry router-assigned IDs (ClusterInsert)", b.Index.Name())
	}
	b.insertMu.Lock()
	defer b.insertMu.Unlock()
	return b.insertAt(b.Group.Count(), s, ts)
}

// ClusterInsert appends one series under a router-assigned global ID — the
// node-side replica write path. The ID must be exactly the next one expected
// by a shard this node owns (shard.Group.PrepareInsert); the series lands in
// that shard through its normal ingest path, raw series file included.
func (b *Built) ClusterInsert(id int64, s series.Series, ts int64) error {
	if b.Spec.ClusterShards == 0 {
		return fmt.Errorf("assemble: %s is not a cluster build", b.Index.Name())
	}
	b.insertMu.Lock()
	defer b.insertMu.Unlock()
	return b.insertAt(id, s, ts)
}

// insertAt is the one partitioned insert: validate the ID against the
// group, insert into the owning part, record the ID. Callers hold insertMu.
func (b *Built) insertAt(id int64, s series.Series, ts int64) error {
	si, err := b.Group.PrepareInsert(id)
	if err != nil {
		return err
	}
	// PrepareInsert vouched the shard is owned; Parts follow Owned's order.
	if err := b.Parts[sort.SearchInts(b.Group.Owned(), si)].insert(s, ts); err != nil {
		return err
	}
	b.Group.NoteInsert(si, id)
	return nil
}

// insert appends one series to an unpartitioned build.
func (b *Built) insert(s series.Series, ts int64) error {
	if len(s) != b.Config.SeriesLen {
		return fmt.Errorf("assemble: series length %d, want %d", len(s), b.Config.SeriesLen)
	}
	ins, ok := b.Index.(interface {
		Insert(series.Series, int64) error
	})
	if !ok {
		return fmt.Errorf("assemble: %s does not support inserts", b.Index.Name())
	}
	b.insertMu.Lock()
	defer b.insertMu.Unlock()
	if b.Raw != nil {
		if len(b.z) != len(s) {
			b.z = make(series.Series, len(s))
		}
		if _, err := b.Raw.Append(s.ZNormalizeInto(b.z)); err != nil {
			return err
		}
	}
	if err := ins.Insert(s, ts); err != nil {
		return err
	}
	return b.inStep()
}

// Seal flushes a streaming scheme's buffered arrivals into a partition; a
// no-op on an index, whose searches read its buffer.
func (b *Built) Seal() error {
	if sc, ok := b.Index.(stream.Scheme); ok {
		return sc.Seal()
	}
	return nil
}

// Partitions returns how many separately searchable pieces the build keeps
// as a stream: its scheme's partitions, or 1 for an index, which as a PP
// stream is one piece.
func (b *Built) Partitions() int {
	if sc, ok := b.Index.(stream.Scheme); ok {
		return sc.Partitions()
	}
	return 1
}

// eachLSM applies fn to every CLSM behind the build, part by part.
func (b *Built) eachLSM(fn func(*clsm.LSM) error) error {
	for _, p := range b.Parts {
		if err := p.eachLSM(fn); err != nil {
			return err
		}
	}
	if l, ok := b.Index.(*clsm.LSM); ok {
		return fn(l)
	}
	return nil
}

// Quiesce waits until no merge is pending or in flight, surfacing the first
// merge error.
func (b *Built) Quiesce() error { return b.eachLSM((*clsm.LSM).Quiesce) }

// Flush forces every CLSM write buffer into a sorted on-disk run; a no-op on
// other variants.
func (b *Built) Flush() error { return b.eachLSM((*clsm.LSM).Flush) }

// CompactionStats reports the ingest/compaction state of a CLSM build; ok
// is false for other variants and for partitioned builds (ask the Parts).
func (b *Built) CompactionStats() (clsm.CompactionStats, bool) {
	if l, ok := b.Index.(*clsm.LSM); ok {
		return l.CompactionStats(), true
	}
	return clsm.CompactionStats{}, false
}

// WALStats reports the write-ahead log's accounting; ok is false when the
// build has no WAL of its own (partitioned builds: ask the Parts).
func (b *Built) WALStats() (wal.Stats, bool) {
	if b.WAL == nil {
		return wal.Stats{}, false
	}
	return b.WAL.Stats(), true
}

// SetParallelism replaces the build's search pool — the one every search
// of the build fans out on, cross-shard on a partitioned build, across runs,
// leaf ranges or partitions otherwise — with one of n workers (n <= 0 selects
// GOMAXPROCS; 1 is serial). Call only while no search is in flight.
func (b *Built) SetParallelism(n int) {
	b.Spec.Parallelism = parallel.Resolve(n)
	b.workers = parallel.New(n)
}

// Workers returns the build's search pool, for a search the build has no
// entry for (a node's shard subset).
func (b *Built) Workers() *parallel.Pool { return b.workers }

// ApproxSearch returns up to k likely near neighbors of q (index.Into on the
// build's pool, planner and running total).
func (b *Built) ApproxSearch(q index.Query, k int) ([]index.Result, error) {
	return index.Rendered(index.Into(q, b.Config, b.workers, b.Planner, &b.Searched, index.NewCollector(k), b.Index.ApproxInto))
}

// ExactSearch returns the true k nearest neighbors of q, as ApproxSearch.
func (b *Built) ExactSearch(q index.Query, k int) ([]index.Result, error) {
	return index.Rendered(index.Into(q, b.Config, b.workers, b.Planner, &b.Searched, index.NewCollector(k), b.Index.ExactInto))
}

// RangeSearch returns every series within distance eps of q, as ApproxSearch.
func (b *Built) RangeSearch(q index.Query, eps float64) ([]index.Result, error) {
	return index.Rendered(index.Into(q, b.Config, b.workers, b.Planner, &b.Searched, index.NewRangeCollector(eps), b.Index.RangeInto))
}

// SearchBatch answers one exact k-NN query per element of qs (index.Batch),
// byte-identically to ExactSearch: the build's pool moves from within one
// search to across queries.
func (b *Built) SearchBatch(qs []index.Query, k int) ([][]index.Result, error) {
	return index.Batch(b.workers, b.Planner, &b.Searched, b.Config, b.Index, qs, k)
}

// Close shuts the build down: waits out in-flight background merges, stops
// the compaction workers, syncs and closes every write-ahead log, drops the
// pools' pages and closes every backend (the file backend fsyncs and
// releases its page files). It is also the cleanup of a build that failed
// part-way, so it tolerates any prefix of the assembly steps. Idempotent;
// call with no insert in flight.
func (b *Built) Close() error {
	if !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	for _, p := range b.Parts {
		if p != nil {
			keep(p.Close())
		}
	}
	if l, ok := b.Index.(*clsm.LSM); ok {
		keep(l.Close())
	}
	if b.ownsSched && b.Compactor != nil {
		keep(b.Compactor.Close())
	}
	if b.WAL != nil {
		keep(b.WAL.Close())
	}
	if b.Parts == nil {
		if b.Pool != nil {
			b.Pool.Purge()
		}
		if b.Disk != nil {
			keep(b.Disk.Close())
		}
	}
	return err
}

// BuildCost returns the I/O cost of construction under the model.
func (b *Built) BuildCost(m storage.CostModel) float64 { return b.BuildStats.Cost(m) }

// IOStats returns the statistics aggregated over every disk backing the
// build, buffer-pool hit/miss counters included. Query-cost accounting must
// diff this, not Disk.Stats, to charge every shard and see cache hits.
func (b *Built) IOStats() storage.Stats {
	switch {
	case b.Group != nil:
		return b.Group.IOStats()
	case b.Pool != nil:
		return b.Pool.Stats()
	}
	return b.Disk.Stats()
}

// TotalPages returns the page count summed over every disk backing the
// build.
func (b *Built) TotalPages() int64 {
	if b.Group != nil {
		return b.Group.TotalPages()
	}
	return b.Disk.TotalPages()
}

// Shards returns how many shards the build holds (1 when unpartitioned).
func (b *Built) Shards() int { return max(1, len(b.Parts)) }

// prefixTracer namespaces one shard's page accesses before forwarding them:
// every shard's disk reuses the same file names, and a shared recorder would
// otherwise overlay unrelated files into one meaningless heat map.
type prefixTracer struct {
	prefix string
	t      storage.Tracer
}

func (p prefixTracer) Access(file string, page int64, write bool) {
	p.t.Access(p.prefix+file, page, write)
}

// shardTracer is t as the i-th part of a partitioned build sees it.
func shardTracer(i int, t storage.Tracer) storage.Tracer {
	return prefixTracer{prefix: fmt.Sprintf("shard%02d/", i), t: t}
}

// SetTracer installs a page-access tracer on every disk backing the build.
// Partitioned builds wrap the tracer per shard so file names stay distinct
// ("shard03/ctree.leaves"); the tracer must tolerate concurrent calls.
func (b *Built) SetTracer(t storage.Tracer) {
	if b.Parts == nil {
		b.Disk.SetTracer(t)
		return
	}
	for i, p := range b.Parts {
		p.Disk.SetTracer(shardTracer(i, t))
	}
}
