// Package index defines the abstractions shared by every data series index
// in the repository (CTree, CLSM, ADS+, and a shard group over any of
// them): the summarization configuration, query preparation,
// nearest-neighbor result collection, and the Index interface — the one
// search contract the exploration tools, the compositions and the
// benchmarks program against.
//
// Convention: indexes z-normalize series at ingestion and queries at
// preparation, so all distances are Euclidean distances between
// z-normalized series — the standard setting in the data series similarity
// search literature the paper builds on.
//
// # The exact-search read path
//
// Every variant's exact search is the same procedure, and the package hosts
// it once. ProbeUnits (planner.go) is the planned-probe executor: zone-map
// synopses from package zonestat turn into MINDIST lower bounds that order
// probe units (runs, partitions, shards) best-bound-first and skip units
// whose bound exceeds the collector's current worst. EvalPage (prune.go) is
// the page-evaluation loop: one pinned page of fixed-width records, or
// entries already decoded, filtered by window, pruned per entry, and
// verified in ascending lower-bound order. Every
// bound is a true lower bound, so planned and unplanned searches return
// byte-identical results; only I/O cost changes. A variant supplies how to
// bound a unit and how to pin its pages.
//
// # The search contract
//
// Nothing about searching is optional: every Index answers approximate,
// exact and range queries, each through one core (ApproxInto, ExactInto,
// RangeInto) that fills the caller's collector with the caller's context,
// already filled for the query. The context carries the worker pool the
// search may fan out on, and whoever holds the pool owns the parallelism: an
// index that scans its own pages (a CTree's leaf ranges, a CLSM's runs, a
// BTP's partitions) fans them out on it; a composition (a shard group, a TP
// stream) spends it across its parts and hands each part a serial context
// (SearchCtx.Parts); Batch spends it across queries and hands every query a
// serial context. Beside the pool the context carries the search's one
// planner, which every level, parts included, plans under and counts into.
// Only an entry (Into, and Approx, Exact and Range over an Index) sets the
// pool and the planner — it acquires the context, runs the core into a new
// collector and renders the result — and assemble.Built holds the one pool
// and the one planner a build's searches use. A core leaves the exact
// accumulated squared sums in the collector, so every composition merges on
// the keys a single index compares; and it may be handed a collector that
// already holds results, which only tighten its pruning.
package index

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/record"
	"repro/internal/sax"
	"repro/internal/series"
	"repro/internal/sortable"
)

// Config fixes the summarization shape shared by an index and its queries.
type Config struct {
	SeriesLen    int  // length of every data series
	Segments     int  // iSAX segments (w)
	Bits         int  // cardinality bits per segment
	Materialized bool // entries carry the full series inline
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SeriesLen <= 0 {
		return fmt.Errorf("index: SeriesLen must be positive, got %d", c.SeriesLen)
	}
	if c.Segments <= 0 || c.Segments > sortable.MaxSegments {
		return fmt.Errorf("index: Segments must be in [1,%d], got %d", sortable.MaxSegments, c.Segments)
	}
	if c.Bits <= 0 || c.Bits > sax.MaxBits {
		return fmt.Errorf("index: Bits must be in [1,%d], got %d", sax.MaxBits, c.Bits)
	}
	if c.Segments > c.SeriesLen {
		return fmt.Errorf("index: Segments %d exceeds SeriesLen %d", c.Segments, c.SeriesLen)
	}
	return nil
}

// Codec returns the entry codec for this configuration.
func (c Config) Codec() record.Codec {
	return record.Codec{SeriesLen: c.SeriesLen, Materialized: c.Materialized}
}

// Summarize z-normalizes s and returns its sortable key along with the
// z-normalized series.
func (c Config) Summarize(s series.Series) (sortable.Key, series.Series) {
	z := s.ZNormalize()
	return sortable.FromSeries(z, c.Segments, c.Bits), z
}

// Query is a prepared similarity-search target.
type Query struct {
	Norm series.Series // z-normalized query series
	PAA  []float64     // PAA of Norm
	Key  sortable.Key  // sortable summarization of Norm
	// Window restricts the search to entries with TS in [MinTS, MaxTS];
	// both zero means unrestricted. Used by the streaming schemes.
	MinTS, MaxTS int64
	Windowed     bool
	// Trace, when non-nil, records this query's execution — probe units
	// probed vs. skipped with their synopsis bounds, candidate verification
	// tallies, per-phase wall time — for the ?trace=1 / explain surface. It
	// flows into the pooled SearchCtx and its Scratches via AcquireCtx; the
	// untraced default (nil) costs the hot path one nil check per
	// instrumentation point. Answers are byte-identical traced or not.
	Trace *obs.QueryTrace
}

// NewQuery prepares a raw series as a query under config c.
func NewQuery(s series.Series, c Config) Query {
	z := s.ZNormalize()
	paa := sax.PAA(z, c.Segments)
	return Query{
		Norm: z,
		PAA:  paa,
		Key:  sortable.Interleave(sax.FromPAA(paa, c.Bits)),
	}
}

// WithWindow returns a copy of q restricted to the temporal window
// [minTS, maxTS] (inclusive).
func (q Query) WithWindow(minTS, maxTS int64) Query {
	q.MinTS, q.MaxTS = minTS, maxTS
	q.Windowed = true
	return q
}

// InWindow reports whether a timestamp satisfies the query's window.
func (q Query) InWindow(ts int64) bool {
	return !q.Windowed || (ts >= q.MinTS && ts <= q.MaxTS)
}

// Result is one nearest-neighbor answer.
type Result struct {
	ID   int64   // series ID in the raw store
	TS   int64   // ingestion timestamp
	Dist float64 // true Euclidean distance (z-normalized)
}

// sqItem is one collected result held in squared space: collectors keep
// and compare squared distances so the hot path never pays a square root;
// the conversion to a true distance happens exactly once, in Results().
// sqrt is monotone, so ordering by (distSq, id) is ordering by (Dist, ID),
// and because IEEE-754 sqrt is correctly rounded, sqrt(d*d) == d for any
// non-negative double whose square neither overflows nor underflows —
// round-tripping a true distance through Add/Results is exact. (Distances
// below ~1.5e-154 square into the subnormal range and collapse toward 0;
// z-normalized series distances sit many orders of magnitude above that.)
type sqItem struct {
	id, ts int64
	distSq float64
}

// worseSq reports whether a is strictly worse than b under the collector's
// total order: farther first, with the larger ID losing ties. Ordering
// results totally (rather than by distance alone) is what makes collection
// order-independent, which the parallel query engine relies on: per-worker
// collectors merged in any order yield the same k results as one serial
// collector fed the same candidates.
func worseSq(a, b sqItem) bool {
	if a.distSq != b.distSq {
		return a.distSq > b.distSq
	}
	return a.id > b.id
}

// Collector maintains the k best results seen so far whose squared distance
// is within a limit, deduplicating by series ID: one collector for both
// searches the paper's system answers with one pruning rule. A k-NN
// collector (NewCollector) has the limit +Inf, and its pruning bound is the
// k-th best squared distance, which tightens as results arrive. A range
// collector (NewRangeCollector) has no k bound and a fixed limit, so its
// pruning bound never moves. Below k results the items are an unordered
// bag; the k-th result makes them a max-heap on (squared distance, ID),
// kept by hand rather than by container/heap so pushes never box results
// into interfaces — candidate collection allocates nothing.
//
// The collector's final contents are the k smallest (Dist, ID) pairs within
// the limit among every result offered, independent of the order they were
// offered in — the determinism guarantee behind parallel search.
type Collector struct {
	k     int
	limit float64 // squared-distance limit: +Inf for k-NN
	bound float64 // WorstSq: limit below k results, then the k-th's squared distance
	items []sqItem
	seen  map[int64]bool
}

// collectorPresize caps what a collector allocates before it has seen a
// candidate. k may be a number off the wire, and a collector holds
// min(k, candidates offered) results however large k is: the heap and the
// seen set start at min(k, this) and grow with what arrives.
const collectorPresize = 64

// NewCollector creates a collector for the k nearest neighbors.
func NewCollector(k int) *Collector {
	return newCollector(max(k, 1), math.Inf(1))
}

// NewRangeCollector creates a collector for every result within Euclidean
// distance eps: no k bound, and the limit rangeLimit(eps).
func NewRangeCollector(eps float64) *Collector {
	return newCollector(math.MaxInt, rangeLimit(eps))
}

func newCollector(k int, limit float64) *Collector {
	n := min(k, collectorPresize)
	return &Collector{k: k, limit: limit, bound: limit, items: make([]sqItem, 0, n), seen: make(map[int64]bool, n)}
}

// rangeLimit returns the squared limit of a range search within eps: the
// largest float64 t whose math.Sqrt is at most eps. Sqrt is monotone and
// correctly rounded, so x > t exactly when math.Sqrt(x) > eps, for every x
// including NaN and negatives: membership and pruning compare squared
// numbers and still decide what the true-distance test decides — a caller
// who sets eps to a distance a Result reported gets that neighbor back. t is
// fl(eps²) or the float64 above it; fl(eps²) alone can under-round the
// boundary. A NaN eps gives a NaN limit, which rejects nothing, as a
// comparison with NaN does; a negative eps gives -Inf, which rejects every
// distance a search can produce.
func rangeLimit(eps float64) float64 {
	switch {
	case math.IsInf(eps, 1):
		return eps
	case eps < 0:
		return math.Inf(-1)
	}
	t := eps * eps
	for math.Sqrt(t) > eps { // eps² overflowed to +Inf
		t = math.Nextafter(t, 0)
	}
	for u := math.Nextafter(t, math.Inf(1)); math.Sqrt(u) <= eps; u = math.Nextafter(u, math.Inf(1)) {
		t = u
	}
	return t
}

// K returns the number of neighbors the collector keeps.
func (c *Collector) K() int { return c.k }

// Add offers a candidate carrying a true distance. It returns true if the
// candidate entered the collected results. It is the tests' brute-force
// reference and nothing else: every merge a search makes is on the
// accumulated squared sums (AddSq).
func (c *Collector) Add(r Result) bool {
	return c.AddSq(r.ID, r.TS, r.Dist*r.Dist)
}

// AddSq offers a candidate by squared distance — the hot-path entry point:
// verifiers accumulate squared sums and never convert back. It returns true
// if the candidate entered the collected results. A candidate beyond the
// bound can enter neither a full heap nor a range, so it is turned away
// before the seen set is consulted.
func (c *Collector) AddSq(id, ts int64, distSq float64) bool {
	if distSq > c.bound || c.seen[id] {
		return false
	}
	it := sqItem{id: id, ts: ts, distSq: distSq}
	if len(c.items) < c.k {
		c.seen[id] = true
		c.items = append(c.items, it)
		if len(c.items) == c.k {
			for i := c.k/2 - 1; i >= 0; i-- {
				c.siftDown(i)
			}
			c.bound = c.items[0].distSq
		}
		return true
	}
	if !worseSq(c.items[0], it) {
		return false
	}
	c.seen[id] = true
	delete(c.seen, c.items[0].id)
	c.items[0] = it
	c.siftDown(0)
	c.bound = c.items[0].distSq
	return true
}

func (c *Collector) siftDown(i int) {
	n := len(c.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && worseSq(c.items[l], c.items[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && worseSq(c.items[r], c.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		c.items[i], c.items[worst] = c.items[worst], c.items[i]
		i = worst
	}
}

// SkipSq reports whether a candidate (or a unit of them) whose squared
// lower bound is lbSq cannot change the collected results and may be
// skipped. The comparison is strict: a candidate whose true distance
// exactly equals the current k-th distance can still enter on an ID
// tie-break, and one at a range's limit is within it, so only bounds
// strictly beyond WorstSq are prunable. Using SkipSq (rather than comparing
// against WorstSq directly) is what keeps pruning consistent with the
// collector's total order, and therefore keeps parallel and serial search
// identical. The bound only tightens, so a bound ruled out stays ruled out.
func (c *Collector) SkipSq(lbSq float64) bool { return lbSq > c.bound }

// BoundFixed reports whether the pruning bound can never move: a range
// collector's, which holds no k bound. Probe units and a page's candidates
// are then taken in their own order, since ordering them best-first would
// tighten nothing.
func (c *Collector) BoundFixed() bool { return c.k == math.MaxInt }

// Clone returns a new collector with the same k, the same limit and the same
// current results. The parallel engine seeds one clone per worker so every
// worker prunes with the bound established by the approximate phase. Prefer
// PooledClone/MergeRelease on the fan-out path: they recycle the clones'
// heap and seen-map storage across queries.
func (c *Collector) Clone() *Collector {
	n := newCollector(c.k, c.limit)
	n.copyFrom(c)
	return n
}

// copyFrom seeds an empty collector with c's items (a verbatim copy
// preserves the heap invariant) and bound, and rebuilds the seen set.
func (n *Collector) copyFrom(c *Collector) {
	n.items = append(n.items, c.items...)
	n.bound = c.bound
	for _, it := range c.items {
		n.seen[it.id] = true
	}
}

// collectorPool recycles collectors across fan-outs so each worker clone
// reuses a previously allocated heap slice and seen map instead of churning
// fresh ones per query.
var collectorPool = sync.Pool{New: func() any { return new(Collector) }}

// PooledClone is Clone drawing storage from the collector pool. Pair it
// with MergeRelease so the storage returns to the pool after the fan-out.
func (c *Collector) PooledClone() *Collector {
	n := c.Sub()
	n.copyFrom(c)
	return n
}

// Sub returns an empty pooled collector with c's k and limit: what a shard
// group hands the index under it, whose IDs are not c's. Pair it with
// MergeMapped.
func (c *Collector) Sub() *Collector {
	n := collectorPool.Get().(*Collector)
	n.k, n.limit, n.bound = c.k, c.limit, c.limit
	n.items = n.items[:0]
	if n.seen == nil {
		n.seen = make(map[int64]bool, min(c.k, collectorPresize))
	} else {
		clear(n.seen)
	}
	return n
}

// MergeMapped is MergeRelease under the IDs ids[local]: still on the exact
// accumulated sums, so a composition selects bit for bit what one index over
// all the series would.
func (c *Collector) MergeMapped(o *Collector, ids []int64) {
	for _, it := range o.items {
		c.AddSq(ids[it.id], it.ts, it.distSq)
	}
	collectorPool.Put(o)
}

// Merge folds another collector's results into c, deduplicating by ID.
// Because collection is order-independent, merging per-worker collectors in
// any order produces the same final top-k as a single serial collector.
func (c *Collector) Merge(o *Collector) {
	for _, it := range o.items {
		c.AddSq(it.id, it.ts, it.distSq)
	}
}

// MergeRelease merges o into c and returns o's storage to the collector
// pool. o must not be used afterwards.
func (c *Collector) MergeRelease(o *Collector) {
	c.Merge(o)
	collectorPool.Put(o)
}

// WorstSq returns the squared pruning bound — the squared distance of the
// k-th best result, or the limit while fewer than k results are held — which
// verifiers pass straight to the early-abandoning squared distance
// accumulators: a sum abandoned beyond it could not have entered.
func (c *Collector) WorstSq() float64 { return c.bound }

// Full reports whether k results have been collected.
func (c *Collector) Full() bool { return len(c.items) >= c.k }

// Each visits every collected result once with its exact squared distance,
// in unspecified order. The distributed tier uses it to ship a node's
// answer to the router on the original accumulated sums — the same ordering
// keys the single-node collector compares — so the router-side merge
// preserves even sub-ulp tie-breaks that re-squaring a reported distance
// could lose.
func (c *Collector) Each(fn func(id, ts int64, distSq float64)) {
	for _, it := range c.items {
		fn(it.id, it.ts, it.distSq)
	}
}

// Results returns the collected results sorted by ascending distance.
func (c *Collector) Results() []Result { return render(c.items) }

// render is the only place squared distances convert back to true
// distances: items as results, sorted by ascending (distance, ID).
func render(items []sqItem) []Result {
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: it.id, TS: it.ts, Dist: math.Sqrt(it.distSq)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Index is the common interface of every data series index in the repo: the
// search contract of the package comment.
type Index interface {
	// Name identifies the index variant (e.g. "CTree", "CLSMFull").
	Name() string
	// Count returns the number of indexed series.
	Count() int64
	// ApproxInto collects likely near neighbors by navigating directly to
	// the query's summarization region. No distance guarantee.
	ApproxInto(q Query, col *Collector, ctx *SearchCtx) error
	// ExactInto collects the true nearest neighbors.
	ExactInto(q Query, col *Collector, ctx *SearchCtx) error
	// RangeInto collects every series within the range collector's limit
	// of the query (NewRangeCollector).
	RangeInto(q Query, col *Collector, ctx *SearchCtx) error
}

// Into is the one search entry: a pooled context filled for q under cfg,
// fanning out on pool (nil or one worker: serial) and planning under pl (nil:
// defaults, uncounted), core run into col on it, and col returned filled.
// Approx, Exact and Range are it over an Index's cores; a caller holding a
// core of another shape (a shard subset) calls it directly.
func Into(q Query, cfg Config, pool *parallel.Pool, pl *Planner, col *Collector, core func(Query, *Collector, *SearchCtx) error) (*Collector, error) {
	ctx := AcquireCtx(q, cfg)
	defer ctx.Release()
	if pool.Workers() > 1 {
		ctx.Pool = pool
	}
	ctx.Planner = pl
	return col, core(q, col, ctx)
}

// Approx returns up to k likely near neighbors of q in idx, fanning out on
// pool under pl.
func Approx(idx Index, q Query, cfg Config, pool *parallel.Pool, pl *Planner, k int) ([]Result, error) {
	return Rendered(Into(q, cfg, pool, pl, NewCollector(k), idx.ApproxInto))
}

// Exact returns the true k nearest neighbors of q in idx, fanning out on
// pool under pl.
func Exact(idx Index, q Query, cfg Config, pool *parallel.Pool, pl *Planner, k int) ([]Result, error) {
	return Rendered(Into(q, cfg, pool, pl, NewCollector(k), idx.ExactInto))
}

// Range returns every series in idx within Euclidean distance eps of q,
// fanning out on pool under pl.
func Range(idx Index, q Query, cfg Config, pool *parallel.Pool, pl *Planner, eps float64) ([]Result, error) {
	return Rendered(Into(q, cfg, pool, pl, NewRangeCollector(eps), idx.RangeInto))
}

// Rendered renders a finished search's collector, passing its error through.
func Rendered(col *Collector, err error) ([]Result, error) {
	if err != nil {
		return nil, err
	}
	return col.Results(), nil
}

// Inserter is implemented by indexes that accept incremental inserts
// (CLSM natively; CTree via leaf slack; ADS+ top-down; the TP and BTP
// stream schemes into their buffer), each assigning the next dense ID.
type Inserter interface {
	Insert(s series.Series, ts int64) error
}
