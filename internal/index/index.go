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
// whose bound exceeds the collector's current worst. EvalPage and
// EvalPageRange (prune.go) are the page-evaluation loops: one pinned page —
// fixed-width, packed, or already decoded — filtered by window, pruned per
// entry, and verified in ascending lower-bound order. Every bound is a true
// lower bound, so planned and unplanned searches return byte-identical
// results; only I/O cost changes. A variant supplies how to bound a unit
// and how to pin its pages.
//
// # The search contract
//
// Nothing about searching is optional: every Index answers approximate,
// exact and range queries, each through a public method and a core, with one
// body behind the two that takes the pool it fans out on. The public method
// (ExactSearch) brings the index's own pool; Search is its prologue, written
// once. The core (ExactInto) fills the caller's collector with the caller's
// context, already filled for the query, and scans serially: its caller owns
// the parallelism at a coarser grain, one context per worker slot
// (AcquireCtxs) — Batch across queries, a shard group across shards, a
// stream scheme across partitions. A core leaves the exact accumulated
// squared sums in the collector, so every composition merges on the keys a
// single index compares; and it may be handed a collector that already holds
// results, which only tighten its pruning.
package index

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
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

// Collector maintains the k best results seen so far (a max-heap on
// (squared distance, ID)), deduplicating by series ID. The heap is
// hand-rolled rather than container/heap so pushes never box results into
// interfaces — candidate collection allocates nothing.
//
// The collector's final contents are the k smallest (Dist, ID) pairs among
// every result offered, independent of the order they were offered in —
// the determinism guarantee behind parallel search.
type Collector struct {
	k     int
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
	if k < 1 {
		k = 1
	}
	n := min(k, collectorPresize)
	return &Collector{k: k, items: make([]sqItem, 0, n), seen: make(map[int64]bool, n)}
}

// K returns the number of neighbors the collector keeps.
func (c *Collector) K() int { return c.k }

// Add offers a candidate carrying a true distance. It returns true if the
// candidate entered the current top-k. It is the tests' brute-force
// reference and nothing else: every merge a search makes is on the
// accumulated squared sums (AddSq).
func (c *Collector) Add(r Result) bool {
	return c.AddSq(r.ID, r.TS, r.Dist*r.Dist)
}

// AddSq offers a candidate by squared distance — the hot-path entry point:
// verifiers accumulate squared sums and never convert back. It returns true
// if the candidate entered the current top-k.
func (c *Collector) AddSq(id, ts int64, distSq float64) bool {
	if c.seen[id] {
		return false
	}
	it := sqItem{id: id, ts: ts, distSq: distSq}
	if len(c.items) < c.k {
		c.seen[id] = true
		c.items = append(c.items, it)
		c.siftUp(len(c.items) - 1)
		return true
	}
	if !worseSq(c.items[0], it) {
		return false
	}
	c.seen[id] = true
	delete(c.seen, c.items[0].id)
	c.items[0] = it
	c.siftDown(0)
	return true
}

func (c *Collector) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worseSq(c.items[i], c.items[p]) {
			return
		}
		c.items[i], c.items[p] = c.items[p], c.items[i]
		i = p
	}
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

// SkipSq reports whether a candidate whose squared iSAX lower bound is lbSq
// cannot change the collected results and may be skipped. The comparison is
// strict: a candidate whose true distance exactly equals the current k-th
// distance can still enter on an ID tie-break, so only bounds strictly
// beyond the k-th distance are prunable. Using SkipSq (rather than comparing against
// WorstSq directly) is what keeps pruning consistent with the collector's
// total order, and therefore keeps parallel and serial search identical.
func (c *Collector) SkipSq(lbSq float64) bool {
	return len(c.items) >= c.k && lbSq > c.items[0].distSq
}

func (c *Collector) tightens() bool { return true }

// Clone returns a new collector with the same k and the same current
// results. The parallel engine seeds one clone per worker so every worker
// prunes with the bound established by the approximate phase. Prefer
// PooledClone/MergeRelease on the fan-out path: they recycle the clones'
// heap and seen-map storage across queries.
func (c *Collector) Clone() *Collector {
	n := NewCollector(c.k)
	n.copyFrom(c)
	return n
}

// copyFrom seeds an empty collector with c's items (a verbatim copy
// preserves the heap invariant) and rebuilds the seen set.
func (n *Collector) copyFrom(c *Collector) {
	n.items = append(n.items, c.items...)
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

// Sub returns an empty pooled collector with c's k: what a shard group hands
// the index under it, whose IDs are not c's. Pair it with MergeMapped.
func (c *Collector) Sub() *Collector {
	n := collectorPool.Get().(*Collector)
	n.k = c.k
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
// k-th best result, or +Inf while fewer than k results are held — which
// verifiers pass straight to the early-abandoning squared distance
// accumulators.
func (c *Collector) WorstSq() float64 {
	if len(c.items) < c.k {
		return math.Inf(1)
	}
	return c.items[0].distSq
}

// Full reports whether k results have been collected.
func (c *Collector) Full() bool { return len(c.items) >= c.k }

// Each visits every collected result with its exact squared distance, in
// unspecified (heap) order. The distributed tier uses it to ship a node's
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
	// ApproxSearch returns up to k likely near neighbors by navigating
	// directly to the query's summarization region. No distance guarantee.
	ApproxSearch(q Query, k int) ([]Result, error)
	// ExactSearch returns the true k nearest neighbors.
	ExactSearch(q Query, k int) ([]Result, error)
	// RangeSearch returns every series within Euclidean distance eps of the
	// query.
	RangeSearch(q Query, eps float64) ([]Result, error)
	// ApproxInto, ExactInto and RangeInto are the cores of the three: serial,
	// into the caller's collector, with the caller's context filled for q.
	ApproxInto(q Query, col *Collector, ctx *SearchCtx) error
	ExactInto(q Query, col *Collector, ctx *SearchCtx) error
	RangeInto(q Query, col *RangeCollector, ctx *SearchCtx) error
}

// Search is the prologue of every public search method, written once: a
// pooled context filled for q, the search itself into col, and col rendered.
func Search[C interface{ Results() []Result }](q Query, cfg Config, col C, search func(q Query, col C, ctx *SearchCtx) error) ([]Result, error) {
	ctx := AcquireCtx(q, cfg)
	defer ctx.Release()
	return Rendered(col, search(q, col, ctx))
}

// Rendered renders a finished search's collector, passing its error through.
func Rendered[C interface{ Results() []Result }](col C, err error) ([]Result, error) {
	if err != nil {
		return nil, err
	}
	return col.Results(), nil
}

// Inserter is implemented by indexes that accept incremental inserts
// (CLSM natively; CTree via leaf slack; ADS+ top-down).
type Inserter interface {
	Insert(s series.Series, ts int64) error
}

// RangeCollector accumulates all results within eps, sorted by distance on
// Results(). Unlike Collector there is no k; the pruning bound is eps
// itself, held squared so membership tests stay in squared space.
type RangeCollector struct {
	eps          float64
	epsSq        float64
	skipBeyondSq float64 // see SkipBeyondSq; fixed with eps, asked for once a page
	items        []sqItem
	seen         map[int64]bool
}

// NewRangeCollector creates a collector for results within eps.
func NewRangeCollector(eps float64) *RangeCollector {
	e := math.Nextafter(eps, math.Inf(1))
	return &RangeCollector{
		eps: eps, epsSq: eps * eps, skipBeyondSq: math.Nextafter(e*e, math.Inf(1)),
		seen: make(map[int64]bool),
	}
}

// Bound returns the pruning bound as a true distance: candidates with lower
// bounds beyond Bound cannot qualify.
func (c *RangeCollector) Bound() float64 { return c.eps }

// BoundSq returns the squared epsilon, used as the early-abandon limit for
// candidate verification (the same fl(eps*eps) the true-distance code used
// as bound*bound).
func (c *RangeCollector) BoundSq() float64 { return c.epsSq }

// SkipSq reports whether a candidate (or subtree) whose squared lower
// bound is lbSq cannot contain qualifying results and may be skipped. The
// comparison happens in true-distance space, mirroring AddSq's membership
// test, so prune-implies-reject holds exactly even in the 1-ulp window
// where fl(eps*eps) under-rounds eps² — one sqrt per pruning decision on
// the range path only (k-NN pruning, whose bound is a collected distance
// rather than a caller contract, stays fully squared).
func (c *RangeCollector) SkipSq(lbSq float64) bool {
	return math.Sqrt(lbSq) > c.eps
}

// SkipBeyondSq returns a squared bound above which SkipSq always holds:
// lbSq > SkipBeyondSq() implies SkipSq(lbSq). BoundSq is not such a bound —
// SkipSq compares square roots, and a value an ulp above fl(eps*eps) can
// have a root that rounds back to eps. With e the next double above eps,
// anything above fl(e*e) rounded up exceeds e*e exactly, so its root, and
// the rounded root, is at least e.
func (c *RangeCollector) SkipBeyondSq() float64 { return c.skipBeyondSq }

func (c *RangeCollector) tightens() bool { return false }

// Add offers a candidate carrying a true distance; it is kept when within
// eps and not a duplicate. Like Collector.Add, the tests' reference only.
func (c *RangeCollector) Add(r Result) bool {
	return c.AddSq(r.ID, r.TS, r.Dist*r.Dist)
}

// AddSq offers a candidate by squared distance, the hot-path entry point.
// Membership is decided in true-distance space (one sqrt per candidate that
// survived lower-bound pruning — a rounding error away from free): a caller
// who sets eps to a distance reported in a Result must get that boundary
// neighbor back, exactly as when the comparison was r.Dist > eps, and
// fl(eps*eps) can under-round that boundary in squared space.
func (c *RangeCollector) AddSq(id, ts int64, distSq float64) bool {
	if math.Sqrt(distSq) > c.eps || c.seen[id] {
		return false
	}
	c.seen[id] = true
	c.items = append(c.items, sqItem{id: id, ts: ts, distSq: distSq})
	return true
}

// Clone returns a new empty collector with the same epsilon. Unlike
// Collector.Clone it carries no seed results: range collection prunes with
// the static eps bound, so workers gain nothing from seeding. Prefer
// PooledClone/MergeRelease on the fan-out path.
func (c *RangeCollector) Clone() *RangeCollector { return NewRangeCollector(c.eps) }

// rangeCollectorPool recycles range collectors across fan-outs, mirroring
// the Collector pool: per-worker clones reuse previously allocated items
// slices and seen maps.
var rangeCollectorPool = sync.Pool{New: func() any { return new(RangeCollector) }}

// PooledClone is Clone drawing storage from the range-collector pool. Pair
// it with MergeRelease so the storage returns to the pool after the
// fan-out.
func (c *RangeCollector) PooledClone() *RangeCollector {
	n := rangeCollectorPool.Get().(*RangeCollector)
	n.eps, n.epsSq, n.skipBeyondSq = c.eps, c.epsSq, c.skipBeyondSq
	n.items = n.items[:0]
	if n.seen == nil {
		n.seen = make(map[int64]bool)
	} else {
		clear(n.seen)
	}
	return n
}

// MergeRelease merges o into c and returns o's storage to the pool. o must
// not be used afterwards.
func (c *RangeCollector) MergeRelease(o *RangeCollector) {
	c.Merge(o)
	rangeCollectorPool.Put(o)
}

// MergeMapped is MergeRelease under the IDs ids[local], for a PooledClone
// filled under local IDs; see Collector.MergeMapped.
func (c *RangeCollector) MergeMapped(o *RangeCollector, ids []int64) {
	for _, it := range o.items {
		c.AddSq(ids[it.id], it.ts, it.distSq)
	}
	rangeCollectorPool.Put(o)
}

// Merge folds another range collector's results into c, deduplicating by
// ID. The collected set — every candidate within eps — does not depend on
// order, so per-worker range collectors merge deterministically.
func (c *RangeCollector) Merge(o *RangeCollector) {
	for _, it := range o.items {
		c.AddSq(it.id, it.ts, it.distSq)
	}
}

// Each visits every collected result with its exact squared distance, in
// collection order. The distributed tier uses it to ship qualifying series
// to the router as (global ID, TS, squared distance) triples.
func (c *RangeCollector) Each(fn func(id, ts int64, distSq float64)) {
	for _, it := range c.items {
		fn(it.id, it.ts, it.distSq)
	}
}

// Results returns all collected results sorted by ascending distance.
func (c *RangeCollector) Results() []Result { return render(c.items) }
