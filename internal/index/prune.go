package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/sax"
	"repro/internal/series"
	"repro/internal/simd"
	"repro/internal/sortable"
)

// This file implements the squared-space pruning pipeline shared by every
// index's query hot path.
//
// Every candidate probe lower-bounds the query-candidate distance with iSAX
// MINDIST. Computed naively that is expensive: the interleaved key is
// decoded into a freshly allocated Word, each segment re-derives its
// Gaussian breakpoint region, and a math.Sqrt is paid just to compare
// against a pruning bound that could equally well be compared squared. The
// pipeline removes all of that:
//
//   - A Pruner materializes, once per query, a lookup table
//     tab[segment<<bits|symbol] -> pre-scaled squared per-segment MINDIST
//     contribution, for each cardinality in use. A candidate's squared
//     lower bound (MinDistSqKey) is then Segments array lookups summed —
//     no Region calls, no Word allocation, and no sqrt (collectors compare
//     squared bounds; true distances materialize only in Results()). The
//     table fill is the preprocessing; it pays off only if what stands
//     between a key and its lookups is cheap, so the key's symbols come
//     from sortable.Symbols, the tree's one key <-> symbols transpose,
//     which moves a whole interleaving round per step. The lookups are
//     summed by simd.TableSum in the kernels' blocked order, so the bound
//     is the same float64, bit for bit, on every kernel set and equal to
//     what a bit-at-a-time decode gives (prune_test.go holds it to one).
//     An index that keeps its entries' symbols resident (the CTree's SAX
//     column) skips the transpose as well: MinDistSqSyms is the same sum
//     from the symbols, and the Page cursor takes them in place of keys.
//
//   - A unit's symbol envelope (a zone map: zonestat) bounds every series
//     in the unit at once, one clamped lookup per segment. The bound is
//     used two ways. Ordering a probe plan needs it as a value:
//     SynopsisBoundSq and EnvelopeSq return the full sum. The CTree scans
//     only ask whether a leaf's bound is beyond the collector's worst: a
//     decision, which EnvelopeSqUpTo answers from the first few segments
//     for most leaves, identically to the full sum because the terms are
//     non-negative and summed in one order.
//
//   - A SearchCtx bundles the Pruner with per-worker Scratch states
//     (raw-series decode buffer, candidate-ordering scratch) and is
//     recycled through a sync.Pool, so concurrent searches allocate nothing
//     per candidate probe. Pages themselves arrive as pinned borrows from
//     the storage.PageReader (zero-copy), not as scratch copies.
//
// # Query-context lifecycle
//
// A search entry point acquires one context per query and releases it when
// the query completes:
//
//	ctx := index.AcquireCtx(q, cfg)
//	defer ctx.Release()
//
// The context's Pruner is read-only after AcquireCtx (FillAll may extend it
// with coarser cardinalities before fan-out; ADS+ needs those for its
// per-segment cardinalities) and is therefore safely shared by every worker
// of the query. Scratch states are indexed by the worker slot FanOut hands
// each task; a scratch is exclusive to its slot while a task runs, so its
// buffers need no locking. Scratches must be materialized on the
// coordinating goroutine (Scratches / Scratch0) before workers start.
// Release returns the whole bundle — tables, decode scratch, candidate
// slices — to the pool for the next query; a context must not be used
// after Release.

// Pruner holds the per-query MINDIST lookup tables in squared space. The
// zero value is unusable; tables are populated by Fill (one cardinality) and
// FillAll (every cardinality up to the configured bits). After filling, a
// Pruner is read-only and safe for concurrent use by any number of workers.
type Pruner struct {
	segments  int
	bits      int
	seriesLen int
	paa       []float64
	// tab[b] is the table for cardinality 2^b, flattened as
	// [segment<<b | symbol], each entry the pre-scaled (n/w * d^2) squared
	// contribution of that symbol on that segment.
	tab     [sax.MaxBits + 1][]float64
	filled  [sax.MaxBits + 1]bool
	backing []float64
	// qsyms holds the query's own symbol per segment at the configured
	// cardinality — the argmin of each table row — so EnvelopeSq can clamp
	// into a symbol envelope without scanning the row.
	qsyms []uint8
}

// Fill prepares the pruner for a query with the given PAA under cfg,
// materializing the table for cfg.Bits (the cardinality every sortable key
// carries). Tables for coarser cardinalities are added by FillAll.
func (p *Pruner) Fill(paa []float64, cfg Config) {
	if len(paa) != cfg.Segments {
		panic(fmt.Sprintf("index: PAA has %d segments, config %d", len(paa), cfg.Segments))
	}
	p.segments = cfg.Segments
	p.bits = cfg.Bits
	p.seriesLen = cfg.SeriesLen
	p.paa = append(p.paa[:0], paa...)
	// One backing array holds every level's table: level b starts at
	// w*(2^b - 2) and spans w<<b entries.
	total := cfg.Segments * (2<<cfg.Bits - 2)
	if cap(p.backing) < total {
		p.backing = make([]float64, total)
	}
	off := 0
	for b := 1; b <= cfg.Bits; b++ {
		size := cfg.Segments << b
		p.tab[b] = p.backing[off : off+size]
		p.filled[b] = false
		off += size
	}
	for b := cfg.Bits + 1; b <= sax.MaxBits; b++ {
		p.tab[b] = nil
		p.filled[b] = false
	}
	p.fillLevel(cfg.Bits)
	// The query's own symbols at full cardinality index each table row's
	// zero region; EnvelopeSq clamps them into a unit's symbol envelope.
	if cap(p.qsyms) < cfg.Segments {
		p.qsyms = make([]uint8, cfg.Segments)
	}
	p.qsyms = p.qsyms[:cfg.Segments]
	card := 1 << cfg.Bits
	for seg, v := range p.paa {
		p.qsyms[seg] = sax.Symbol(v, card)
	}
}

// FillAll materializes the tables for every cardinality 1..Bits. Indexes
// with per-segment cardinalities (ADS+) need all of them; key-probing
// indexes only ever touch the top level, which Fill already built. FillAll
// must run on the coordinating goroutine before workers share the pruner.
func (p *Pruner) FillAll() {
	for b := 1; b <= p.bits; b++ {
		if !p.filled[b] {
			p.fillLevel(b)
		}
	}
}

// fillLevel computes level b's table: for each segment's PAA value and each
// symbol at cardinality 2^b, the squared distance from the value to the
// symbol's breakpoint region, pre-scaled by seriesLen/segments so summing
// entries directly yields the squared MINDIST.
func (p *Pruner) fillLevel(b int) {
	card := 1 << b
	bp := sax.Breakpoints(card)
	scale := float64(p.seriesLen) / float64(p.segments)
	t := p.tab[b]
	for seg, v := range p.paa {
		row := t[seg<<b : seg<<b+card]
		for sym := 0; sym < card; sym++ {
			var d float64
			if sym > 0 && v < bp[sym-1] {
				d = bp[sym-1] - v
			} else if sym < card-1 && v > bp[sym] {
				d = v - bp[sym]
			}
			row[sym] = scale * d * d
		}
	}
	p.filled[b] = true
}

// Bits returns the cardinality bits the pruner was filled for.
func (p *Pruner) Bits() int { return p.bits }

// MinDistSqKey returns the squared iSAX lower bound between the query and
// any series summarized by the interleaved key k: no series with this key
// can be closer than the square root of the returned value. The key's
// symbols come from the one key transpose (sortable.Symbols) into a stack
// array of table indexes (row s starts at s<<bits), which the simd table
// kernel sums in its blocked order — no allocation, no trigonometric or
// square-root work, and data-level parallelism on the lookups when an
// accelerated kernel set is active.
func (p *Pruner) MinDistSqKey(k sortable.Key) float64 {
	syms := sortable.Symbols(k, p.segments, p.bits)
	var idx [sortable.MaxSegments]int32
	row, rowLen := int32(0), int32(1)<<uint(p.bits)
	for s, sym := range syms {
		idx[s] = row | int32(sym)
		row += rowLen
	}
	return simd.TableSum(p.tab[p.bits], idx[:p.segments])
}

// MinDistSqSyms is MinDistSqKey for a key whose transpose is already at
// hand: syms holds the key's symbols, one per segment, as sortable.Symbols
// returns them (the CTree keeps them resident for every entry, so its scans
// bound an entry without its key). The sum is the same table indexes through
// the same kernel, so it is the same float64 as MinDistSqKey's, bit for bit
// (the index build is written out in both: each is the per-entry cost of a
// scan, and one calling the other is a call per entry that neither inlines).
// Every symbol must be below 1<<Bits, which the callers' sources guarantee:
// Symbols by construction, a persisted column by validation on decode.
func (p *Pruner) MinDistSqSyms(syms []uint8) float64 {
	var idx [sortable.MaxSegments]int32
	syms = syms[:p.segments]
	row, rowLen := int32(0), int32(1)<<uint(p.bits)
	for s, sym := range syms {
		idx[s] = row | int32(sym)
		row += rowLen
	}
	return simd.TableSum(p.tab[p.bits], idx[:len(syms)])
}

// EnvelopeSq returns the squared iSAX lower bound between the query and
// every series whose per-segment symbols lie inside the envelope
// [minSym[s], maxSym[s]]: no series in the envelope can be closer than the
// square root of the returned value. Because each table row is unimodal
// with its zero region at the query's own symbol, the row minimum over an
// interval of symbols is attained at the query symbol clamped into the
// interval — a single lookup per segment. A shape mismatch returns 0 (no
// bound), so a stale or foreign envelope can only cost work, never answers.
// This is the bound as a value, which ordering a probe plan needs
// (SynopsisBoundSq); a caller that only asks whether the bound is beyond
// some limit uses EnvelopeSqUpTo.
func (p *Pruner) EnvelopeSq(minSym, maxSym []uint8) float64 {
	return p.EnvelopeSqUpTo(minSym, maxSym, math.Inf(1))
}

// EnvelopeSqUpTo is EnvelopeSq for a caller that only compares the bound
// against limit: it returns EnvelopeSq's value when that is at most limit,
// and otherwise some value above limit and at most EnvelopeSq's — the sum
// of the first segments' terms, returned as soon as it passes limit. The
// terms are non-negative and added in segment order either way, so the
// running sum never decreases and "x > limit" decides identically on the
// partial sum and on the full one; so does any test that is monotone in x
// and holds everywhere above limit, which is how the CTree zone-map scans
// and the run page scans use it (DeadEnvelope: Collector.SkipSq with WorstSq,
// RangeCollector.SkipSq with SkipBeyondSq). Most leaves of an exact scan are
// skipped, most of those within the first few segments.
func (p *Pruner) EnvelopeSqUpTo(minSym, maxSym []uint8, limit float64) float64 {
	if len(minSym) != p.segments || len(maxSym) != p.segments {
		return 0
	}
	t, rowBits := p.tab[p.bits], uint(p.bits)
	qsyms := p.qsyms[:len(minSym)]
	acc := 0.0
	for s := 0; s < len(qsyms) && acc <= limit; s++ {
		// Clamp q into [mn, mx] with sign-mask selects instead of branches:
		// which side of a leaf's envelope the query symbol falls on is as
		// good as random, and a mispredicted branch costs more than the
		// lookup it guards.
		q, mn, mx := int(qsyms[s]), int(minSym[s]), int(maxSym[s])
		over := (mx - q) >> 63  // all ones when q > mx
		under := (q - mn) >> 63 // all ones when q < mn
		c := q ^ (q^mx)&over
		c ^= (c ^ mn) & under
		acc += t[s<<rowBits|c]
	}
	return acc
}

// WidenEnvelope widens the symbol envelope [mn, mx] to cover syms, one
// symbol a segment. It runs once for every entry a run writer or a bulk
// load writes, and which side of an envelope a symbol falls on is as good as
// random, so min and max are sign-mask selects, as in EnvelopeSqUpTo: four
// times faster than the compare-and-branch form on a page's worth of entries.
func WidenEnvelope(mn, mx, syms []uint8) {
	mx, syms = mx[:len(mn)], syms[:len(mn)]
	for s := range mn {
		v, lo, hi := int(syms[s]), int(mn[s]), int(mx[s])
		mn[s] = uint8(lo + (v-lo)&((v-lo)>>63)) // v when v < lo
		mx[s] = uint8(hi + (v-hi)&((hi-v)>>63)) // v when v > hi
	}
}

// SetEnvelope makes [mn, mx] the exact envelope of column, which holds at
// least one entry's symbols, len(mn) to an entry.
func SetEnvelope(mn, mx, column []uint8) {
	w := len(mn)
	copy(mn, column[:w])
	copy(mx, column[:w])
	for off := w; off < len(column); off += w {
		WidenEnvelope(mn, mx, column[off:off+w])
	}
}

// SymbolsBelow reports whether every symbol fits the cardinality: the
// lower-bound kernels index tables with them, so symbols from outside the
// program are checked once, where they are decoded.
func SymbolsBelow(syms []uint8, bits int) bool {
	for _, s := range syms {
		if int(s)>>uint(bits) != 0 {
			return false
		}
	}
	return true
}

// EnvelopeTester is the side of a collector a page loop consults before it
// evaluates what an envelope covers — a run's page, a tree's leaf or group of
// leaves. Both collectors implement it.
type EnvelopeTester interface {
	// DeadEnvelope reports whether the envelope's bound already rules out
	// every series inside it: none could enter the collector, so evaluating
	// them one bound at a time would prune them all. A collector's bound
	// only tightens, so a dead envelope stays dead.
	DeadEnvelope(p *Pruner, minSym, maxSym []uint8) bool
}

// DeadEnvelope implements EnvelopeTester against the collector's worst.
func (c *Collector) DeadEnvelope(p *Pruner, minSym, maxSym []uint8) bool {
	return c.SkipSq(p.EnvelopeSqUpTo(minSym, maxSym, c.WorstSq()))
}

// DeadEnvelope implements EnvelopeTester against the static epsilon.
func (c *RangeCollector) DeadEnvelope(p *Pruner, minSym, maxSym []uint8) bool {
	return c.SkipSq(p.EnvelopeSqUpTo(minSym, maxSym, c.skipBeyondSq))
}

// MinDistSqMixed returns the squared lower bound for a summarization with
// per-segment cardinalities: symbol syms[i] at bits[i] cardinality bits on
// segment i — the shape of ADS+ tree nodes. Requires FillAll; touching an
// unfilled level panics rather than reading a stale pooled table, because a
// silently wrong bound would corrupt results instead of failing.
func (p *Pruner) MinDistSqMixed(syms, bits []uint8) float64 {
	acc := 0.0
	for i, sym := range syms {
		b := int(bits[i])
		if !p.filled[b] {
			panic(fmt.Sprintf("index: MinDistSqMixed at %d bits without FillAll", b))
		}
		acc += p.tab[b][i<<uint(b)|int(sym)]
	}
	return acc
}

// pageCand orders one candidate of the page under evaluation — entry i of
// the Page — by squared lower bound.
type pageCand struct {
	lbSq float64
	i    int32
}

// Scratch is the per-worker mutable state of one query: a raw-series
// decode buffer and candidate-ordering scratch (index pages are read as
// pinned zero-copy borrows, so no page buffer lives here). Exactly one
// task uses a scratch at a time (one per FanOut worker slot), so
// none of it is locked. P points at the query's shared read-only Pruner.
type Scratch struct {
	P     *Pruner
	ser   series.Series
	cands []pageCand
	view  record.PackedView // the packed page under evaluation, see Page.openView
	// Trace aliases the query's trace recorder (nil untraced); workers
	// report candidate tallies through it. Refreshed by Scratches.
	Trace *obs.QueryTrace
}

// NoteDeadPage accounts for a page that is read — pinned and released —
// although its envelope has already ruled out every entry: to the trace its
// n (in-window) entries are candidates seen and pruned, which is what
// evaluating the page would have found, one bound at a time.
func (s *Scratch) NoteDeadPage(n int64) {
	s.Trace.NoteCands(n, 0, 0, n)
	s.Trace.NoteUndecoded(1)
}

// SeriesBuf returns the scratch series buffer resized to n points.
func (s *Scratch) SeriesBuf(n int) series.Series {
	if cap(s.ser) < n {
		s.ser = make(series.Series, n)
	}
	return s.ser[:n]
}

// SearchCtx is the pooled per-query search context: the query's pruning
// tables plus one Scratch per worker slot. Acquire with AcquireCtx, release
// with Release. See the lifecycle notes at the top of this file.
type SearchCtx struct {
	P         Pruner
	scratches []*Scratch
	plan      []PlanUnit // inner-level probe plan (runs, partitions, leaf ranges)
	outerPlan []PlanUnit // shard-level probe plan; see OuterPlanUnits
	// Trace is the query's trace recorder, copied from Query.Trace at
	// acquisition (nil untraced) and cleared on Release so pooled
	// contexts never leak a trace across queries.
	Trace *obs.QueryTrace
}

var ctxPool = sync.Pool{New: func() any { return new(SearchCtx) }}

// AcquireCtx returns a search context from the pool with pruning tables
// filled for q under cfg. The caller must Release it when the query
// completes.
func AcquireCtx(q Query, cfg Config) *SearchCtx {
	ctx := ctxPool.Get().(*SearchCtx)
	ctx.Refill(q, cfg)
	return ctx
}

// Release returns the context and all its scratch buffers to the pool. The
// context must not be used afterwards.
func (c *SearchCtx) Release() {
	c.Trace = nil
	ctxPool.Put(c)
}

// Ctxs is one context per worker slot of a fan-out whose tasks each search
// an index through its cores.
type Ctxs []*SearchCtx

// AcquireCtxs returns n contexts filled for q; the caller must Release them.
func AcquireCtxs(q Query, cfg Config, n int) Ctxs {
	cs := make(Ctxs, n)
	for i := range cs {
		cs[i] = AcquireCtx(q, cfg)
	}
	return cs
}

// Release returns every context to the pool.
func (cs Ctxs) Release() {
	for _, c := range cs {
		c.Release()
	}
}

// Scratches returns scratch states for worker slots 0..n-1, growing the set
// as needed. It must be called on the coordinating goroutine before workers
// start; the returned scratches may then be used concurrently, one per
// slot. Each call refreshes the scratches' trace alias from the context,
// so pooled scratches follow the current query's tracing state.
func (c *SearchCtx) Scratches(n int) []*Scratch {
	for len(c.scratches) < n {
		c.scratches = append(c.scratches, &Scratch{P: &c.P})
	}
	out := c.scratches[:n]
	for _, sc := range out {
		sc.Trace = c.Trace
	}
	return out
}

// Scratch0 returns the serial path's scratch (worker slot 0).
func (c *SearchCtx) Scratch0() *Scratch { return c.Scratches(1)[0] }

// rawDistSq fetches series id from raw and returns its early-abandoning
// squared distance to the query, decoding into the scratch buffer when the
// store supports it so the fetch allocates nothing.
func rawDistSq(q Query, id int64, raw series.RawStore, limitSq float64, sc *Scratch) (float64, error) {
	if raw == nil {
		return 0, fmt.Errorf("index: non-materialized entry %d but no raw store", id)
	}
	var s series.Series
	var err error
	if g, ok := raw.(series.IntoGetter); ok && sc != nil {
		s, err = g.GetInto(int(id), sc.SeriesBuf(len(q.Norm)))
	} else {
		s, err = raw.Get(int(id))
	}
	if err != nil {
		return 0, err
	}
	return q.Norm.SqDistEarlyAbandon(s, limitSq), nil
}

// TrueDistSq computes the squared distance between a prepared query and a
// candidate entry, using the inline payload when materialized or fetching
// from raw otherwise, abandoning accumulation beyond limitSq. The
// payload/raw series must already be z-normalized. Raw stores must be safe
// for concurrent fetches: workers verify candidates concurrently.
func TrueDistSq(q Query, e record.Entry, raw series.RawStore, limitSq float64, sc *Scratch) (float64, error) {
	if e.Payload != nil {
		return q.Norm.SqDistEarlyAbandon(e.Payload, limitSq), nil
	}
	return rawDistSq(q, e.ID, raw, limitSq, sc)
}

// ScanBuffer evaluates an in-memory write buffer (a CLSM's, a stream
// scheme's), in buffer order — which is the order of a non-materialized
// index's raw fetches: every in-window entry whose lower bound survives is
// verified into col.
func ScanBuffer(buf []record.Entry, q Query, raw series.RawStore, col *Collector, sc *Scratch) error {
	for _, e := range buf {
		if !q.InWindow(e.TS) || col.SkipSq(sc.P.MinDistSqKey(e.Key)) {
			continue
		}
		dSq, err := TrueDistSq(q, e, raw, col.WorstSq(), sc)
		if err != nil {
			return err
		}
		col.AddSq(e.ID, e.TS, dSq)
	}
	return nil
}

// Page is a cursor over the entries one probe evaluates, whatever their
// layout — chosen where the page is pinned. The evaluation loops read every
// layout through it by position: the window filter and the squared lower
// bound come from the encoded header (or the packed columns, decoders fused
// into the loop) alone, and only surviving candidates touch their payload.
// It is a small stack value — building one allocates nothing, and no
// record is ever decoded into an Entry. A Page aliases the pin (or the
// caller's entry slice) and is valid only as long as it is.
//
// A page's lower bounds need only its entries' symbols, and an index that
// keeps those resident hands them to the cursor (UseSymbols): the bounds
// then read no page bytes at all, and an unwindowed evaluation that prunes
// every entry returns without having touched — for a packed page, without
// having opened — the page. The window filter needs only the timestamps, so
// a cursor that has been handed those too (UseTimestamps, what a sorted run
// keeps) evaluates a windowed query the same way.
type Page struct {
	n       int
	recSize int                // > 0: fixed-width records in data
	ents    []record.Entry     // non-nil: decoded entries
	view    *record.PackedView // otherwise: packed columns of data, see openView
	data    []byte
	codec   record.Codec
	syms    []uint8 // non-nil: the entries' symbols, segs to an entry
	segs    int
	tss     []int64 // non-nil: the entries' timestamps
}

// FixedPage describes n records encoded back-to-back (codec.Size() bytes
// each) at the start of a pinned page.
func FixedPage(data []byte, n int, codec record.Codec) Page {
	return Page{n: n, recSize: codec.Size(), data: data, codec: codec}
}

// PackedPage describes a pinned packed (compressed) page; its header
// carries the entry count.
func PackedPage(data []byte, codec record.Codec) Page {
	return Page{data: data, codec: codec}
}

// EntryPage describes already-decoded in-memory entries: leaf buffers,
// write buffers.
func EntryPage(entries []record.Entry) Page { return Page{n: len(entries), ents: entries} }

// UseSymbols makes the cursor bound its entries from syms instead of from
// their keys: segs symbols per entry in page order, each entry's as
// sortable.Symbols gives them for its key. The entry count is then the
// column's, which a packed page's header must agree with once it is opened.
func (pg *Page) UseSymbols(syms []uint8, segs int) {
	pg.syms, pg.segs, pg.n = syms, segs, len(syms)/segs
}

// UseTimestamps makes the cursor read its entries' timestamps from tss, one
// an entry in page order, instead of from the page.
func (pg *Page) UseTimestamps(tss []int64) { pg.tss = tss }

// resident reports whether nothing before a survivor's verification reads
// the page under q: the bounds come from resident symbols, and the window
// filter, if q has one, from resident timestamps.
func (pg *Page) resident(q *Query) bool {
	return pg.syms != nil && (!q.Windowed || pg.tss != nil)
}

// packed reports whether the page is in the packed layout. The evaluation
// loops then open its column view (openView) and point pg.view at it: the
// view is too large to carry in every Page the probes pass around.
func (pg *Page) packed() bool { return pg.recSize == 0 && pg.data != nil }

// openView opens a packed page's column view, unless it is open already;
// other layouts have nothing to open. A loop calls it before its first read
// of page bytes: at once when the bounds or the window filter need them,
// otherwise only when an entry has survived its bound. The view lives in
// the worker's scratch, which one evaluation uses at a time.
func (pg *Page) openView(sc *Scratch) error {
	if !pg.packed() || pg.view != nil {
		return nil
	}
	v, err := pg.codec.ViewPacked(pg.data)
	if err != nil {
		return err
	}
	if pg.syms == nil {
		pg.n = v.Count()
	} else if v.Count() != pg.n {
		return fmt.Errorf("index: packed page holds %d entries, its resident symbols %d", v.Count(), pg.n)
	}
	sc.view = v
	pg.view = &sc.view
	return nil
}

func (pg *Page) rec(i int) []byte { return pg.data[i*pg.recSize : (i+1)*pg.recSize] }

func (pg *Page) ts(i int) int64 {
	switch {
	case pg.tss != nil:
		return pg.tss[i]
	case pg.recSize > 0:
		return record.DecodeTS(pg.rec(i))
	case pg.ents != nil:
		return pg.ents[i].TS
	default:
		return pg.view.TS(i)
	}
}

// nextInWindow returns the first entry at or after i (of n) whose timestamp
// lies in q's window, or n. It inlines, so an unwindowed query pays one
// branch per entry.
func (pg *Page) nextInWindow(q *Query, i, n int) int {
	if !q.Windowed {
		return i
	}
	return pg.skipOutOfWindow(q.MinTS, q.MaxTS, i, n)
}

// skipOutOfWindow is nextInWindow's loop, written per layout over locals so
// that passing over out-of-window entries — most of a page, on a narrow
// window — costs a decode and two compares each, not a call.
func (pg *Page) skipOutOfWindow(lo, hi int64, i, n int) int {
	out := func(ts int64) bool { return ts < lo || ts > hi }
	switch {
	case pg.tss != nil:
		for tss := pg.tss[:n]; i < n && out(tss[i]); {
			i++
		}
	case pg.recSize > 0:
		for data, size := pg.data, pg.recSize; i < n && out(record.DecodeTS(data[i*size:])); {
			i++
		}
	case pg.ents != nil:
		for ents := pg.ents; i < n && out(ents[i].TS); {
			i++
		}
	default:
		for view := pg.view; i < n && out(view.TS(i)); {
			i++
		}
	}
	return i
}

func (pg *Page) key(i int) sortable.Key {
	switch {
	case pg.recSize > 0:
		return record.DecodeKeyOnly(pg.rec(i))
	case pg.ents != nil:
		return pg.ents[i].Key
	default:
		return pg.view.Key(i)
	}
}

func (pg *Page) id(i int) int64 {
	switch {
	case pg.recSize > 0:
		return record.DecodeID(pg.rec(i))
	case pg.ents != nil:
		return pg.ents[i].ID
	default:
		return pg.view.ID(i)
	}
}

// distSq verifies entry i: the early-abandoning squared distance to the
// query, accumulated directly from the encoded payload when the page
// carries one, from a scratch-buffer raw fetch otherwise.
func (pg *Page) distSq(q Query, i int, raw series.RawStore, limitSq float64, sc *Scratch) (float64, error) {
	switch {
	case pg.ents != nil:
		return TrueDistSq(q, pg.ents[i], raw, limitSq, sc)
	case !pg.codec.Materialized:
		return rawDistSq(q, pg.id(i), raw, limitSq, sc)
	case pg.recSize > 0:
		return q.Norm.SqDistEncodedEarlyAbandon(pg.rec(i)[record.HeaderBytes:], limitSq), nil
	default:
		return q.Norm.SqDistEncodedEarlyAbandon(pg.view.PayloadBytes(i), limitSq), nil
	}
}

// EvalPage evaluates one page against the k-NN collector: in-window entries
// whose squared lower bound survives the collector's current worst become
// candidates, and candidates verify in ascending lower-bound order — the
// most promising first, collapsing the pruning bound so the rest are
// skipped without paying their (possibly random) raw fetches. Candidate
// slots reuse the scratch slice, so a warm probe allocates nothing. It
// returns the number of in-window entries seen.
func EvalPage(q Query, pg Page, raw series.RawStore, col *Collector, sc *Scratch) (int, error) {
	resident := pg.resident(&q)
	if !resident {
		if err := pg.openView(sc); err != nil {
			return 0, err
		}
	}
	n := pg.n
	cands := sc.cands[:0]
	count := 0
	traced := sc.Trace != nil
	var ver, ab, pr int64
	for i := pg.nextInWindow(&q, 0, n); i < n; i = pg.nextInWindow(&q, i+1, n) {
		count++
		var lbSq float64
		if pg.syms != nil {
			lbSq = sc.P.MinDistSqSyms(pg.syms[i*pg.segs : (i+1)*pg.segs])
		} else {
			lbSq = sc.P.MinDistSqKey(pg.key(i))
		}
		if col.SkipSq(lbSq) {
			if traced {
				pr++
			}
			continue // cheap reject before even locating the payload
		}
		cands = append(cands, pageCand{lbSq: lbSq, i: int32(i)})
	}
	if len(cands) == 0 {
		if traced {
			sc.Trace.NoteCands(int64(count), 0, 0, pr)
			if resident {
				sc.Trace.NoteUndecoded(1)
			}
		}
		return count, nil
	}
	if err := pg.openView(sc); err != nil {
		return count, err
	}
	slices.SortFunc(cands, func(a, b pageCand) int { return cmp.Compare(a.lbSq, b.lbSq) })
	sc.cands = cands
	for ci, c := range cands {
		if col.SkipSq(c.lbSq) {
			if traced {
				pr += int64(len(cands) - ci)
			}
			break // all remaining candidates have larger lower bounds
		}
		i := int(c.i)
		limitSq := col.WorstSq()
		dSq, err := pg.distSq(q, i, raw, limitSq, sc)
		if err != nil {
			return count, err
		}
		if traced {
			ver++
			if dSq > limitSq {
				ab++
			}
		}
		col.AddSq(pg.id(i), pg.ts(i), dSq)
	}
	if traced {
		sc.Trace.NoteCands(int64(count), ver, ab, pr)
	}
	return count, nil
}

// EvalPageRange is EvalPage against a range collector: the epsilon bound is
// static, so candidates need no ordering and every in-window, unpruned
// entry verifies directly.
func EvalPageRange(q Query, pg Page, raw series.RawStore, col *RangeCollector, sc *Scratch) error {
	resident := pg.resident(&q)
	if !resident {
		if err := pg.openView(sc); err != nil {
			return err
		}
	}
	n := pg.n
	traced := sc.Trace != nil
	var seen, ver, ab, pr int64
	for i := pg.nextInWindow(&q, 0, n); i < n; i = pg.nextInWindow(&q, i+1, n) {
		if traced {
			seen++
		}
		var lbSq float64
		if pg.syms != nil {
			lbSq = sc.P.MinDistSqSyms(pg.syms[i*pg.segs : (i+1)*pg.segs])
		} else {
			lbSq = sc.P.MinDistSqKey(pg.key(i))
		}
		if col.SkipSq(lbSq) {
			if traced {
				pr++
			}
			continue
		}
		if err := pg.openView(sc); err != nil {
			return err
		}
		dSq, err := pg.distSq(q, i, raw, col.BoundSq(), sc)
		if err != nil {
			return err
		}
		if traced {
			ver++
			if dSq > col.BoundSq() {
				ab++
			}
		}
		col.AddSq(pg.id(i), pg.ts(i), dSq)
	}
	if traced {
		sc.Trace.NoteCands(seen, ver, ab, pr)
		if resident && ver == 0 {
			sc.Trace.NoteUndecoded(1)
		}
	}
	return nil
}
