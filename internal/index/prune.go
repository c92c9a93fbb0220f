package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
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
//     An index that keeps its entries' symbols resident (a CTree's or a
//     run's SAX column, a write buffer's: Buffer) skips the transpose as
//     well, and the Page cursor takes them in place of keys: SymbolBoundSqs
//     bounds a page's entries in one simd.SymbolSums call, one entry an
//     iteration under AVX2, with each entry's lookups added in TableSum's
//     order, so its bounds are MinDistSqKey's bit for bit. A page's resident
//     entries are bounded at once, out-of-window ones included (a write
//     buffer's page is its in-window stretch: Buffer.Page), in one place
//     (Scratch.entryBounds): by the page loop, which decides from their
//     least in-window bound whether to read the page at all
//     (Scratch.ResidentBounds) and hands a live page's bounds on
//     (Page.UseBounds), or else by the page evaluator (EvalPage); the
//     evaluator's loop reads the results.
//
//   - A unit's symbol envelope (a zone map: zonestat) bounds every series
//     in the unit at once, one clamped lookup per segment. EnvelopeSqs
//     bounds a batch of consecutive envelopes in one simd.EnvelopeSums
//     call, four at a time under AVX2: the page loop (run.Store.Scan)
//     bounds a range's page groups at once, then a live group's pages, and
//     decides each page when it reaches it. EnvelopeSq, which ordering a
//     probe plan needs (UnitBoundSq), is the batch of one, so every
//     envelope bound is the same float64, bit for bit.
//
//   - A SearchCtx bundles the Pruner with per-worker Scratch states
//     (candidate-ordering scratch, the page loop's envelope bounds and the
//     page evaluator's entry bounds) and is recycled through a sync.Pool,
//     so concurrent searches allocate nothing per candidate probe. Pages
//     themselves arrive as pinned borrows from the storage.PageReader
//     (zero-copy), not as scratch copies.
//
// # Query-context lifecycle
//
// A search entry point (Into) acquires one context per query, hands it the
// pool the query may fan out on and the planner it plans under, and
// releases it when the query completes:
//
//	ctx := index.AcquireCtx(q, cfg)
//	defer ctx.Release()
//	ctx.Pool, ctx.Planner = pool, pl
//
// The context's Pruner is read-only after AcquireCtx (FillAll may extend it
// with coarser cardinalities before fan-out; ADS+ needs those for its
// per-segment cardinalities) and is therefore safely shared by every worker
// of the query. Scratch states are indexed by the worker slot FanOut hands
// each task; a scratch is exclusive to its slot while a task runs, so its
// buffers need no locking. Scratches must be materialized on the
// coordinating goroutine (Scratches / Scratch0) before workers start.
// Release returns the whole bundle — tables, candidate slices — to the
// pool for the next query; a context must not be used
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
	// cardinality — the argmin of each table row — so EnvelopeSqs can clamp
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
	// zero region; EnvelopeSqs clamps them into a unit's symbol envelope.
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

// SymbolBoundSqs sets dst[i] to the squared lower bound of entry i of the
// flat symbol column syms, Segments symbols to an entry (entry i at
// [i*Segments, (i+1)*Segments)), in one simd.SymbolSums call: the summaries
// keep every entry's symbols resident, so a page's entries are bounded before
// its bytes are read. Each is MinDistSqKey's bound of the entry's key, the
// same float64 bit for bit: the kernel adds the same lookups in TableSum's
// blocked order. Every symbol must be below 1<<Bits, which the callers'
// sources guarantee: Symbols by construction, a persisted column by
// validation on decode.
func (p *Pruner) SymbolBoundSqs(dst []float64, syms []uint8) {
	simd.SymbolSums(dst, p.tab[p.bits], p.segments, p.bits, syms)
}

// EnvelopeSq returns the squared iSAX lower bound between the query and
// every series whose per-segment symbols lie inside the envelope
// [minSym[s], maxSym[s]]: no series in the envelope can be closer than the
// square root of the returned value. It is EnvelopeSqs' batch of one. A
// shape mismatch returns 0 (no bound), so a stale or foreign envelope can
// only cost work, never answers.
func (p *Pruner) EnvelopeSq(minSym, maxSym []uint8) float64 {
	if len(minSym) != p.segments || len(maxSym) != p.segments {
		return 0
	}
	var b [1]float64
	p.EnvelopeSqs(b[:], p.segments, minSym, maxSym)
	return b[0]
}

// EnvelopeSqs sets dst[i] to the squared lower bound of envelope i of the
// flat arrays mins and maxs, segs symbols to an envelope (envelope i at
// [i*segs, (i+1)*segs)). Because each table row is unimodal with its zero
// region at the query's own symbol, the row minimum over an interval of
// symbols is attained at the query symbol clamped into the interval — a
// single lookup per segment, summed in segment order by simd.EnvelopeSums.
// Envelopes of another width than the query's bound to 0. mins and maxs may
// run on past the batch: the kernel then bounds more of it in blocks.
func (p *Pruner) EnvelopeSqs(dst []float64, segs int, mins, maxs []uint8) {
	if segs != p.segments {
		clear(dst)
		return
	}
	simd.EnvelopeSums(dst, p.tab[p.bits], p.qsyms, p.bits, mins, maxs)
}

// WidenEnvelope widens the symbol envelope [mn, mx] to cover syms, one
// symbol a segment. It runs once for every entry a run writer or a bulk
// load writes, and which side of an envelope a symbol falls on is as good as
// random, so min and max are sign-mask selects, as in simd.EnvelopeSums: four
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
// the Page — by squared lower bound, then by position, so candidates of
// equal bound verify in page order.
type pageCand struct {
	lbSq float64
	i    int32
}

// Scratch is the per-worker mutable state of one query: candidate-ordering
// scratch (index pages are read as pinned zero-copy borrows, so no page
// buffer lives here). Exactly one task uses a scratch at a time (one per
// FanOut worker slot), so none of it is locked. P points at the query's
// shared read-only Pruner.
type Scratch struct {
	P     *Pruner
	cands []pageCand
	// Query and Page are what a page loop (run.Store.Scan) hands the page
	// evaluator: it copies the query in once a scan and describes each page
	// in place, and the evaluator takes both by pointer, so nothing is
	// copied or allocated a page. bounds holds the loop's envelope bounds.
	Query  Query
	Page   Page
	bounds []float64
	// lbs holds a page's entry bounds (entryBounds), a slice of its own: the
	// page loop's envelope bounds (bounds) are live while a page is evaluated.
	lbs []float64
	// Trace, Tally and Planner alias the query's trace recorder (nil
	// untraced), record and planner, refreshed by Scratches: a page scan asks
	// the planner whether to skip dead pages and counts them in the record.
	Trace   *obs.QueryTrace
	Tally   *obs.Tally
	Planner *Planner
}

// NoteDeadPage accounts for a page that is read — pinned and released —
// although its envelope has already ruled out every entry: to the trace its
// n (in-window) entries are candidates seen and pruned, which is what
// evaluating the page would have found, one bound at a time.
func (s *Scratch) NoteDeadPage(n int64) {
	s.Trace.NoteCands(n, 0, 0, n)
	s.Trace.NoteUndecoded(1)
}

// SearchCtx is the pooled per-query search context: the query's pruning
// tables, the worker pool the search fans out on, the planner it plans
// under, and one Scratch per worker slot. Acquire with AcquireCtx, release
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
	// Pool is the worker pool the search fans out on; nil is serial. Only
	// an entry (Into) sets it, and Release clears it, so every other context
	// — AcquireCtx's, Batch's, the ones a composition hands its parts
	// (Parts) — is serial.
	Pool *parallel.Pool
	// Planner is the search's one planner (planner.go), which orders and
	// skips at every level — shard, run, partition, leaf, page; nil plans
	// with defaults. An entry (Into, Batch) sets it, Release clears it and
	// Parts hands it to every part.
	Planner *Planner
	// Tally is the search's one record of its unit outcomes, every level's
	// (a part's context adds its own into it: Parts). Refill empties it.
	Tally obs.Tally
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
	c.Trace, c.Pool, c.Planner = nil, nil, nil
	ctxPool.Put(c)
}

// Ctxs is one context per worker slot of a fan-out whose tasks each search
// an index through its cores.
type Ctxs []*SearchCtx

// Release returns every context to the pool.
func (cs Ctxs) Release() {
	for _, c := range cs {
		c.Release()
	}
}

// Parts runs fan with the contexts a composition hands its n parts (shards,
// partitions), one per worker slot of c's pool, every one of them serial and
// under c's planner: whoever holds the pool owns the parallelism, and the
// composition spends it across its parts. Without a pool that is c itself;
// with one, contexts filled for q, whose records are added into c's and
// which are released when fan returns.
func (c *SearchCtx) Parts(q Query, cfg Config, n int, fan func(Ctxs) error) error {
	if c.Pool == nil {
		return fan(Ctxs{c})
	}
	cs := make(Ctxs, c.Pool.WorkersFor(n))
	for i := range cs {
		cs[i] = AcquireCtx(q, cfg)
		cs[i].Planner = c.Planner
	}
	err := fan(cs)
	for _, p := range cs {
		c.Tally.Add(&p.Tally)
	}
	cs.Release()
	return err
}

// Scratches returns scratch states for worker slots 0..n-1, growing the set
// as needed. It must be called on the coordinating goroutine before workers
// start; the returned scratches may then be used concurrently, one per
// slot. Each call refreshes the scratches' trace, record and planner aliases
// from the context, so pooled scratches follow the current query's.
func (c *SearchCtx) Scratches(n int) []*Scratch {
	for len(c.scratches) < n {
		c.scratches = append(c.scratches, &Scratch{P: &c.P})
	}
	out := c.scratches[:n]
	for _, sc := range out {
		sc.Trace, sc.Tally, sc.Planner = c.Trace, &c.Tally, c.Planner
	}
	return out
}

// Scratch0 returns the serial path's scratch (worker slot 0).
func (c *SearchCtx) Scratch0() *Scratch { return c.Scratches(1)[0] }

// Bounds returns n float64s of the scratch's own, for a page loop's
// envelope bounds; their values are the caller's to set.
func (s *Scratch) Bounds(n int) []float64 {
	if cap(s.bounds) < n {
		s.bounds = make([]float64, n)
	}
	return s.bounds[:n]
}

// entryBounds bounds every entry of a page's resident symbol column, in one
// call for the page, into the scratch's own slice of entry bounds.
func (s *Scratch) entryBounds(syms []uint8) []float64 {
	n := len(syms) / s.P.segments
	if cap(s.lbs) < n {
		s.lbs = make([]float64, n)
	}
	lbs := s.lbs[:n]
	s.P.SymbolBoundSqs(lbs, syms)
	return lbs
}

// ResidentBounds bounds the entries of a page's resident columns — syms, the
// pruner's segments to an entry as Page.UseSymbols takes them, and tss, one
// timestamp an entry — and returns their bounds with the least among the
// entries in q's window, or nil and +Inf, having bounded nothing, when no
// entry is in it. A page loop decides from it whether to read the page:
// SkipSq is monotone in the bound, so a page with no in-window entry, or
// whose least bound SkipSq rules out, is one the evaluator would prune whole
// now. A live page takes the bounds on to the evaluator (Page.UseBounds),
// which then does not compute them again. They are the scratch's own, valid
// until it bounds another page.
//
// It runs for every page a scan reaches live, so its loops have no branch
// to mispredict: an entry is in the window when its timestamp's offset from
// the window's start, unsigned, is within the window's span, and a bound,
// never negative, orders as its bits do, so the least is an integer
// minimum, with bits no bound has standing for an entry out of the window.
func (s *Scratch) ResidentBounds(q *Query, syms []uint8, tss []int64) (lbs []float64, least float64) {
	lo, span, ok := q.windowSpan()
	if !ok {
		return nil, math.Inf(1)
	}
	in := 0
	for _, ts := range tss {
		if uint64(ts)-lo <= span {
			in++
		}
	}
	if in == 0 {
		return nil, math.Inf(1)
	}
	lbs = s.entryBounds(syms)
	m := uint64(math.MaxUint64)
	for i, lb := range lbs {
		b := math.Float64bits(lb)
		if uint64(tss[i])-lo > span {
			b = math.MaxUint64
		}
		if b < m {
			m = b
		}
	}
	return lbs, math.Float64frombits(m)
}

// LeastResident returns the least bound among the entries of resident
// columns — syms and tss, as ResidentBounds takes them — that are in q's
// window, +Inf when none is: ResidentBounds' least, the same float64, for
// a caller that needs no other bound. It bounds only the entries in the
// window, each run of consecutive ones in one call, so a window that holds a
// few of a page's entries costs a few bounds, not the page's.
func (s *Scratch) LeastResident(q *Query, syms []uint8, tss []int64) float64 {
	lo, span, ok := q.windowSpan()
	if !ok {
		return math.Inf(1)
	}
	w, m := s.P.segments, math.Float64bits(math.Inf(1))
	for i := 0; i < len(tss); {
		if uint64(tss[i])-lo > span {
			i++
			continue
		}
		j := i + 1
		for j < len(tss) && uint64(tss[j])-lo <= span {
			j++
		}
		for _, lb := range s.entryBounds(syms[i*w : j*w]) {
			if b := math.Float64bits(lb); b < m { // a bound, never negative, orders as its bits do
				m = b
			}
		}
		i = j
	}
	return math.Float64frombits(m)
}

// windowSpan returns q's window as the start and span of the unsigned
// offset test the resident loops apply to a timestamp (the whole range when
// q is unwindowed), and false for a window that holds no timestamp.
func (q *Query) windowSpan() (lo, span uint64, ok bool) {
	if !q.Windowed {
		return 0, math.MaxUint64, true
	}
	return uint64(q.MinTS), uint64(q.MaxTS) - uint64(q.MinTS), q.MaxTS >= q.MinTS
}

// encodedRaw is a raw store that verifies a candidate on its stored bytes,
// decoding nothing (storage.RawFile).
type encodedRaw interface {
	SqDistEarlyAbandon(id int, q series.Series, limitSq float64) (float64, error)
}

// rawDistSq fetches series id from raw and returns its early-abandoning
// squared distance to the query.
func rawDistSq(q *Query, id int64, raw series.RawStore, limitSq float64) (float64, error) {
	if raw == nil {
		return 0, fmt.Errorf("index: non-materialized entry %d but no raw store", id)
	}
	if e, ok := raw.(encodedRaw); ok {
		return e.SqDistEarlyAbandon(int(id), q.Norm, limitSq)
	}
	s, err := raw.Get(int(id))
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
func TrueDistSq(q *Query, e record.Entry, raw series.RawStore, limitSq float64) (float64, error) {
	if e.Payload != nil {
		return q.Norm.SqDistEarlyAbandon(e.Payload, limitSq), nil
	}
	return rawDistSq(q, e.ID, raw, limitSq)
}

// Page is a cursor over the entries one probe evaluates — a stored page of
// an entry file or entries already in memory — chosen where the page is
// pinned. The evaluation loops read both through it by position: a stored
// page through the record.PageView its layout opens into the cursor itself,
// so the window filter and the squared lower bound come from the entries'
// headers alone, and only surviving candidates touch their payload. It is a
// stack value — building one allocates nothing, and no record is ever
// decoded into an Entry. A Page aliases the pin (or the caller's entry
// slice) and is valid only as long as it is.
//
// A page's lower bounds need only its entries' symbols, and an index that
// keeps those resident hands them to the cursor (UseSymbols): the bounds
// then read no page bytes at all, and an unwindowed evaluation that prunes
// every entry returns without having opened the page. The window filter
// needs only the timestamps, so a cursor that has been handed those too
// (UseTimestamps, what a sorted run keeps) evaluates a windowed query the
// same way.
type Page struct {
	n        int
	ents     []record.Entry // EntryPage: the entries
	layout   *record.Layout // StoredPage: the layout data is a page of; nil for entries
	data     []byte
	view     record.PageView // the stored page, once opened (open)
	opened   bool
	arrivals bool      // Buffer.Page: candidates verify in page order
	syms     []uint8   // non-nil: the entries' symbols, the pruner's segments to an entry
	tss      []int64   // non-nil: the entries' timestamps
	lbs      []float64 // non-nil: the entries' bounds, from the page loop (UseBounds)
}

// StoredPage describes a pinned page of an entry file in layout l that holds
// n entries, as its directory or summary says: the page must agree when it
// is opened (record.Layout.Page).
func StoredPage(l *record.Layout, data []byte, n int) Page {
	return Page{n: n, layout: l, data: data}
}

// EntryPage describes already-decoded in-memory entries: an ADS+ leaf.
func EntryPage(entries []record.Entry) Page { return Page{n: len(entries), ents: entries} }

// UseSymbols makes the cursor bound its entries from syms instead of from
// their keys: segs symbols per entry in page order, each entry's as
// sortable.Symbols gives them for its key. The entry count is then the
// column's, which a stored page must agree with once it is opened.
func (pg *Page) UseSymbols(syms []uint8, segs int) {
	pg.syms, pg.n = syms, len(syms)/segs
}

// UseTimestamps makes the cursor read its entries' timestamps from tss, one
// an entry in page order, instead of from the page.
func (pg *Page) UseTimestamps(tss []int64) { pg.tss = tss }

// UseBounds hands the cursor its entries' bounds, as Scratch.ResidentBounds
// returned them for its symbols, so the evaluator does not bound them again.
func (pg *Page) UseBounds(lbs []float64) { pg.lbs = lbs }

// resident reports whether nothing before a survivor's verification reads
// the page under q: the bounds come from resident symbols, and the window
// filter, if q has one, from resident timestamps.
func (pg *Page) resident(q *Query) bool {
	return pg.syms != nil && (!q.Windowed || pg.tss != nil)
}

// begin readies pg for an evaluation under q, as the evaluator starts: it
// returns the entries' bounds — nil when they are to come from keys — and
// whether the page is resident, and opens a stored page that is not.
func (pg *Page) begin(q *Query, sc *Scratch) (lbs []float64, resident bool, err error) {
	if resident = pg.resident(q); !resident {
		if err := pg.open(); err != nil {
			return nil, false, err
		}
	}
	if lbs = pg.lbs; lbs == nil && pg.syms != nil {
		lbs = sc.entryBounds(pg.syms)
	}
	return lbs, resident, nil
}

// open opens a stored page through its layout, which checks the page holds
// the entries the cursor says, unless it is open already; entries in memory
// have nothing to open. A loop calls it before its first read of page
// bytes: at once when the bounds or the window filter need them, otherwise
// only when an entry has survived its bound.
func (pg *Page) open() error {
	if pg.layout == nil || pg.opened {
		return nil
	}
	if err := pg.layout.Page(&pg.view, pg.data, pg.n); err != nil {
		return err
	}
	pg.opened = true
	return nil
}

func (pg *Page) ts(i int) int64 {
	switch {
	case pg.tss != nil:
		return pg.tss[i]
	case pg.layout == nil:
		return pg.ents[i].TS
	}
	return pg.view.TS(i)
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

// skipOutOfWindow is nextInWindow's loop, written per source of timestamps
// over locals so that passing over out-of-window entries — most of a page,
// on a narrow window — costs two compares each, not a call, where the
// timestamps are in memory.
func (pg *Page) skipOutOfWindow(lo, hi int64, i, n int) int {
	out := func(ts int64) bool { return ts < lo || ts > hi }
	switch {
	case pg.tss != nil:
		for tss := pg.tss[:n]; i < n && out(tss[i]); {
			i++
		}
	case pg.layout == nil:
		for ents := pg.ents; i < n && out(ents[i].TS); {
			i++
		}
	default:
		for view := &pg.view; i < n && out(view.TS(i)); {
			i++
		}
	}
	return i
}

func (pg *Page) key(i int) sortable.Key {
	if pg.layout == nil {
		return pg.ents[i].Key
	}
	return pg.view.Key(i)
}

func (pg *Page) id(i int) int64 {
	if pg.layout == nil {
		return pg.ents[i].ID
	}
	return pg.view.ID(i)
}

// distSq verifies entry i: the early-abandoning squared distance to the
// query, accumulated directly from the encoded payload when the page
// carries one, from a raw fetch otherwise.
func (pg *Page) distSq(q *Query, i int, raw series.RawStore, limitSq float64) (float64, error) {
	if pg.layout == nil {
		return TrueDistSq(q, pg.ents[i], raw, limitSq)
	}
	if pay := pg.view.PayloadBytes(i); pay != nil {
		return q.Norm.SqDistEncodedEarlyAbandon(pay, limitSq), nil
	}
	return rawDistSq(q, pg.view.ID(i), raw, limitSq)
}

// EvalPage evaluates one page against the collector: in-window entries
// whose squared lower bound survives the collector's current worst become
// candidates, and candidates verify in ascending lower-bound order — the
// most promising first, collapsing the pruning bound so the rest are
// skipped without paying their (possibly random) raw fetches — equal bounds
// in page order, so that a non-materialized index fetches those in file
// order, not in whatever order the sort left them. A range
// collector's bound cannot move, so its candidates verify in page order,
// which is then the order of a non-materialized index's raw fetches; so do
// a write buffer's (Buffer.Page), each checked against the bound first.
// Candidate slots reuse the scratch slice, so a warm probe allocates
// nothing. It returns the number of in-window entries seen. Query and page
// are taken by pointer, so a page loop copies neither once a page
// (Scratch.Query, .Page).
func EvalPage(q *Query, pg *Page, raw series.RawStore, col *Collector, sc *Scratch) (int, error) {
	lbs, resident, err := pg.begin(q, sc)
	if err != nil {
		return 0, err
	}
	n := pg.n
	cands := sc.cands[:0]
	count := 0
	traced := sc.Trace != nil
	var ver, ab, pr int64
	for i := pg.nextInWindow(q, 0, n); i < n; i = pg.nextInWindow(q, i+1, n) {
		count++
		var lbSq float64
		if lbs != nil {
			lbSq = lbs[i]
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
			if resident && pg.layout != nil { // a pinned page, released unread
				sc.Trace.NoteUndecoded(1)
			}
		}
		return count, nil
	}
	if err := pg.open(); err != nil {
		return count, err
	}
	sorted := !col.BoundFixed() && !pg.arrivals
	if sorted {
		slices.SortFunc(cands, func(a, b pageCand) int {
			if c := cmp.Compare(a.lbSq, b.lbSq); c != 0 {
				return c
			}
			return cmp.Compare(a.i, b.i)
		})
	}
	sc.cands = cands
	for ci, c := range cands {
		if col.SkipSq(c.lbSq) { // never under a fixed bound
			if !sorted {
				pr++
				continue
			}
			pr += int64(len(cands) - ci)
			break // sorted: the rest have larger bounds
		}
		i := int(c.i)
		limitSq := col.WorstSq()
		dSq, err := pg.distSq(q, i, raw, limitSq)
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
