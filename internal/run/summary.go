package run

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/sax"
	"repro/internal/sortable"
	"repro/internal/zonestat"
)

// Summary is the resident image of one page-ordered file — a sorted run or
// a CTree's leaf level: the paper's in-memory summarization array (SIMS). A
// scan consults it before it reads a byte of a page: a group's envelope rules
// out its pages at once, a page's envelope the page, the SAX and timestamp
// columns each entry, and the page is touched only to verify a survivor.
//
// It is built by the pass that writes its file (Builder), by one pass over
// the file (Store.Load), or decoded (DecodeSummary). A run's is immutable
// from then on and shared by every copy of its Run; a CTree's insert path
// changes its own through Insert and Split.
type Summary struct {
	segs, bits int
	// cnt is each page's entry count, pages in key order.
	cnt []int
	// envMin/envMax are flat per-page symbol envelopes (zone maps): page p's
	// occupies [p*segs, (p+1)*segs).
	envMin, envMax []uint8
	// pageOf maps a page to its page number in the file: nil, the identity,
	// until a CTree split appends a page at the file's end.
	pageOf []int64
	// grp tiles the pages into groups, the unit the columns are stored by, so
	// that an insert moves one group's bytes and a split one group's slots.
	// grpMin/grpMax are their envelopes (their pages' union), at g*segs.
	grp            []group
	grpMin, grpMax []uint8
}

// group is groupPages consecutive pages when built. A split adds its new
// page to the old one's group, so no other group's membership shifts; a
// group grown to twice that is halved.
type group struct {
	first int // its first page; the next group's (or the page count) ends it
	// syms is the SAX column: the entries' symbols in page order, segs bytes
	// each, as sortable.Symbols gives them. A key is the interleaving of its
	// symbols, so the column also holds the fence keys (FirstKey).
	syms []uint8
	ts   []int64 // the timestamp column, one an entry
}

const groupPages = 16

// interiorSkipRun is the shortest interior run of dead pages worth leaving
// unread: skipping m pages mid-range saves m sequential reads but turns the
// next read into a random one (10x under the default cost model). Runs at
// the start or end of a scanned range are free to skip.
const interiorSkipRun = 12

// pageKeyBounds is a test hook, not an option: scans run as they did before
// the summaries — every page evaluated is bounded and window-filtered entry
// by entry from its bytes, and the summary is consulted only where it
// decides a skip: an envelope, and the SAX and timestamp columns of a page
// its envelope leaves live (see Scan). The equivalence suites hold every
// index's resident scans to it: same answers, same page accesses in the
// same order.
var pageKeyBounds bool

// SetPageKeyBounds switches the reference hook. Set it only while no search
// is in flight.
func SetPageKeyBounds(on bool) { pageKeyBounds = on }

// Pages returns the number of pages summarized.
func (m *Summary) Pages() int { return len(m.cnt) }

// Groups returns the number of page groups.
func (m *Summary) Groups() int { return len(m.grp) }

// Entries returns page p's entry count.
func (m *Summary) Entries(p int) int { return m.cnt[p] }

// Phys returns page p's page number in the file.
func (m *Summary) Phys(p int) int64 {
	if m.pageOf == nil {
		return int64(p)
	}
	return m.pageOf[p]
}

// FirstKey returns the key of page p's first entry: its fence key.
func (m *Summary) FirstKey(p int) sortable.Key {
	g, off := m.locate(p)
	return m.key(m.grp[g].syms[off*m.segs:])
}

func (m *Summary) key(syms []uint8) sortable.Key {
	return sortable.Interleave(sax.Word{Symbols: syms[:m.segs], Bits: m.bits})
}

// end returns the page that ends group g.
func (m *Summary) end(g int) int {
	if g+1 < len(m.grp) {
		return m.grp[g+1].first
	}
	return len(m.cnt)
}

// locate returns page p's group and the offset of its first entry in the
// group's columns.
func (m *Summary) locate(p int) (g, off int) {
	g = sort.Search(len(m.grp), func(g int) bool { return m.grp[g].first > p }) - 1
	for _, n := range m.cnt[m.grp[g].first:p] {
		off += n
	}
	return g, off
}

// env returns envelope i of the flat arrays mins/maxs.
func (m *Summary) env(mins, maxs []uint8, i int) (minSym, maxSym []uint8) {
	return mins[i*m.segs : (i+1)*m.segs], maxs[i*m.segs : (i+1)*m.segs]
}

// span returns the page range of the file that holds pages [lo, hi).
func (m *Summary) span(lo, hi int) (from, to int64) {
	if m.pageOf == nil {
		return int64(lo), int64(hi)
	}
	from, to = m.pageOf[lo], m.pageOf[lo]+1
	for _, p := range m.pageOf[lo+1 : hi] {
		from, to = min(from, p), max(to, p+1)
	}
	return from, to
}

// Builder builds a summary and a synopsis from a file's entries in file
// order: Observe is the file writer's per-entry hook (extsort.Observer), so
// each key is transposed once, for both.
type Builder struct {
	m    Summary
	syms []uint8
	ts   []int64
	syn  *zonestat.Synopsis
}

// NewBuilder returns a builder for a file of count entries of cfg's shape,
// about perPage to a page: what it is sized for, one allocation per kind of
// array, the four envelope arrays sharing one.
func NewBuilder(cfg index.Config, count int64, perPage int) *Builder {
	perPage = max(perPage, 1)
	pages := int((count + int64(perPage) - 1) / int64(perPage))
	w, groups := cfg.Segments, (pages+groupPages-1)/groupPages
	env, p, g := make([]uint8, 0, 2*(pages+groups)*w), pages*w, groups*w
	return &Builder{m: Summary{segs: w, bits: cfg.Bits, cnt: make([]int, 0, pages), grp: make([]group, 0, groups),
		envMin: env[:0:p], envMax: env[p : p : 2*p], grpMin: env[2*p : 2*p : 2*p+g], grpMax: env[2*p+g : 2*p+g : 2*p+2*g]},
		syms: make([]uint8, 0, int(count)*w), ts: make([]int64, 0, count), syn: zonestat.New(w, cfg.Bits)}
}

// Observe takes the next entry of the file by its key and timestamp (its ID
// is no part of a summary), the entry opening a page if pageStart.
func (b *Builder) Observe(key sortable.Key, _, ts int64, pageStart bool) {
	m := &b.m
	arr := sortable.Symbols(key, m.segs, m.bits)
	syms := arr[:m.segs]
	b.syn.AddSyms(syms, ts)
	if pageStart {
		m.cnt = append(m.cnt, 0)
		m.envMin = append(m.envMin, syms...)
		m.envMax = append(m.envMax, syms...)
	} else {
		mn, mx := m.env(m.envMin, m.envMax, len(m.cnt)-1)
		index.WidenEnvelope(mn, mx, syms)
	}
	m.cnt[len(m.cnt)-1]++
	b.syms = append(b.syms, syms...)
	b.ts = append(b.ts, ts)
}

// Run returns the descriptor of the fixed-size file the builder has watched
// being written, with its summary.
func (b *Builder) Run(file string) Run {
	b.m.groupBy(b.syms, b.ts)
	return Run{File: file, Count: int64(len(b.ts)), Syn: b.syn, Sum: &b.m}
}

// groupBy tiles the pages into groups of groupPages, each given its slice of
// syms and ts (every entry's symbols and timestamp, in page order) capped at
// its end, so that growing one group never writes into the next.
func (m *Summary) groupBy(syms []uint8, ts []int64) {
	w, off := m.segs, 0
	m.grp = m.grp[:0]
	for p := 0; p < len(m.cnt); p += groupPages {
		end := off
		for _, n := range m.cnt[p:min(p+groupPages, len(m.cnt))] {
			end += n
		}
		m.grp = append(m.grp, group{first: p, syms: syms[off*w : end*w : end*w], ts: ts[off:end:end]})
		off = end
	}
	m.grpMin, m.grpMax = append(m.grpMin[:0], make([]uint8, len(m.grp)*w)...), append(m.grpMax[:0], make([]uint8, len(m.grp)*w)...)
	for g := range m.grp {
		m.setGroupEnv(g)
	}
}

// setGroupEnv makes group g's envelope the union of its pages'.
func (m *Summary) setGroupEnv(g int) {
	mn, mx := m.env(m.grpMin, m.grpMax, g)
	lo, hi := m.grp[g].first*m.segs, m.end(g)*m.segs
	index.SetEnvelope(mn, mx, m.envMin[lo:hi])
	for off := lo; off < hi; off += m.segs {
		index.WidenEnvelope(mn, mx, m.envMax[off:off+m.segs])
	}
}

// setEnv makes page p's envelope exactly its entries' symbol range.
func (m *Summary) setEnv(p int) {
	g, off := m.locate(p)
	mn, mx := m.env(m.envMin, m.envMax, p)
	index.SetEnvelope(mn, mx, m.grp[g].syms[off*m.segs:(off+m.cnt[p])*m.segs])
}

// Find returns the page whose key range holds k — the last whose first key
// is not above it, or page 0 — by binary search over the fence keys: the
// groups', then one group's pages'. It reads no page.
func (m *Summary) Find(k sortable.Key) int {
	g := sort.Search(len(m.grp), func(g int) bool { return k.Less(m.key(m.grp[g].syms)) }) - 1
	if g < 0 {
		return 0
	}
	gr := &m.grp[g]
	pages := m.cnt[gr.first:m.end(g)]
	var at [2 * groupPages]int // each page's offset in the group's columns
	for i := 1; i < len(pages); i++ {
		at[i] = at[i-1] + pages[i-1]
	}
	return gr.first + sort.Search(len(pages)-1, func(i int) bool { return k.Less(m.key(gr.syms[at[i+1]*m.segs:])) })
}

// Insert follows entry e's insertion into page p of a CTree's leaf level at
// position i: the columns take its symbols and timestamp, and the page's and
// group's envelopes widen by it, which is what recomputing them would give.
func (m *Summary) Insert(p, i int, e record.Entry) {
	arr := sortable.Symbols(e.Key, m.segs, m.bits)
	syms := arr[:m.segs]
	if len(m.cnt) == 0 { // an empty leaf level's first entry opens its first page
		m.cnt, m.grp = []int{0}, []group{{}}
		m.envMin, m.envMax, m.grpMin, m.grpMax = slices.Clone(syms), slices.Clone(syms), slices.Clone(syms), slices.Clone(syms)
	}
	g, off := m.locate(p)
	gr := &m.grp[g]
	gr.syms = slices.Insert(gr.syms, (off+i)*m.segs, syms...)
	gr.ts = slices.Insert(gr.ts, off+i, e.TS)
	m.cnt[p]++
	mn, mx := m.env(m.envMin, m.envMax, p)
	index.WidenEnvelope(mn, mx, syms)
	mn, mx = m.env(m.grpMin, m.grpMax, g)
	index.WidenEnvelope(mn, mx, syms)
}

// Split follows the split of page p of a CTree's leaf level: its entries end
// at mid, the rest are a new page p+1, appended to the file as page phys.
// The new page joins p's group, whose envelope already covers every entry
// involved; a group that has reached twice its built size is then halved.
func (m *Summary) Split(p, mid int, phys int64) {
	w := m.segs
	for len(m.pageOf) < len(m.cnt) { // the identity, nil until now
		m.pageOf = append(m.pageOf, int64(len(m.pageOf)))
	}
	m.pageOf = slices.Insert(m.pageOf, p+1, phys)
	m.cnt = slices.Insert(m.cnt, p+1, m.cnt[p]-mid)
	m.cnt[p] = mid
	m.envMin = slices.Insert(m.envMin, (p+1)*w, make([]uint8, w)...)
	m.envMax = slices.Insert(m.envMax, (p+1)*w, make([]uint8, w)...)
	g, _ := m.locate(p)
	for k := g + 1; k < len(m.grp); k++ {
		m.grp[k].first++
	}
	m.setEnv(p)
	m.setEnv(p + 1)
	first, end := m.grp[g].first, m.end(g)
	if end-first < 2*groupPages {
		return
	}
	_, off := m.locate(first + (end-first)/2)
	gr := &m.grp[g]
	upper := group{first: first + (end-first)/2, syms: slices.Clone(gr.syms[off*w:]), ts: slices.Clone(gr.ts[off:])}
	gr.syms, gr.ts = gr.syms[:off*w], gr.ts[:off]
	m.grp = slices.Insert(m.grp, g+1, upper)
	m.grpMin = slices.Insert(m.grpMin, (g+1)*w, make([]uint8, w)...)
	m.grpMax = slices.Insert(m.grpMax, (g+1)*w, make([]uint8, w)...)
	m.setGroupEnv(g)
	m.setGroupEnv(g + 1)
}

// AppendBinary appends the summary's persistent form:
//
//	pages u32 | per page: entries u32 | page number u64
//	| envelope minima pages*segs B | maxima pages*segs B
//	| SAX column entries*segs B | timestamp column entries*8 B
//
// The groups are not stored: DecodeSummary derives them.
func (m *Summary) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.cnt)))
	for p, n := range m.cnt {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Phys(p)))
	}
	buf = append(append(buf, m.envMin...), m.envMax...)
	for _, gr := range m.grp {
		buf = append(buf, gr.syms...)
	}
	for _, gr := range m.grp {
		for _, t := range gr.ts {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
		}
	}
	return buf
}

// DecodeSummary decodes the summary AppendBinary wrote (all of buf) of a
// file of count entries of cfg's shape, and folds the file's synopsis from
// its SAX and timestamp columns. Every count is checked against the bytes
// before anything is sized by it, every symbol against the cardinality: the
// lower-bound kernels index tables with them. A page's envelope is derived
// from its SAX column, and a stored one that differs is an error: a scan
// skips a page on its envelope alone, so a narrowed one would drop answers.
func DecodeSummary(buf []byte, cfg index.Config, count int64) (*Summary, *zonestat.Synopsis, error) {
	w := cfg.Segments
	if len(buf) < 4 || (len(buf)-4)/12 < int(binary.LittleEndian.Uint32(buf)) {
		return nil, nil, fmt.Errorf("run: summary truncated in its page directory")
	}
	pages := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	m := &Summary{segs: w, bits: cfg.Bits, cnt: make([]int, pages), pageOf: make([]int64, pages)}
	var total int64
	for p := range m.cnt {
		m.cnt[p] = int(binary.LittleEndian.Uint32(buf[p*12:]))
		m.pageOf[p] = int64(binary.LittleEndian.Uint64(buf[p*12+4:]))
		if m.cnt[p] < 1 {
			return nil, nil, fmt.Errorf("run: summary page %d holds no entries", p)
		}
		total += int64(m.cnt[p])
	}
	m.pageOf = mapOrNil(m.pageOf)
	buf = buf[pages*12:]
	envs := 2 * pages * w
	if want := int64(envs) + count*int64(w+8); total != count || int64(len(buf)) != want {
		return nil, nil, fmt.Errorf("run: summary of %d entries (the file: %d) in %d pages has %d bytes of envelopes and columns, want %d", total, count, pages, len(buf), want)
	}
	if !index.SymbolsBelow(buf[:envs+int(count)*w], cfg.Bits) {
		return nil, nil, fmt.Errorf("run: summary holds a symbol beyond %d bits", cfg.Bits)
	}
	m.envMin, m.envMax = make([]uint8, envs/2), make([]uint8, envs/2)
	syms := slices.Clone(buf[envs : envs+int(count)*w])
	for p, off := 0, 0; p < pages; p, off = p+1, off+m.cnt[p] {
		mn, mx := m.env(m.envMin, m.envMax, p)
		index.SetEnvelope(mn, mx, syms[off*w:(off+m.cnt[p])*w])
		if smn, smx := m.env(buf, buf[envs/2:], p); !bytes.Equal(mn, smn) || !bytes.Equal(mx, smx) {
			return nil, nil, fmt.Errorf("run: summary page %d's stored envelope is not its entries' symbol range", p)
		}
	}
	ts, syn := make([]int64, count), zonestat.New(w, cfg.Bits)
	for i := range ts {
		ts[i] = int64(binary.LittleEndian.Uint64(buf[envs+int(count)*w+8*i:]))
		syn.AddSyms(syms[i*w:(i+1)*w], ts[i])
	}
	m.groupBy(syms, ts)
	return m, syn, m.ascending()
}

// mapOrNil returns pageOf, or nil, which means the same, when it is the
// identity.
func mapOrNil(pageOf []int64) []int64 {
	for i, p := range pageOf {
		if p != int64(i) {
			return pageOf
		}
	}
	return nil
}

// ascending checks what Find relies on, of a summary read from outside the
// program: the fence keys ascend.
func (m *Summary) ascending() error {
	var prev sortable.Key
	for g, gr := range m.grp {
		for p, off := gr.first, 0; p < m.end(g); p, off = p+1, off+m.cnt[p] {
			k := m.key(gr.syms[off*m.segs:])
			if p > 0 && k.Less(prev) {
				return fmt.Errorf("run: fence key of page %d below page %d's", p, p-1)
			}
			prev = k
		}
	}
	return nil
}

// Verify holds r's summary to r's file — the invariant a summary keeps
// through builds, inserts, splits, encodings and loads: a pass over the
// pages by its page map (Store.Load, which checks the fence keys ascend)
// gives the same persistent form, and the groups tile the pages, each under
// twice groupPages, with its pages' entries and envelopes' union.
func (s *Store) Verify(r Run) error {
	m := r.Sum
	fresh, err := s.Load(Run{File: r.File, Count: r.Count}, m.cnt, m.pageOf)
	if err != nil {
		return err
	}
	if !bytes.Equal(m.AppendBinary(nil), fresh.Sum.AppendBinary(nil)) {
		return fmt.Errorf("run: %s: the summary's counts, envelopes or columns are not its pages'", r.File)
	}
	want := *m
	want.grpMin, want.grpMax = make([]uint8, len(m.grp)*m.segs), make([]uint8, len(m.grp)*m.segs)
	next := 0
	for g, gr := range m.grp {
		entries := 0
		for _, n := range m.cnt[gr.first:m.end(g)] {
			entries += n
		}
		if gr.first != next || m.end(g) <= next || m.end(g)-next >= 2*groupPages || len(gr.syms) != entries*m.segs || len(gr.ts) != entries {
			return fmt.Errorf("run: %s: group %d of pages [%d, %d) holds %d entries' columns", r.File, g, gr.first, m.end(g), len(gr.ts))
		}
		want.setGroupEnv(g)
		next = m.end(g)
	}
	if next != m.Pages() || !bytes.Equal(want.grpMin, m.grpMin) || !bytes.Equal(want.grpMax, m.grpMax) {
		return fmt.Errorf("run: %s: groups end at page %d of %d, or their envelopes are not their pages' union", r.File, next, m.Pages())
	}
	return nil
}

// page describes page p of r (of group g, at offset off of its columns),
// pinned as data, in pg for the page evaluator, which takes the entries'
// symbols and timestamps from the columns and reads data only to verify a
// survivor.
func (s *Store) page(pg *index.Page, r Run, p, g, off int, data []byte) {
	m, n := r.Sum, r.Sum.cnt[p]
	*pg = index.StoredPage(&s.layout, data, n)
	if !pageKeyBounds {
		pg.UseSymbols(m.grp[g].syms[off*m.segs:(off+n)*m.segs], m.segs)
		pg.UseTimestamps(m.grp[g].ts[off : off+n])
	}
}

// ProbePage pins page p of r and evaluates all its entries into col: a
// run's covering page (Probe), a CTree's covering leaf and the neighbours
// its approximate search widens to. It returns the in-window entries seen.
func (s *Store) ProbePage(r Run, p int, q index.Query, col *index.Collector, sc *index.Scratch) (int, error) {
	h, err := s.Reader.PinPage(r.File, r.Sum.Phys(p))
	if err != nil {
		return 0, err
	}
	g, off := r.Sum.locate(p)
	s.page(&sc.Page, r, p, g, off, h.Data())
	n, err := index.EvalPage(&q, &sc.Page, s.Raw, col, sc)
	h.Release()
	return n, err
}

// rankedGroups is how many groups a ranked probe ranks the pages of: the
// unit's best by envelope bound, 512 pages when built. Ranking reads only
// the resident summary, so the count costs CPU, not I/O. It is the sizing a
// prototype found on stream_window (see ARCHITECTURE, "Resident page
// summary").
const rankedGroups = 32

// A ranked probe reads at most max(1, pages/rankedShare) of its unit's
// pages, and never more than rankedCap. Each page it reads is a random read,
// ten sequential ones under the default cost model, so on a unit of P pages
// the seed costs at most 10·P/128 sequential reads, under 8% of reading the
// unit end to end — what an exact scan of it costs before any page is
// skipped — and a unit under 256 pages gets the one page the covering-page
// probe read. The cap holds the largest units to 80 sequential reads' worth:
// eight pages of seven materialized entries, some five times k = 10
// candidates. (A prototype's fixed eight pages cut stream_window's io a
// little more, 2 502 → 1 903 a query at seed 977 against 1 932, but raised
// E6's CLSM+BTP query cost over the whole history 64.0 → 88.2, and its
// reads evicted what the small pool of TestCachedStreamEquivalence holds.)
const rankedShare, rankedCap = 128, 8

// rankedBudget returns how many pages a ranked probe of a unit of the given
// pages may read.
func rankedBudget(pages int) int { return min(rankedCap, max(1, pages/rankedShare)) }

// rankedPage is a page a ranked probe may read, with its least in-window
// entry bound.
type rankedPage struct {
	bound float64
	page  int
}

// RankedProbe is a windowed approximate probe of r into col that picks its
// pages from the resident summary before it pins one: it bounds the groups'
// envelopes (Pruner.EnvelopeSqs), takes the rankedGroups best, bounds their
// pages' envelopes and then, for a page its envelope does not rule out, its
// entries (Scratch.ResidentBounds), and keeps the budget's worth of pages
// with the least in-window entry bound, ties to the lower page. It reads
// them in that order, each through ProbePage, until the next one's bound is
// ruled out by col (SkipSq) — every later one's is too, the bounds ascending
// and the collector's only tightening. A page with no in-window entry is
// never read.
//
// Groups are visited in ascending bound order, so the first that col rules
// out, or whose bound is beyond the worst page kept once the budget is
// full, ends the ranking; a page is passed over on its envelope bound by the
// same two tests, its entries unbounded. Neither changes a page read: an
// entry's bound is at least its page envelope's, which is at least its
// group's, and a page col rules out now it would rule out when the page's
// turn came, after every live page kept before it.
//
// BTP's partitions use it (stream.BTP.ApproxInto, and with it the seed of
// their exact search); CLSM runs, CTrees and TP keep the covering page
// (Probe): see ARCHITECTURE, "Resident page summary". Under the pinned-probe
// test hook a page's entries are bounded from its bytes, pinned for the
// purpose, as a store without summaries would have to: the same pages are
// kept, and the extra pins are counted.
func (s *Store) RankedProbe(r Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
	m, w := r.Sum, r.Sum.segs
	if m.Pages() == 0 {
		return nil
	}
	budget := rankedBudget(m.Pages())
	groups := sc.Bounds(len(m.grp))
	sc.P.EnvelopeSqs(groups, w, m.grpMin, m.grpMax)
	var best [rankedGroups]int // group indexes by ascending (bound, index)
	nb := 0
	for g, b := range groups {
		if nb == rankedGroups && b >= groups[best[nb-1]] {
			continue
		}
		nb = min(nb+1, rankedGroups)
		i := nb - 1
		for ; i > 0 && b < groups[best[i-1]]; i-- {
			best[i] = best[i-1]
		}
		best[i] = g
	}
	var top [rankedCap]rankedPage // by ascending (bound, page)
	var pageBuf [2 * groupPages]float64
	n := 0
	full := func(b float64) bool { return n == budget && b > top[n-1].bound }
	for _, g := range best[:nb] {
		if col.SkipSq(groups[g]) || full(groups[g]) {
			break
		}
		first, end := m.grp[g].first, m.end(g)
		pages := pageBuf[:end-first]
		sc.P.EnvelopeSqs(pages, w, m.envMin[first*w:], m.envMax[first*w:])
		at := 0 // page p's offset in group g's columns
		for p := first; p < end; p, at = p+1, at+m.cnt[p] {
			if col.SkipSq(pages[p-first]) || full(pages[p-first]) {
				continue
			}
			least, err := s.leastInWindow(r, p, g, at, &q, sc)
			if err != nil {
				return err
			}
			if math.IsInf(least, 1) || col.SkipSq(least) || full(least) ||
				n == budget && least == top[n-1].bound && p > top[n-1].page {
				continue
			}
			n = min(n+1, budget)
			i := n - 1
			for ; i > 0 && (least < top[i-1].bound || least == top[i-1].bound && p < top[i-1].page); i-- {
				top[i] = top[i-1]
			}
			top[i] = rankedPage{least, p}
		}
	}
	for _, c := range top[:n] {
		if col.SkipSq(c.bound) {
			break
		}
		if _, err := s.ProbePage(r, c.page, q, col, sc); err != nil {
			return err
		}
	}
	return nil
}

// leastInWindow returns the least bound among page p's entries in q's
// window, +Inf when none is in it: from the resident columns (p is in group
// g, at offset off of its columns) or, under the pinned-probe hook, from the
// page's bytes, read through a cursor of its own.
func (s *Store) leastInWindow(r Run, p, g, off int, q *index.Query, sc *index.Scratch) (float64, error) {
	n := r.Sum.cnt[p]
	if onProbePin == nil {
		gr, w := &r.Sum.grp[g], r.Sum.segs
		_, least := sc.ResidentBounds(q, gr.syms[off*w:(off+n)*w], gr.ts[off:off+n])
		return least, nil
	}
	phys := r.Sum.Phys(p)
	cur := s.Reader.Scan(r.File, phys, phys+1)
	defer cur.Close()
	data, err := cur.Pin(phys)
	if err != nil {
		return 0, err
	}
	onProbePin()
	var pg record.PageView
	if err := s.layout.Page(&pg, data, n); err != nil {
		return 0, fmt.Errorf("run: %s page %d: %w", r.File, p, err)
	}
	least := math.Inf(1)
	for i := 0; i < pg.Count(); i++ {
		if q.InWindow(pg.TS(i)) {
			least = min(least, sc.P.MinDistSqKey(pg.Key(i)))
		}
	}
	return least, nil
}

// Scan is the one sequential page loop, of runs and CTree leaf levels alike:
// it pins pages [lo, hi) of r through one storage cursor opened over the
// whole range, ascending from start to hi and then, wrapping once, from lo to
// start (start = lo reads the range in file order), and hands each to eval
// (index.EvalPage) with its slices
// of the columns attached, unless col rules out every series inside it
// (dead) by the page's envelope bound or, where a skip may follow, by its
// entries' bounds (below). The loop bounds envelopes in batches
// (index.Pruner.EnvelopeSqs): the groups of the range at once, then, as it
// reaches a group col has not ruled out, that group's pages; it decides each
// page with col.SkipSq when it reaches it. A dead group is only a short cut,
// which decides its pages the way their own bounds would: a page's envelope
// lies inside its group's, so its bound is at least the group's, term by
// term in the same order, and the collector's bound only tightens; a dead
// group the planner may skip joins the pending run of dead pages in one
// step, not a page at a time. The query and each page reach eval through sc
// (Scratch.Query, Scratch.Page), by pointer, so the loop copies neither once
// a page.
//
// The start page is a k-NN search's to choose: beginning at the query's
// covering page evaluates its key neighbourhood first, whose entries tighten
// the collector's bound most, before the pages left of it are judged. The
// cursor is one over [lo, hi) whatever the start, so whether it keeps what
// it reads (storage.Cursor.Keeps) is decided on the whole range, as for a
// scan in file order.
//
// A page its envelope leaves live is decided by its entries before it is
// pinned when the planner may skip it and the cursor keeps nothing
// (storage.Cursor.Keeps): its resident entries are bounded in one call
// (Scratch.ResidentBounds), and it is dead when none is in the query's window
// or col rules out the least in-window bound — exactly when eval would prune
// every in-window entry now, SkipSq being monotone in the bound. A live page
// takes those bounds on to eval (Page.UseBounds). A cursor that keeps what it
// reads — a buffer pool's, over a range that fits its cache — pays for a page
// once; skipping a page there that only its entries rule out would only move
// its read to a later query, as a random one, so there the envelope alone
// decides. The reference path (pageKeyBounds) decides skips from the columns
// too, so both paths read the same pages.
//
// A dead page is spared every touch of its bytes and every further bound.
// Whether it is also left unread is the search's planner's decision
// (Scratch.Planner), under one rule: a run of dead pages goes unread when it
// leads or trails either leg of the scan — [start, hi) or [lo, start) — or
// when it is at least interiorSkipRun long; a shorter interior run is read
// after all, so a declined skip's I/O is that of no skip. The rule is what
// makes a skip safe under the cost model: at either end of a leg a skip only
// drops reads (the wrap is a seek anyway), and mid-leg it drops m sequential
// reads but makes the read after the gap a random one, a net saving from
// interiorSkipRun on (a random read costs ten sequential ones under the
// default model), so no scan costs more than it would unplanned: a declined
// run is still pinned. A dead page that is read — a declined run's, or, with
// the planner disabled, every page an envelope rules out — is pinned and
// released undecoded (the reference path evaluates it from its bytes), and
// the trace counts its in-window entries, off the timestamp column, as seen
// and pruned. The pages skipped and the pages read are counted into the
// search's record (Scratch.Tally) as units of the given kind.
func (s *Store) Scan(r Run, lo, start, hi int, kind obs.Kind, q index.Query, sc *index.Scratch, col *index.Collector, eval func(q *index.Query, pg *index.Page) error) error {
	if lo >= hi {
		return nil
	}
	if start < lo || start >= hi {
		return fmt.Errorf("run: %s: scan starts at page %d, outside [%d, %d)", r.File, start, lo, hi)
	}
	sc.Query = q
	skipped, err := s.scanPages(r, lo, start, hi, sc, col, eval)
	sc.Tally.Note(kind, int64(hi-lo)-skipped, skipped)
	return err
}

// scanPages is Scan's loop over a non-empty range; it returns the pages it
// left unread. Each page is decided where the loop reaches it: by its
// group's envelope bound, its own, then, when a skip may follow, its
// entries' least in-window bound. (The accounting stays outside: a deferred
// closure over the count here costs the loop a tenth of a CTree scan's
// time.)
func (s *Store) scanPages(r Run, lo, start, hi int, sc *index.Scratch, col *index.Collector, eval func(q *index.Query, pg *index.Page) error) (skipped int64, err error) {
	m, w := r.Sum, r.Sum.segs
	skip := sc.Planner.Enabled()
	from, to := m.span(lo, hi)
	cur := s.Reader.Scan(r.File, from, to)
	defer cur.Close()
	g0, _ := m.locate(lo)
	resident := !pageKeyBounds
	// Envelopes decide pages when a dead page is spared its evaluation
	// (resident) or left unread (skip); the reference path without a planner
	// evaluates every page. A page its envelope leaves live is decided by its
	// entries when it may go unread and the cursor keeps nothing (see Scan).
	bounded, entries := resident || skip, skip && !cur.Keeps()
	var groups, pages []float64
	var pageBuf [2 * groupPages]float64 // a group holds fewer pages (Verify)
	if bounded {
		groups = sc.Bounds(sort.Search(len(m.grp), func(g int) bool { return m.grp[g].first >= hi }) - g0)
		sc.P.EnvelopeSqs(groups, w, m.grpMin[g0*w:], m.grpMax[g0*w:])
	}
	for _, leg := range [2][2]int{{start, hi}, {lo, start}} {
		a, b := leg[0], leg[1]
		if a >= b {
			continue
		}
		// Within a leg pages are read in ascending order, so the read position
		// — page rp, in group rg at offset off of its columns — only moves
		// forward: page by page inside a group, and straight to the first page
		// of a later one.
		rg, off := m.locate(a)
		rp, next, ga := a, m.end(rg), rg
		pending, started := 0, false // the dead pages [p-pending, p) are neither skipped nor read yet
		for g := ga; g < len(m.grp) && m.grp[g].first < b; g++ {
			first, end := max(a, m.grp[g].first), min(b, m.end(g))
			groupDead := bounded && col.SkipSq(groups[g-g0])
			if groupDead && skip {
				pending += end - first // every page dead: one step, not one a page
				continue
			}
			if bounded && !groupDead {
				pages = pageBuf[:end-first]
				sc.P.EnvelopeSqs(pages, w, m.envMin[first*w:], m.envMax[first*w:])
			}
			at := 0 // page p's offset in group g's columns
			for _, n := range m.cnt[m.grp[g].first:first] {
				at += n
			}
			for p := first; p < end; p, at = p+1, at+m.cnt[p] {
				dead := groupDead || bounded && col.SkipSq(pages[p-first])
				var lbs []float64
				if !dead && entries {
					gr, n := &m.grp[g], m.cnt[p]
					var least float64
					lbs, least = sc.ResidentBounds(&sc.Query, gr.syms[at*w:(at+n)*w], gr.ts[at:at+n])
					dead = math.IsInf(least, 1) || col.SkipSq(least) // +Inf: no entry in the window
				}
				if dead && skip {
					pending++
					continue
				}
				from := p // read pages [from, p]: a declined run of dead pages, then p
				if started && pending < interiorSkipRun {
					from -= pending
				} else {
					skipped += int64(pending)
				}
				pending, started = 0, true
				for d := from; d <= p; d++ {
					if d >= next { // d is in a later group: jump to that group's first page
						for d >= next {
							rg++
							next = m.end(rg)
						}
						rp, off = m.grp[rg].first, 0
					}
					for ; rp < d; rp++ {
						off += m.cnt[rp]
					}
					data, err := cur.Pin(m.Phys(d))
					if err != nil {
						return skipped, err
					}
					if d == p && !dead || d < p && !resident {
						s.page(&sc.Page, r, d, rg, off, data)
						if d == p && resident {
							sc.Page.UseBounds(lbs)
						}
						if err := eval(&sc.Query, &sc.Page); err != nil {
							return skipped, err
						}
					} else if sc.Trace != nil {
						n := int64(0)
						for _, ts := range m.grp[rg].ts[off : off+m.cnt[d]] {
							if sc.Query.InWindow(ts) {
								n++
							}
						}
						sc.NoteDeadPage(n)
					}
				}
			}
		}
		skipped += int64(pending) // a run trailing the leg: nothing re-enters, free
	}
	return skipped, nil
}
