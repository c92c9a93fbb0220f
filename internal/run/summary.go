package run

import (
	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/sax"
	"repro/internal/sortable"
	"repro/internal/zonestat"
)

// summary is the resident image of one sorted run: the paper's in-memory
// summarization array (SIMS), which lets a scan prune over small summaries
// while the file beneath is read sequentially. A scan descends its levels
// before it reads a byte of a page: the page's symbol envelope rules out the
// whole page, then the SAX and timestamp columns filter and bound each entry,
// and the page itself is touched only to verify a survivor.
//
// A summary is built by the pass that writes the run (summarizer), is
// immutable from then on, is shared by every copy of its Run value and goes
// with the last of them. Nothing of it is stored: a run described by
// metadata gets its summary back from one sequential pass over the file
// (Store.Load).
type summary struct {
	segs, bits int
	// syms is the SAX column: every entry's symbols in file order, segs
	// bytes each, as sortable.Symbols gives them for its key — the form the
	// per-entry lower bound takes. An entry's key is the interleaving of its
	// symbols, so the column also holds every page's first key (firstKey):
	// the fence keys a probe searches.
	syms []uint8
	// ts is the timestamp column, one an entry in file order.
	ts []int64
	// envMin/envMax are flat per-page symbol envelopes (zone maps): page p's
	// occupies [p*segs, (p+1)*segs).
	envMin, envMax []uint8
	// perPage is the fixed-size entries to a page, which locates page p's
	// entries; a packed run (perPage 0) holds a data-dependent number, so
	// starts records the index of each page's first entry.
	perPage int
	starts  []int
}

func (m *summary) pages() int { return len(m.envMin) / m.segs }

// span returns the file-order positions [lo, hi) of page p's entries.
func (m *summary) span(p int) (lo, hi int) {
	if m.perPage > 0 {
		lo = p * m.perPage
		return lo, min(lo+m.perPage, len(m.ts))
	}
	if p+1 < len(m.starts) {
		return m.starts[p], m.starts[p+1]
	}
	return m.starts[p], len(m.ts)
}

// env returns page p's symbol envelope.
func (m *summary) env(p int) (minSym, maxSym []uint8) {
	return m.envMin[p*m.segs : (p+1)*m.segs], m.envMax[p*m.segs : (p+1)*m.segs]
}

// firstKey returns the key of page p's first entry.
func (m *summary) firstKey(p int) sortable.Key {
	lo, _ := m.span(p)
	return sortable.Interleave(sax.Word{Symbols: m.syms[lo*m.segs : (lo+1)*m.segs], Bits: m.bits})
}

// inWindow counts page p's entries inside q's window.
func (m *summary) inWindow(q *index.Query, p int) int64 {
	lo, hi := m.span(p)
	if !q.Windowed {
		return int64(hi - lo)
	}
	var n int64
	for _, ts := range m.ts[lo:hi] {
		if ts >= q.MinTS && ts <= q.MaxTS {
			n++
		}
	}
	return n
}

// attach hands page p's slices of the columns to the page cursor, which then
// reads the page's bytes only to verify a survivor.
func (m *summary) attach(pg *index.Page, p int) {
	lo, hi := m.span(p)
	pg.UseSymbols(m.syms[lo*m.segs:hi*m.segs], m.segs)
	pg.UseTimestamps(m.ts[lo:hi])
}

// summarizer builds a run's summary, and its synopsis when it has one to
// build, from the entries in file order: observe is the one per-entry hook of
// the run writer (extsort.Observer), so each key is transposed once, for both.
type summarizer struct {
	sum *summary
	syn *zonestat.Synopsis // nil: the caller keeps the synopsis it has
}

// summarizer returns a builder for a run of count entries in the given
// encoding.
func (s *Store) summarizer(count int64, packed bool, syn *zonestat.Synopsis) *summarizer {
	w := s.Config.Segments
	m := &summary{
		segs: w, bits: s.Config.Bits,
		syms: make([]uint8, 0, int(count)*w),
		ts:   make([]int64, 0, count),
	}
	if !packed {
		m.perPage = s.perPage
		pages := (int(count) + s.perPage - 1) / s.perPage
		m.envMin, m.envMax = make([]uint8, 0, pages*w), make([]uint8, 0, pages*w)
	}
	return &summarizer{sum: m, syn: syn}
}

func (b *summarizer) observe(e record.Entry, pageStart bool) {
	m := b.sum
	arr := sortable.Symbols(e.Key, m.segs, m.bits)
	syms := arr[:m.segs]
	if b.syn != nil {
		b.syn.AddSyms(e.Key, syms, e.TS)
	}
	if pageStart {
		if m.perPage == 0 {
			m.starts = append(m.starts, len(m.ts))
		}
		m.envMin = append(m.envMin, syms...)
		m.envMax = append(m.envMax, syms...)
	} else {
		last := len(m.envMin) - m.segs
		index.WidenEnvelope(m.envMin[last:], m.envMax[last:], syms)
	}
	m.syms = append(m.syms, syms...)
	m.ts = append(m.ts, e.TS)
}

// run returns the descriptor of the run the builder has watched being
// written.
func (b *summarizer) run(file string, packed bool) Run {
	return Run{File: file, Count: int64(len(b.sum.ts)), Syn: b.syn, Packed: packed, sum: b.sum}
}
