package index

import (
	"repro/internal/record"
	"repro/internal/sortable"
)

// Buffer is a write buffer: the entries an index holds in memory before it
// writes them out, in arrival order, and beside them the column of their
// symbols — Segments bytes an entry, as sortable.Symbols gives them for its
// key, the format a run's resident summary keeps and Page.UseSymbols takes.
// The column is filled as each entry arrives (Add), so a query bounds the
// buffer's entries in one simd.SymbolSums call (Page), as it bounds a
// resident run page's, instead of transposing every buffered key; it costs
// Segments bytes a buffered entry.
//
// A Buffer is a value, and a copy is a snapshot: entries added to the
// original later land beyond the copy's length, so an index may publish
// copies to searches that run concurrently with its inserts, as long as one
// goroutine at a time adds and drops.
type Buffer struct {
	ents       []record.Entry
	syms       []uint8 // entry i's symbols at [i*segs, (i+1)*segs)
	segs, bits int
}

// NewBuffer returns an empty buffer for entries summarized under cfg.
func NewBuffer(cfg Config) Buffer { return Buffer{segs: cfg.Segments, bits: cfg.Bits} }

// Add appends e, and its symbols to the column.
func (b *Buffer) Add(e record.Entry) {
	b.ents = append(b.ents, e)
	syms := sortable.Symbols(e.Key, b.segs, b.bits)
	b.syms = append(b.syms, syms[:b.segs]...)
}

// Len returns the number of buffered entries.
func (b *Buffer) Len() int { return len(b.ents) }

// Entries returns the buffered entries in arrival order. They alias the
// buffer: the caller must not modify them.
func (b *Buffer) Entries() []record.Entry { return b.ents }

// Drop removes the first n entries — a prefix that has been written out —
// and their symbols.
func (b *Buffer) Drop(n int) {
	b.ents, b.syms = b.ents[n:], b.syms[n*b.segs:]
}

// Page returns the buffered entries q can match as one page for EvalPage,
// bounded from the column. Its candidates verify in arrival order, each
// checked against the collector's bound right before: a buffer holds
// thousands of entries, and ordering them all by bound would cost more than
// the verifications it saves.
//
// Under a window the page is the stretch from the first in-window entry to
// the last: the entries outside it, out of the window, are no candidates,
// and a window that misses the buffer bounds nothing. Where timestamps rise
// with arrival, as a stream's and an LSM's do, the stretch is the in-window
// entries, so a window bounds no entry the keyed evaluation, one in-window
// key at a time, would not. The buffer is no page read, so a page of it
// that is pruned whole is not counted as one released undecoded.
func (b *Buffer) Page(q *Query) Page {
	lo, hi := 0, len(b.ents)
	if q.Windowed {
		out := func(ts int64) bool { return ts < q.MinTS || ts > q.MaxTS }
		for lo < hi && out(b.ents[lo].TS) {
			lo++
		}
		for hi > lo && out(b.ents[hi-1].TS) {
			hi--
		}
	}
	pg := Page{n: hi - lo, ents: b.ents[lo:hi], arrivals: true}
	if lo < hi {
		pg.UseSymbols(b.syms[lo*b.segs:hi*b.segs], b.segs)
	}
	return pg
}
