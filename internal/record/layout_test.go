package record

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// streamRoundTrip writes entries into a file of the layout — a fixed-size
// one through the Writer at the given fill, a packed one at full pages
// through writePacked, as older builds wrote it — and checks where its
// pages closed: a fixed-size page at the fill's record count, a packed page
// at an entry that no longer fits, every page rendering to what a
// PageBuilder makes of its entries. A file of full pages is then read back
// through the layout's Reader.
func streamRoundTrip(t *testing.T, c Codec, pageSize int, packed bool, fill float64, entries []Entry) {
	t.Helper()
	l, err := NewLayout(c, pageSize, packed)
	if err != nil {
		t.Fatal(err)
	}
	d := newTestPageStore(pageSize)
	var starts []int
	if packed {
		starts = writePacked(t, d, &l, "f", entries)
		fill = 1
	} else {
		starts = writeFixed(t, d, &l, fill, entries)
	}
	file := d.files["f"]
	if len(file) != len(starts)*pageSize {
		t.Fatalf("%d bytes written, %d page starts reported", len(file), len(starts))
	}
	if fill <= 0 || fill > 1 {
		fill = 1
	}
	b, want := l.Builder(), make([]byte, pageSize)
	var pg PageView
	for p, from := range starts {
		to := len(entries)
		if p+1 < len(starts) {
			to = starts[p+1]
		}
		page := file[p*pageSize : (p+1)*pageSize]
		if err := l.Page(&pg, page, to-from); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		if last := p == len(starts)-1; !packed && !last && to-from != max(1, int(float64(pageSize/c.Size())*fill)) {
			t.Fatalf("fixed page %d holds %d entries at fill %v", p, to-from, fill)
		}
		if fits, err := encodeAll(b, want, entries[from:to]); err != nil || !fits || !bytes.Equal(want, page) {
			t.Fatalf("page %d: its %d entries re-encode to other bytes (fits=%v err=%v)", p, to-from, fits, err)
		}
		if p+1 < len(starts) && fill == 1 {
			if fits, _ := encodeAll(b, want, entries[from:to+1]); fits {
				t.Fatalf("page %d closed though its next entry fits", p)
			}
		}
	}
	if fill < 1 {
		return // a file written with slack is not read as a stream
	}

	r, err := l.NewReader(d.cursor("f"), d.numPages("f"), "f", int64(len(entries)))
	if err != nil {
		t.Fatal(err)
	}
	var got Entry
	for i, want := range entries {
		prev := got.Payload
		if got, err = r.Next(prev); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got.Key != want.Key || got.ID != want.ID || got.TS != want.TS {
			t.Fatalf("entry %d = %+v, want %+v", i, got, want)
		}
		if c.Materialized && !slices.Equal(got.Payload, want.Payload) {
			t.Fatalf("entry %d payload mismatch", i)
		}
		if prev != nil && &got.Payload[0] != &prev[0] {
			t.Fatalf("entry %d: payload not decoded into the buffer handed back", i)
		}
	}
	if _, err := r.Next(nil); err != io.EOF {
		t.Fatalf("reader did not end after count entries: %v", err)
	}
}

// writeFixed writes entries through a Writer of the fixed-size layout at
// the given fill, and returns the entries that opened a page.
func writeFixed(t *testing.T, d *testPageStore, l *Layout, fill float64, entries []Entry) (starts []int) {
	t.Helper()
	w, err := l.Create(d, "f", fill, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		start, err := w.Write(e)
		if err != nil {
			t.Fatal(err)
		}
		if start {
			starts = append(starts, i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(Entry{}); err == nil {
		t.Fatal("a closed writer took an entry")
	}
	return starts
}

// writePacked writes entries, in (Key, ID) order, into a new file of full
// packed pages (packEntries), as older builds did, and returns the entries
// that opened a page. No build writes such a file; the readers open it.
func writePacked(t *testing.T, d *testPageStore, l *Layout, name string, entries []Entry) (starts []int) {
	t.Helper()
	d.Create(name)
	for i := 0; i < len(entries); {
		page, n := packEntries(t, l.codec, l.pageSize, entries[i:])
		starts = append(starts, i)
		d.AppendPages(name, page)
		i += n
	}
	return starts
}

// encodeAll renders entries as one page through b, or reports that they do
// not fit one.
func encodeAll(b *PageBuilder, page []byte, entries []Entry) (bool, error) {
	b.Reset()
	for _, e := range entries {
		if ok, err := b.TryAdd(e); err != nil || !ok {
			return false, err
		}
	}
	_, err := b.Encode(page)
	return err == nil, err
}

// TestWriterReaderBothLayouts: the writer writes fixed-size files at full
// pages and with slack, and one reader reads those and packed ones.
func TestWriterReaderBothLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []Codec{{SeriesLen: 12}, {SeriesLen: 12, Materialized: true}} {
		for _, n := range []int{0, 1, 100, 700} {
			for _, fill := range []float64{1, 0.7, 0} {
				t.Run(fmt.Sprintf("mat=%v/n=%d/fixed/fill=%v", c.Materialized, n, fill), func(t *testing.T) {
					streamRoundTrip(t, c, 512, false, fill, randomSortedEntries(rng, c, n, "aligned"))
				})
			}
			t.Run(fmt.Sprintf("mat=%v/n=%d/packed", c.Materialized, n), func(t *testing.T) {
				streamRoundTrip(t, c, 512, true, 1, randomSortedEntries(rng, c, n, "aligned"))
			})
		}
	}
}

// TestReaderRejectsShortFile: a file too short for the count it is opened
// with is an error in both layouts — at open when no page of the layout
// could hold that many entries, else once the reader runs out of pages.
func TestReaderRejectsShortFile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []Codec{{SeriesLen: 12}, {SeriesLen: 12, Materialized: true}} {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("mat=%v/packed=%v", c.Materialized, packed), func(t *testing.T) {
				entries := randomSortedEntries(rng, c, 300, "clustered")
				l, err := NewLayout(c, 512, packed)
				if err != nil {
					t.Fatal(err)
				}
				d := newTestPageStore(512)
				if packed {
					writePacked(t, d, &l, "f", entries)
				} else {
					writeFixed(t, d, &l, 1, entries)
				}
				// A fixed-size file says nothing of its last page: only a count
				// its pages cannot hold is caught, and at open. Packed pages say
				// their counts, so one entry more is caught too.
				counts := []int64{d.numPages("f")*512/int64(c.Size()) + 1, 300 * 200}
				if packed {
					counts = append(counts, 301)
				}
				for _, count := range counts {
					r, err := l.NewReader(d.cursor("f"), d.numPages("f"), "f", count)
					atOpen := err != nil
					for i := int64(0); err == nil && i <= count; i++ {
						_, err = r.Next(nil)
					}
					if err == nil || err == io.EOF {
						t.Fatalf("packed=%v mat=%v: %d entries read from a file of 300", packed, c.Materialized, count)
					}
					if wantOpen := d.numPages("f")*int64(l.maxPerPage()) < count; atOpen != wantOpen {
						t.Fatalf("packed=%v mat=%v count %d: refused at open %v, want %v (%v)", packed, c.Materialized, count, atOpen, wantOpen, err)
					}
				}
			})
		}
	}
}

// TestPageChecksItsCount: a page opened with a count — a directory's, a
// summary's — must hold that many entries, and a page of a file written at
// full pages no more than the file has left. What it opens reads back every
// entry it was built from, in both layouts, materialized or not: the
// payload bytes verbatim, or nil without a payload.
func TestPageChecksItsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []Codec{{SeriesLen: 4}, {SeriesLen: 4, Materialized: true}} {
		entries := randomSortedEntries(rng, c, 5, "dense")
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("mat=%v/packed=%v", c.Materialized, packed), func(t *testing.T) {
				l, _ := NewLayout(c, 512, packed)
				page := make([]byte, 512)
				if fits, err := encodeAll(l.Builder(), page, entries); err != nil || !fits {
					t.Fatal(fits, err)
				}
				var pg PageView
				if err := l.Page(&pg, page, 5); err != nil || pg.Count() != 5 {
					t.Fatalf("%+v packed=%v: %+v %v", c, packed, pg, err)
				}
				for i, e := range entries {
					var pay []byte
					if c.Materialized {
						pay = e.Payload.AppendBinary(nil)
					}
					got := pg.PayloadBytes(i)
					if pg.Key(i) != e.Key || pg.ID(i) != e.ID || pg.TS(i) != e.TS || !bytes.Equal(got, pay) || (got == nil) != (pay == nil) {
						t.Fatalf("%+v packed=%v: entry %d reads back as %v %d %d %x", c, packed, i, pg.Key(i), pg.ID(i), pg.TS(i), got)
					}
				}
				got, err := pg.Entries()
				if err != nil || len(got) != 5 || got[2].ID != entries[2].ID {
					t.Fatalf("%+v packed=%v: entries %+v %v", c, packed, got, err)
				}
				for _, bad := range []int{0, 512} {
					if err := l.Page(&PageView{}, page, bad); err == nil {
						t.Fatalf("%+v packed=%v: a page of 5 entries opened as %d", c, packed, bad)
					}
				}
				if err := l.NextPage(&PageView{}, page, 0); err == nil {
					t.Fatalf("%+v packed=%v: a page opened past the file's count", c, packed)
				}
				if packed {
					if err := l.Page(&PageView{}, page, 4); err == nil || !strings.Contains(err.Error(), "directory says 4") {
						t.Fatalf("%+v: a packed page of 5 entries opened as 4: %v", c, err)
					}
					if err := l.NextPage(&PageView{}, page, 4); err == nil {
						t.Fatalf("%+v: a packed page of 5 entries opened with 4 left", c)
					}
				}
			})
		}
	}
}

// TestNewLayoutChecksTheFit: an entry that cannot fit a page is refused
// when the layout is built, not mid-write; a packed layout makes no writer.
func TestNewLayoutChecksTheFit(t *testing.T) {
	c := Codec{SeriesLen: 60, Materialized: true} // 512-byte entries
	if _, err := NewLayout(c, 512, false); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLayout(c, 511, false); err == nil {
		t.Fatal("a fixed-size layout of 512-byte entries on 511-byte pages")
	}
	if _, err := NewLayout(c, 512, true); err == nil {
		t.Fatal("a packed layout with no room for its header")
	}
	if l, err := NewLayout(c, 512, false); err != nil || l.StreamPages(0) != 1 || l.StreamPages(5) != 5 {
		t.Fatal("a fixed-size stream takes its caller's width")
	}
	if l, err := NewLayout(c, 1024, true); err != nil || l.StreamPages(5) != 16 {
		t.Fatal("a packed stream moves 16 pages")
	} else if w, err := l.Create(newTestPageStore(1024), "f", 1, 1); err == nil || w != nil {
		t.Fatal("a packed layout made a writer: packed files are read, not written")
	}
}
