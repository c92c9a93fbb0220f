package record

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// fixedPage renders entries as one page of fixed-size records, as many as
// the caller gives, the rest of the page zeroes.
func fixedPage(t testing.TB, c Codec, pageSize int, entries []Entry) []byte {
	t.Helper()
	page := make([]byte, 0, pageSize)
	for _, e := range entries {
		var err error
		if page, err = c.Append(page, e); err != nil {
			t.Fatal(err)
		}
	}
	if len(page) > pageSize {
		t.Fatalf("%d entries overflow a %d-byte page", len(entries), pageSize)
	}
	return page[:pageSize]
}

// streamRoundTrip writes entries into a file of the layout through the
// Writer at the given fill and checks where its pages closed — at the
// fill's record count — and that every page holds its entries' records
// and zeroes. A file of full pages is then read back through the layout's
// Reader.
func streamRoundTrip(t *testing.T, c Codec, pageSize int, fill float64, entries []Entry) {
	t.Helper()
	l, err := NewLayout(c, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	d := newTestPageStore(pageSize)
	starts := writeFixed(t, d, &l, fill, entries)
	file := d.files["f"]
	if len(file) != len(starts)*pageSize {
		t.Fatalf("%d bytes written, %d page starts reported", len(file), len(starts))
	}
	if fill <= 0 || fill > 1 {
		fill = 1
	}
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
		if last := p == len(starts)-1; !last && to-from != max(1, int(float64(pageSize/c.Size())*fill)) {
			t.Fatalf("page %d holds %d entries at fill %v", p, to-from, fill)
		}
		if !bytes.Equal(fixedPage(t, c, pageSize, entries[from:to]), page) {
			t.Fatalf("page %d: its %d entries encode to other bytes", p, to-from)
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

// writeFixed writes entries through a Writer of the layout at the given
// fill, and returns the entries that opened a page.
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

// TestWriterReaderRoundTrip: the writer writes files at full pages and with
// slack, and the reader reads those of full pages back: on 512-byte pages,
// and on 256-byte pages — two materialized entries to a page, so that fill
// 0.7 closes each page at one — with clustered keys and files of up to 5000
// entries, thousands of pages across hundreds of write-behind chunks.
func TestWriterReaderRoundTrip(t *testing.T) {
	for _, sh := range []struct {
		prefix   string
		pageSize int
		shape    string
		ns       []int
		seed     int64
	}{
		{"", 512, "aligned", []int{0, 1, 100, 700}, 5},
		{"page=256/", 256, "clustered", []int{0, 1, 100, 5000}, 21},
	} {
		rng := rand.New(rand.NewSource(sh.seed))
		for _, c := range []Codec{{SeriesLen: 12}, {SeriesLen: 12, Materialized: true}} {
			for _, n := range sh.ns {
				for _, fill := range []float64{1, 0.7, 0} {
					t.Run(fmt.Sprintf("%smat=%v/n=%d/fill=%v", sh.prefix, c.Materialized, n, fill), func(t *testing.T) {
						streamRoundTrip(t, c, sh.pageSize, fill, randomSortedEntries(rng, c, n, sh.shape))
					})
				}
			}
		}
	}
}

// appendRecorder is a testPageStore that records the size, in pages, of
// every append.
type appendRecorder struct {
	*testPageStore
	appends []int
}

func (a *appendRecorder) AppendPages(name string, data []byte) (int64, error) {
	a.appends = append(a.appends, len(data)/a.pageSize)
	return a.testPageStore.AppendPages(name, data)
}

// TestWriterChunkWidth: the write-behind width decides only how pages reach
// the disk — in appends of that many pages, the last of what is left — and
// never what the file holds, which is the same at every width.
func TestWriterChunkWidth(t *testing.T) {
	c := Codec{SeriesLen: 12}
	l, err := NewLayout(c, 512)
	if err != nil {
		t.Fatal(err)
	}
	entries := randomSortedEntries(rand.New(rand.NewSource(23)), c, 700, "aligned")
	var want []byte
	for _, width := range []int{1, 2, 3, 100} {
		t.Run(fmt.Sprintf("chunk=%d", width), func(t *testing.T) {
			d := &appendRecorder{testPageStore: newTestPageStore(512)}
			w, err := l.Create(d, "f", 0.7, width)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if _, err := w.Write(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			file, pages := d.files["f"], int(d.numPages("f"))
			if want == nil {
				want = file
			}
			if !bytes.Equal(file, want) {
				t.Fatalf("width %d wrote other bytes than width 1", width)
			}
			if n := (pages + width - 1) / width; len(d.appends) != n {
				t.Fatalf("%d pages in %d appends, want %d", pages, len(d.appends), n)
			}
			for i, n := range d.appends {
				if last := i == len(d.appends)-1; n != width && !(last && n >= 1 && n < width) {
					t.Fatalf("append %d of %d: %d pages at width %d", i, len(d.appends), n, width)
				}
			}
		})
	}
}

// TestReaderRejectsShortFile: a file too short for the count it is opened
// with — more entries than its pages hold — is refused when the reader is
// made. A page says nothing of its count, so only a count its pages cannot
// hold is caught.
func TestReaderRejectsShortFile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []Codec{{SeriesLen: 12}, {SeriesLen: 12, Materialized: true}} {
		t.Run(fmt.Sprintf("mat=%v", c.Materialized), func(t *testing.T) {
			entries := randomSortedEntries(rng, c, 300, "clustered")
			l, err := NewLayout(c, 512)
			if err != nil {
				t.Fatal(err)
			}
			d := newTestPageStore(512)
			writeFixed(t, d, &l, 1, entries)
			for _, count := range []int64{d.numPages("f")*512/int64(c.Size()) + 1, 300 * 200} {
				if _, err := l.NewReader(d.cursor("f"), d.numPages("f"), "f", count); err == nil {
					t.Fatalf("mat=%v: a reader of %d entries over a file of 300", c.Materialized, count)
				}
			}
		})
	}
}

// TestPageChecksItsCount: a page opened with a count — a directory's, a
// summary's — must have room for that many entries, and a page of a file
// written at full pages holds what the file has left, up to a page. What it
// opens reads back every entry it was built from, materialized or not: the
// payload bytes verbatim, or nil without a payload.
func TestPageChecksItsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []Codec{{SeriesLen: 4}, {SeriesLen: 4, Materialized: true}} {
		entries := randomSortedEntries(rng, c, 5, "dense")
		t.Run(fmt.Sprintf("mat=%v", c.Materialized), func(t *testing.T) {
			l, _ := NewLayout(c, 512)
			page := fixedPage(t, c, 512, entries)
			var pg PageView
			if err := l.Page(&pg, page, 5); err != nil || pg.Count() != 5 {
				t.Fatalf("%+v: %+v %v", c, pg, err)
			}
			for i, e := range entries {
				var pay []byte
				if c.Materialized {
					pay = e.Payload.AppendBinary(nil)
				}
				got := pg.PayloadBytes(i)
				if pg.Key(i) != e.Key || pg.ID(i) != e.ID || pg.TS(i) != e.TS || !bytes.Equal(got, pay) || (got == nil) != (pay == nil) {
					t.Fatalf("%+v: entry %d reads back as %v %d %d %x", c, i, pg.Key(i), pg.ID(i), pg.TS(i), got)
				}
			}
			got, err := pg.Entries()
			if err != nil || len(got) != 5 || got[2].ID != entries[2].ID {
				t.Fatalf("%+v: entries %+v %v", c, got, err)
			}
			for _, bad := range []int{0, 512} {
				if err := l.Page(&PageView{}, page, bad); err == nil {
					t.Fatalf("%+v: a page opened as %d entries", c, bad)
				}
			}
			if err := l.Page(&PageView{}, page[:511], 5); err == nil {
				t.Fatalf("%+v: a short page opened", c)
			}
			if err := l.NextPage(&PageView{}, page, 0); err == nil {
				t.Fatalf("%+v: a page opened past the file's count", c)
			}
			if err := l.NextPage(&pg, page, 3); err != nil || pg.Count() != 3 {
				t.Fatalf("%+v: a page with 3 entries left opened as %d: %v", c, pg.Count(), err)
			}
		})
	}
}

// TestNewLayoutChecksTheFit: an entry that cannot fit a page is refused
// when the layout is built, not mid-write.
func TestNewLayoutChecksTheFit(t *testing.T) {
	c := Codec{SeriesLen: 60, Materialized: true} // 512-byte entries
	if _, err := NewLayout(c, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLayout(c, 511); err == nil {
		t.Fatal("a layout of 512-byte entries on 511-byte pages")
	}
}
