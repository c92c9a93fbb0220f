package record

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/series"
	"repro/internal/sortable"
)

// randomSortedEntries builds n key-sorted entries with the given key shape:
// "dense" draws full-width random keys, "aligned" left-aligned keys with a
// common shift (the shape real iSAX interleavings produce), "clustered"
// keys sharing high bits so deltas stay narrow.
func randomSortedEntries(rng *rand.Rand, c Codec, n int, shape string) []Entry {
	out := make([]Entry, n)
	baseID := rng.Int63n(1 << 40)
	baseTS := rng.Int63n(1 << 40)
	for i := range out {
		var k sortable.Key
		switch shape {
		case "aligned":
			k = sortable.Key{Hi: rng.Uint64() << 32}
		case "clustered":
			k = sortable.Key{Hi: 0xABCD<<48 | rng.Uint64()&0xFFFF, Lo: rng.Uint64() & 0xFF}
		default:
			k = sortable.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
		}
		out[i] = Entry{Key: k, ID: baseID + rng.Int63n(1000), TS: baseTS + rng.Int63n(1000)}
		if c.Materialized {
			s := make(series.Series, c.SeriesLen)
			for j := range s {
				s[j] = rng.NormFloat64()
			}
			out[i].Payload = s
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return out
}

func packEntries(t *testing.T, c Codec, pageSize int, entries []Entry) ([]byte, int) {
	t.Helper()
	b, err := NewPageBuilder(c, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	added := 0
	for _, e := range entries {
		ok, err := b.TryAdd(e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		added++
	}
	page := make([]byte, pageSize)
	if _, err := b.Encode(page); err != nil {
		t.Fatal(err)
	}
	return page, added
}

func checkPackedPage(t *testing.T, c Codec, page []byte, want []Entry) {
	t.Helper()
	v, err := c.ViewPacked(page)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != len(want) {
		t.Fatalf("count = %d, want %d", v.Count(), len(want))
	}
	if len(want) > 0 && v.FirstKey() != want[0].Key {
		t.Fatalf("first key = %v, want %v", v.FirstKey(), want[0].Key)
	}
	if PackedFirstKey(page) != v.FirstKey() || PackedCount(page) != v.Count() {
		t.Fatal("header accessors disagree with view")
	}
	for i, e := range want {
		got, err := v.Entry(i, c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != e.Key || got.ID != e.ID || got.TS != e.TS {
			t.Fatalf("entry %d = %+v, want %+v", i, got, e)
		}
		if c.Materialized && !slices.Equal(got.Payload, e.Payload) {
			t.Fatalf("entry %d payload mismatch", i)
		}
	}
}

func TestPackedPageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []Codec{{SeriesLen: 16}, {SeriesLen: 16, Materialized: true}} {
		for _, shape := range []string{"dense", "aligned", "clustered"} {
			for _, n := range []int{1, 2, 3, 17, 200} {
				entries := randomSortedEntries(rng, c, n, shape)
				page, added := packEntries(t, c, 4096, entries)
				if added == 0 {
					t.Fatalf("%s/%d: nothing packed", shape, n)
				}
				if !IsPacked(page) {
					t.Fatal("IsPacked = false on packed page")
				}
				checkPackedPage(t, c, page, entries[:added])
			}
		}
	}
}

func TestPackedPageDuplicateAndExtremeKeys(t *testing.T) {
	c := Codec{SeriesLen: 4}
	k := sortable.Key{Hi: ^uint64(0), Lo: ^uint64(0)}
	entries := []Entry{
		{Key: sortable.Key{}, ID: 0, TS: 0},
		{Key: sortable.Key{}, ID: 1, TS: 1},
		{Key: k, ID: 2, TS: 1 << 62},
		{Key: k, ID: 1 << 62, TS: 2},
	}
	page, added := packEntries(t, c, 4096, entries)
	if added != len(entries) {
		t.Fatalf("added %d, want %d", added, len(entries))
	}
	checkPackedPage(t, c, page, entries)
}

func TestPackedRejectsOutOfOrder(t *testing.T) {
	c := Codec{SeriesLen: 4}
	b, err := NewPageBuilder(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := b.TryAdd(Entry{Key: sortable.Key{Hi: 10}}); err != nil || !ok {
		t.Fatalf("first add: ok=%v err=%v", ok, err)
	}
	if ok, err := b.TryAdd(Entry{Key: sortable.Key{Hi: 5}}); err != nil || ok {
		t.Fatalf("out-of-key-order add should be rejected, got ok=%v err=%v", ok, err)
	}
}

func TestPackedBuilderFillsUntilPageFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Codec{SeriesLen: 8, Materialized: true}
	entries := randomSortedEntries(rng, c, 4096, "dense")
	page, added := packEntries(t, c, 4096, entries)
	if added == len(entries) {
		t.Fatal("expected the page to fill before 4096 materialized entries")
	}
	checkPackedPage(t, c, page, entries[:added])
	// A packed page must beat or match the fixed layout's entry count.
	if fixed := 4096 / c.Size(); added < fixed {
		t.Fatalf("packed page holds %d entries, fixed layout holds %d", added, fixed)
	}
}

// TestPackedViewRejectsCorruptPages drives ViewPacked across corrupted
// headers: decode must fail cleanly, never panic or read out of bounds.
func TestPackedViewRejectsCorruptPages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := Codec{SeriesLen: 8, Materialized: true}
	entries := randomSortedEntries(rng, c, 40, "dense")
	page, added := packEntries(t, c, 4096, entries)
	if added != 40 {
		t.Fatalf("added %d", added)
	}

	check := func(name string, mutate func(p []byte)) {
		p := append([]byte(nil), page...)
		mutate(p)
		if _, err := c.ViewPacked(p); err == nil {
			t.Errorf("%s: ViewPacked accepted a corrupt page", name)
		}
	}
	check("magic", func(p []byte) { p[0] = 0 })
	check("version", func(p []byte) { p[2] = 99 })
	check("materialized flag", func(p []byte) { p[3] &^= 1 })
	check("key width", func(p []byte) { p[6] = 200 })
	check("id width", func(p []byte) { p[8] = 65 })
	check("count overflow", func(p []byte) { p[4] = 0xFF; p[5] = 0x7F })
	check("truncated", func(p []byte) {
		// Count says 50 but the page is all zeros past the header.
		for i := PackedHeaderBytes; i < len(p); i++ {
			p[i] = 0
		}
		p[4] = 0xFF
		p[5] = 0x7F
	})

	// Random header bytes must never panic.
	for trial := 0; trial < 2000; trial++ {
		p := append([]byte(nil), page...)
		for i := 0; i < 8; i++ {
			p[rng.Intn(PackedHeaderBytes)] = byte(rng.Intn(256))
		}
		v, err := c.ViewPacked(p)
		if err != nil {
			continue
		}
		for i := 0; i < v.Count(); i++ {
			_, _ = v.Entry(i, c)
		}
	}
}

func TestPackedWriterReaderStream(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range []Codec{{SeriesLen: 12}, {SeriesLen: 12, Materialized: true}} {
		for _, n := range []int{0, 1, 100, 5000} {
			d := newTestPageStore(256)
			entries := randomSortedEntries(rng, c, n, "clustered")
			w, err := NewPackedWriter(d, "runfile", c)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if err := w.WriteEntry(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w.Count() != int64(n) {
				t.Fatalf("writer count %d, want %d", w.Count(), n)
			}

			r := NewPackedReader(d.cursor("runfile"), d.numPages("runfile"), "runfile", c, int64(n))
			for i, want := range entries {
				got, err := r.NextEntry()
				if err != nil {
					t.Fatalf("entry %d: %v", i, err)
				}
				if got.Key != want.Key || got.ID != want.ID || got.TS != want.TS {
					t.Fatalf("entry %d = %+v, want %+v", i, got, want)
				}
				if c.Materialized && !slices.Equal(got.Payload, want.Payload) {
					t.Fatalf("entry %d payload mismatch", i)
				}
			}
			if _, err := r.NextEntry(); err == nil {
				t.Fatal("reader did not end after count entries")
			}
		}
	}
}

func TestPackedFits(t *testing.T) {
	if !PackedFits(Codec{SeriesLen: 64, Materialized: true}, 4096) {
		t.Fatal("materialized len-64 should fit a 4 KiB page")
	}
	if PackedFits(Codec{SeriesLen: 1024, Materialized: true}, 4096) {
		t.Fatal("an 8 KiB payload cannot fit a 4 KiB page")
	}
	if !PackedFits(Codec{SeriesLen: 1024}, 4096) {
		t.Fatal("non-materialized entries are payload-free and must fit")
	}
}

// testPageStore is a minimal in-memory PageAppender whose files can be
// read back through a PageCursor.
type testPageStore struct {
	pageSize int
	files    map[string][]byte
}

func newTestPageStore(pageSize int) *testPageStore {
	return &testPageStore{pageSize: pageSize, files: map[string][]byte{}}
}

func (s *testPageStore) PageSize() int { return s.pageSize }

func (s *testPageStore) Create(name string) error {
	s.files[name] = nil
	return nil
}

func (s *testPageStore) AppendPages(name string, data []byte) (int64, error) {
	first := int64(len(s.files[name]) / s.pageSize)
	s.files[name] = append(s.files[name], data...)
	return first, nil
}

func (s *testPageStore) numPages(name string) int64 {
	return int64(len(s.files[name]) / s.pageSize)
}

// testCursor serves the pages of one file of a testPageStore.
type testCursor struct {
	data     []byte
	pageSize int
}

func (s *testPageStore) cursor(name string) testCursor {
	return testCursor{data: s.files[name], pageSize: s.pageSize}
}

func (c testCursor) Pin(page int64) ([]byte, error) {
	return c.data[page*int64(c.pageSize) : (page+1)*int64(c.pageSize)], nil
}
