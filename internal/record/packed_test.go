package record

import (
	"fmt"
	"math/rand"
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

func packEntries(t testing.TB, c Codec, pageSize int, entries []Entry) ([]byte, int) {
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

// checkPackedPage opens page as a packed page and holds its columns to
// want's keys, IDs and timestamps.
func checkPackedPage(t testing.TB, c Codec, page []byte, want []Entry) {
	t.Helper()
	v, err := c.ViewPacked(page)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != len(want) {
		t.Fatalf("count = %d, want %d", v.Count(), len(want))
	}
	if len(want) > 0 && v.Key(0) != want[0].Key {
		t.Fatalf("first key = %v, want %v", v.Key(0), want[0].Key)
	}
	for i, e := range want {
		if v.Key(i) != e.Key || v.ID(i) != e.ID || v.TS(i) != e.TS {
			t.Fatalf("entry %d = %v %d %d, want %+v", i, v.Key(i), v.ID(i), v.TS(i), e)
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
			_, _, _ = v.Key(i), v.ID(i), v.TS(i)
		}
	}
}

func TestPackedFits(t *testing.T) {
	if !packedFits(Codec{SeriesLen: 64, Materialized: true}, 4096) {
		t.Fatal("materialized len-64 should fit a 4 KiB page")
	}
	if packedFits(Codec{SeriesLen: 1024, Materialized: true}, 4096) {
		t.Fatal("an 8 KiB payload cannot fit a 4 KiB page")
	}
	if !packedFits(Codec{SeriesLen: 1024}, 4096) {
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

// fuzzCodec is the codec FuzzViewPacked opens pages under: entries of 16
// points, materialized or not.
func fuzzCodec(materialized bool) Codec { return Codec{SeriesLen: 16, Materialized: materialized} }

// FuzzViewPacked feeds Codec.ViewPacked arbitrary page bytes, seeded with
// pages PageBuilder.Encode wrote for real entries, which must decode to
// them. It must never panic; on a page it accepts, every column accessor
// stays in bounds for every entry below Count(), and the keys, IDs and
// timestamps it reads, packed again by a builder (with zero payloads) when
// they fit a page of the same size, read back the same.
func FuzzViewPacked(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for _, seed := range []struct {
		materialized bool
		n, pageSize  int
		shape        string
	}{{false, 200, 4096, "aligned"}, {true, 5, 1024, "dense"}, {false, 40, 512, "clustered"}, {true, 1, 256, "aligned"}} {
		c := fuzzCodec(seed.materialized)
		entries := randomSortedEntries(rng, c, seed.n, seed.shape)
		page, added := packEntries(f, c, seed.pageSize, entries)
		checkPackedPage(f, c, page, entries[:added])
		f.Add(page, seed.materialized)
	}
	f.Fuzz(func(t *testing.T, page []byte, materialized bool) {
		c := fuzzCodec(materialized)
		v, err := c.ViewPacked(page)
		if err != nil {
			return
		}
		entries := make([]Entry, v.Count())
		for i := range entries {
			entries[i] = Entry{Key: v.Key(i), ID: v.ID(i), TS: v.TS(i)}
			if materialized {
				entries[i].Payload = make(series.Series, c.SeriesLen)
			}
		}
		b, err := NewPageBuilder(c, len(page))
		if err != nil || len(entries) == 0 {
			return
		}
		for _, e := range entries {
			if ok, err := b.TryAdd(e); err != nil || !ok {
				return // out of key order (a key past the top wraps) or too many
			}
		}
		again := make([]byte, len(page))
		if _, err := b.Encode(again); err != nil {
			t.Fatal(err)
		}
		checkPackedPage(t, c, again, entries)
	})
}

// BenchmarkPageViews times what reading an entry's key, ID and timestamp
// off a stored page costs in each layout: opening the page (Layout.Page, or
// ViewPacked) and reading the three columns of every entry, per entry. The
// pages are 4 KB of sorted key-only entries (128 fixed-size, more packed)
// and of materialized entries of 128 points (3 fixed-size).
func BenchmarkPageViews(b *testing.B) {
	const pageSize = 4096
	rng := rand.New(rand.NewSource(47))
	var sink int64
	for _, c := range []Codec{{SeriesLen: 128}, {SeriesLen: 128, Materialized: true}} {
		l, err := NewLayout(c, pageSize)
		if err != nil {
			b.Fatal(err)
		}
		entries := randomSortedEntries(rng, c, pageSize/c.Size()*8, "aligned")
		fixed := make([]byte, 0, pageSize)
		for _, e := range entries[:l.perPage] {
			if fixed, err = c.Append(fixed, e); err != nil {
				b.Fatal(err)
			}
		}
		fixed = fixed[:pageSize]
		packed, packedN := packEntries(b, c, pageSize, entries)
		b.Run(fmt.Sprintf("fixed/mat=%v", c.Materialized), func(b *testing.B) {
			var pg PageView
			for i := 0; i < b.N; i++ {
				if err := l.Page(&pg, fixed, l.perPage); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < pg.Count(); j++ {
					sink += int64(pg.Key(j).Lo&1) + pg.ID(j)&1 + pg.TS(j)&1
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l.perPage), "ns/entry")
		})
		b.Run(fmt.Sprintf("packed/mat=%v", c.Materialized), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := c.ViewPacked(packed)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < v.Count(); j++ {
					sink += int64(v.Key(j).Lo&1) + v.ID(j)&1 + v.TS(j)&1
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*packedN), "ns/entry")
		})
	}
	benchSink = sink
}

var benchSink int64
