package ctree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/storage"
)

// checkSummaries holds the tree's leaf summary to its leaf pages: the
// invariant every summary keeps (run.Store.Verify) — columns, leaf and group
// envelopes and page map are what the pages hold, the fence keys ascend, the
// groups tile the leaves.
func checkSummaries(t *Tree) error { return t.store.Verify(t.leaves) }

// leafReads is a storage.Tracer counting the reads of a tree's leaf file.
type leafReads struct{ n int }

func (l *leafReads) Access(file string, _ int64, write bool) {
	if file == "ctree.leaves" && !write {
		l.n++
	}
}

// summaryShapes are the builds the invariant is held on: both layouts,
// materialized or not, packed to the brim or with insert slack. The pages
// are small, so that 1500 series make enough leaves for several groups: a
// materialized leaf holds three entries, like the benchmark's.
var summaryShapes = []struct {
	name         string
	materialized bool
	compress     bool
	fill         float64
	pageSize     int
}{
	{"fixed", false, false, 1.0, 256},
	{"fixed-slack", false, false, 0.6, 256},
	{"fixed-full", true, false, 1.0, 2048},
	{"packed", false, true, 1.0, 256},
	{"packed-slack", true, true, 0.7, 2048},
}

func buildShape(t *testing.T, ds *series.Dataset, materialized, compress bool, fill float64, pageSize int) *Tree {
	t.Helper()
	tr, err := Build(Options{
		Disk: storage.NewDisk(pageSize), Config: testConfig(materialized), FillFactor: fill,
		Raw: normStore{ds}, Compress: compress,
	}, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSummariesFollowTheTree holds checkSummaries after a bulk load, while a
// few thousand random inserts split leaves and groups, and across a
// Save/Open round trip of the grown tree (meta v5: the summary is decoded,
// not rebuilt) — and the reopened tree keeps maintaining it.
func TestSummariesFollowTheTree(t *testing.T) {
	for _, sh := range summaryShapes {
		t.Run(sh.name, func(t *testing.T) {
			ds := buildDataset(t, 1500, 71)
			tr := buildShape(t, ds, sh.materialized, sh.compress, sh.fill, sh.pageSize)
			if err := checkSummaries(tr); err != nil {
				t.Fatalf("after build: %v", err)
			}
			leaves, groups := tr.Leaves(), tr.leaves.Sum.Groups()
			rng := rand.New(rand.NewSource(72))
			raw := tr.opts.Raw.(normStore)
			insert := func(tr *Tree, n int) {
				for i := 0; i < n; i++ {
					s := gen.RandomWalk(rng, 64)
					raw.d.Append(s) // IDs are assigned in raw-store order
					if err := tr.Insert(s, int64(i)); err != nil {
						t.Fatal(err)
					}
					if i%97 == 0 {
						if err := checkSummaries(tr); err != nil {
							t.Fatalf("after %d inserts: %v", i+1, err)
						}
					}
				}
			}
			insert(tr, 3000)
			if err := checkSummaries(tr); err != nil {
				t.Fatalf("after inserts: %v", err)
			}
			if tr.Leaves() <= leaves || tr.leaves.Sum.Groups() <= groups {
				t.Fatalf("test needs leaf and group splits: leaves %d -> %d, groups %d -> %d",
					leaves, tr.Leaves(), groups, tr.leaves.Sum.Groups())
			}
			if err := tr.Save(); err != nil {
				t.Fatal(err)
			}
			reads := &leafReads{}
			tr.opts.Disk.(*storage.Disk).SetTracer(reads)
			got, err := Open(Options{Disk: tr.opts.Disk, Name: "ctree", Raw: raw})
			if err != nil {
				t.Fatal(err)
			}
			tr.opts.Disk.(*storage.Disk).SetTracer(nil)
			if reads.n != 0 {
				t.Fatalf("opening v%d metadata read %d leaf pages: the summary was rebuilt, not decoded", metaVersion, reads.n)
			}
			if err := checkSummaries(got); err != nil {
				t.Fatalf("after Save/Open: %v", err)
			}
			insert(got, 300)
			if err := checkSummaries(got); err != nil {
				t.Fatalf("after inserts into the reopened tree: %v", err)
			}
		})
	}
}

// TestSummariesOfATreeGrownFromNothing: the first insert into an empty tree
// creates leaf, columns and group together.
func TestSummariesOfATreeGrownFromNothing(t *testing.T) {
	for _, compress := range []bool{false, true} {
		ds := series.NewDataset(64)
		tr := buildShape(t, ds, true, compress, 1.0, 2048)
		rng := rand.New(rand.NewSource(73))
		for i := 0; i < 400; i++ {
			if err := tr.Insert(gen.RandomWalk(rng, 64), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkSummaries(tr); err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
	}
}

// The committed fixtures under testdata/ are whole disk snapshots (512-byte
// pages: leaf file and metadata) written by the code as it stood at meta v3,
// before the column existed, and at meta v4, before the summary was one
// type — the v2 one is a v3 file with its version lowered and its packed
// flag dropped, which is all v3 added: 300 non-materialized series
// (buildDataset seed 701) bulk-loaded at timestamp 0, then 40 inserted
// (seed 702) at timestamp 5, enough to split leaves, so the page map is not
// the identity. Open must rebuild the whole summary — timestamp column
// included, which no version before 5 stored — from the leaf pages.
func TestOpenOlderMetaRebuildsSummaries(t *testing.T) {
	for _, fx := range []struct {
		file    string
		version uint32
		packed  bool
	}{
		{"meta_v2_fixed.ccnut", 2, false},
		{"meta_v3_fixed.ccnut", 3, false},
		{"meta_v3_packed.ccnut", 3, true},
	} {
		t.Run(fx.file, func(t *testing.T) {
			disk, err := storage.LoadDiskFile(nil, filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			meta := make([]byte, disk.PageSize())
			if _, err := disk.ReadPage("ctree.meta", 0, meta); err != nil {
				t.Fatal(err)
			}
			if v := uint32(meta[len(metaMagic)]); v != fx.version {
				t.Fatalf("fixture is meta v%d, want v%d", v, fx.version)
			}
			ds := buildDataset(t, 300, 701)
			rng := rand.New(rand.NewSource(702))
			for i := 0; i < 40; i++ {
				ds.Append(gen.RandomWalk(rng, 64))
			}
			tr, err := Open(Options{Disk: disk, Name: "ctree", Raw: normStore{ds}})
			if err != nil {
				t.Fatal(err)
			}
			if tr.leaves.Packed != fx.packed || tr.Count() != 340 || !splitMap(tr) {
				t.Fatalf("opened packed=%v count=%d split page map=%v", tr.leaves.Packed, tr.Count(), splitMap(tr))
			}
			if err := checkSummaries(tr); err != nil {
				t.Fatal(err)
			}
			// The rebuilt tree answers exactly, takes inserts, and saves as
			// the current version.
			for i := 0; i < 5; i++ {
				s := gen.RandomWalk(rng, 64)
				got, err := tr.ExactSearch(index.NewQuery(s, tr.Config()), 5)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteKNN(s, ds, 5)
				for j := range want {
					if got[j].ID != want[j].ID {
						t.Fatalf("query %d result %d: %+v, brute force %+v", i, j, got[j], want[j])
					}
				}
			}
			for i := 0; i < 200; i++ {
				s := gen.RandomWalk(rng, 64)
				ds.Append(s)
				if err := tr.Insert(s, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := checkSummaries(tr); err != nil {
				t.Fatalf("after inserts: %v", err)
			}
			if err := tr.Save(); err != nil {
				t.Fatal(err)
			}
			again, err := Open(Options{Disk: disk, Name: "ctree", Raw: normStore{ds}})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSummaries(again); err != nil {
				t.Fatalf("after re-save as v%d: %v", metaVersion, err)
			}
		})
	}
}

// FuzzDecodeMetaV4 feeds arbitrary bytes to the metadata decoder, as version
// 4 or 5, over a disk that holds an empty leaf file: it must fail cleanly or
// yield a tree whose leaf summary is shaped for its count — never panic,
// never size an allocation from a count the payload does not back, never
// keep a symbol beyond the cardinality. (It keeps the name of the version it
// was written for.) A v4 payload cannot yield a tree here: its summary is
// rebuilt from leaf pages the disk does not have. A v5 one yields a summary
// whose encoding (run.Summary.AppendBinary, parsed here by its documented
// layout) has at least one entry a page, the tree's count in all and no
// symbol beyond the cardinality, and which decodes to the same encoding
// again. The committed corpus (testdata/fuzz/FuzzDecodeMetaV4) holds the v4
// payloads of a fixed and a packed tree (40 series, 8 segments of 6 bits)
// and, of each, truncations at the column and in the directory, a symbol
// beyond the cardinality in the column and in a leaf envelope, and an
// inflated leaf count; and (v5-*) the v5 payloads of such trees and, of
// each, truncations inside the SAX column and inside the timestamp column, a
// timestamp column one entry short, a symbol beyond the cardinality in the
// column and in a leaf envelope, and an inflated page count.
func FuzzDecodeMetaV4(f *testing.F) {
	disk := storage.NewDisk(1024)
	if err := disk.Create("ctree.leaves"); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, v5 bool, payload []byte) {
		version := uint32(4)
		if v5 {
			version = 5
		}
		tr, err := decodeMeta(Options{Disk: disk, Name: "ctree"}, payload, version)
		if err != nil {
			return
		}
		if !v5 {
			t.Fatalf("a v4 payload opened without its leaf pages")
		}
		meta := tr.encodeMeta()
		synLen := int(binary.LittleEndian.Uint32(meta[45:]))
		sum := meta[45+4+synLen+1:]
		w, bits, count := tr.opts.Config.Segments, tr.opts.Config.Bits, tr.Count()
		pages := int(binary.LittleEndian.Uint32(sum))
		if pages != tr.Leaves() {
			t.Fatalf("summary of %d pages encodes %d", tr.Leaves(), pages)
		}
		var total int64
		for p := 0; p < pages; p++ {
			n := int(binary.LittleEndian.Uint32(sum[4+12*p:]))
			if n < 1 || n != tr.leaves.Sum.Entries(p) {
				t.Fatalf("page %d encodes %d entries, the summary holds %d", p, n, tr.leaves.Sum.Entries(p))
			}
			total += int64(n)
			tr.leaves.Sum.FirstKey(p)
		}
		syms := sum[4+12*pages:]
		if total != count || int64(len(syms)) != int64(2*pages*w)+count*int64(w+8) || !index.SymbolsBelow(syms[:2*pages*w+int(count)*w], bits) {
			t.Fatalf("summary of %d entries in %d pages is %d bytes of envelopes and columns, or holds a symbol beyond %d bits", total, pages, len(syms), bits)
		}
		again, err := decodeMeta(Options{Disk: disk, Name: "ctree"}, meta, metaVersion)
		if err != nil || !bytes.Equal(again.encodeMeta(), meta) {
			t.Fatalf("re-encoded metadata does not decode to itself: %v", err)
		}
	})
}
