package ctree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/storage"
)

// checkSummaries is the invariant of the resident summaries, checked
// against the leaf pages themselves: the groups tile the directory, each
// holding fewer than 2*groupLeaves leaves; the SAX column equals the
// symbols of the entries decoded from the pages in directory order; each
// leaf's envelope is exactly its entries' symbol range; and each group's
// envelope is exactly the union of its leaves' envelopes.
func checkSummaries(t *Tree) error {
	w, bits := t.opts.Config.Segments, t.opts.Config.Bits
	groups := len(t.grpStart) - 1
	if groups < 0 || t.grpStart[0] != 0 || t.grpStart[groups] != len(t.leaves) || len(t.col) != groups {
		return fmt.Errorf("groups %v (%d column groups) do not tile %d leaves", t.grpStart, len(t.col), len(t.leaves))
	}
	if t.envOK && (len(t.grpMin) != groups*w || len(t.grpMax) != groups*w || len(t.synMin) != len(t.leaves)*w || len(t.synMax) != len(t.leaves)*w) {
		return fmt.Errorf("%d/%d group and %d/%d leaf envelope bytes for %d groups of %d leaves",
			len(t.grpMin), len(t.grpMax), len(t.synMin), len(t.synMax), groups, len(t.leaves))
	}
	buf := make([]byte, t.opts.Disk.PageSize())
	var total int64
	for g := 0; g < groups; g++ {
		lo, hi := t.grpStart[g], t.grpStart[g+1]
		if hi <= lo || hi-lo >= 2*groupLeaves || len(t.col[g]) != hi-lo {
			return fmt.Errorf("group %d holds leaves [%d, %d) and %d column slices", g, lo, hi, len(t.col[g]))
		}
		gmn, gmx := bytes.Repeat([]byte{255}, w), make([]uint8, w)
		for li := lo; li < hi; li++ {
			if got := t.groupOf(li); got != g {
				return fmt.Errorf("groupOf(%d) = %d, want %d", li, got, g)
			}
			entries, err := t.readLeafBuf(li, buf)
			if err != nil {
				return err
			}
			if len(entries) != t.leaves[li].count {
				return fmt.Errorf("leaf %d: page holds %d entries, directory says %d", li, len(entries), t.leaves[li].count)
			}
			total += int64(len(entries))
			var want []uint8
			mn, mx := bytes.Repeat([]byte{255}, w), make([]uint8, w)
			for _, e := range entries {
				syms := sortable.Symbols(e.Key, w, bits)
				want = append(want, syms[:w]...)
				widenEnv(mn, mx, syms[:w])
			}
			if got := t.leafSyms(g, li); !bytes.Equal(got, want) {
				return fmt.Errorf("leaf %d: column %v, page symbols %v", li, got, want)
			}
			if !t.envOK {
				continue
			}
			if lmn, lmx := t.leafEnv(li); !bytes.Equal(lmn, mn) || !bytes.Equal(lmx, mx) {
				return fmt.Errorf("leaf %d: envelope [%v, %v], entries span [%v, %v]", li, lmn, lmx, mn, mx)
			}
			widenEnv(gmn, gmx, mn)
			widenEnv(gmn, gmx, mx)
		}
		if !t.envOK {
			continue
		}
		if mn, mx := t.groupEnv(g); !bytes.Equal(mn, gmn) || !bytes.Equal(mx, gmx) {
			return fmt.Errorf("group %d: envelope [%v, %v], leaves span [%v, %v]", g, mn, mx, gmn, gmx)
		}
	}
	if total != t.count {
		return fmt.Errorf("leaves hold %d entries, tree says %d", total, t.count)
	}
	return nil
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
// Save/Open round trip of the grown tree (meta v4: the column is decoded,
// not rebuilt) — and the reopened tree keeps maintaining them.
func TestSummariesFollowTheTree(t *testing.T) {
	for _, sh := range summaryShapes {
		t.Run(sh.name, func(t *testing.T) {
			ds := buildDataset(t, 1500, 71)
			tr := buildShape(t, ds, sh.materialized, sh.compress, sh.fill, sh.pageSize)
			if err := checkSummaries(tr); err != nil {
				t.Fatalf("after build: %v", err)
			}
			leaves, groups := tr.Leaves(), len(tr.grpStart)-1
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
			if tr.Leaves() <= leaves || len(tr.grpStart)-1 <= groups {
				t.Fatalf("test needs leaf and group splits: leaves %d -> %d, groups %d -> %d",
					leaves, tr.Leaves(), groups, len(tr.grpStart)-1)
			}
			if err := tr.Save(); err != nil {
				t.Fatal(err)
			}
			before := tr.opts.Disk.Stats()
			got, err := Open(tr.opts.Disk, "ctree", raw)
			if err != nil {
				t.Fatal(err)
			}
			after := tr.opts.Disk.Stats()
			if reads := after.SeqReads + after.RandReads - before.SeqReads - before.RandReads; reads >= int64(tr.Leaves()) {
				t.Fatalf("opening v%d metadata read %d pages of a %d-leaf tree: the column was rebuilt, not decoded", metaVersion, reads, tr.Leaves())
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
// creates leaf, column slice and group together.
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
// before the column existed — the v2 one is a v3 file with its version
// lowered and its packed flag dropped, which is all v3 added: 300
// non-materialized series (buildDataset seed 701) bulk-loaded, then 40
// inserted (seed 702), enough to split leaves, so the page map is not the
// identity. Open must rebuild the column from the leaf pages and derive the
// groups.
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
			tr, err := Open(disk, "ctree", normStore{ds})
			if err != nil {
				t.Fatal(err)
			}
			if tr.packed != fx.packed || tr.Count() != 340 || !tr.envOK || tr.pageOf == nil {
				t.Fatalf("opened packed=%v count=%d envOK=%v pageOf=%v", tr.packed, tr.Count(), tr.envOK, tr.pageOf)
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
			again, err := Open(disk, "ctree", normStore{ds})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSummaries(again); err != nil {
				t.Fatalf("after re-save as v%d: %v", metaVersion, err)
			}
		})
	}
}

// FuzzDecodeMetaV4 feeds arbitrary bytes to the v4 metadata decoder over a
// disk that holds a leaf file: it must fail cleanly or yield a tree whose
// resident summaries are shaped for its directory — never panic, never size
// an allocation from a count the payload does not back. The committed
// corpus (testdata/fuzz/FuzzDecodeMetaV4) holds the payloads of a fixed and
// a packed tree (40 series, 8 segments of 6 bits) and, of each, truncations
// at the column and in the directory, a symbol beyond the cardinality in the
// column and in a leaf envelope, and an inflated leaf count.
func FuzzDecodeMetaV4(f *testing.F) {
	disk := storage.NewDisk(1024)
	if err := disk.Create("ctree.leaves"); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		tr, err := decodeMeta(disk, "ctree", payload, nil, 4)
		if err != nil {
			return
		}
		w, bits := tr.opts.Config.Segments, tr.opts.Config.Bits
		if tr.grpStart[len(tr.grpStart)-1] != len(tr.leaves) || len(tr.col) != len(tr.grpStart)-1 {
			t.Fatalf("groups %v (%d column groups) over %d leaves", tr.grpStart, len(tr.col), len(tr.leaves))
		}
		for li, l := range tr.leaves {
			if syms := tr.leafSyms(tr.groupOf(li), li); len(syms) != l.count*w || !symbolsBelow(syms, bits) {
				t.Fatalf("leaf %d: column %v for %d entries of %d segments, %d bits", li, syms, l.count, w, bits)
			}
		}
		if !symbolsBelow(tr.synMin, bits) || !symbolsBelow(tr.synMax, bits) {
			t.Fatalf("decoded a leaf envelope symbol beyond %d bits", bits)
		}
	})
}
