package ctree

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/storage"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	ds := buildDataset(t, 800, 31)
	for _, mat := range []bool{false, true} {
		tr, disk := buildTree(t, ds, mat, 0.8)
		if err := tr.Save(); err != nil {
			t.Fatal(err)
		}
		got, err := Open(Options{Disk: disk, Name: "ctree", Raw: normStore{ds}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() != tr.Count() || got.Leaves() != tr.Leaves() {
			t.Fatalf("mat=%v: reopened count=%d leaves=%d, want %d/%d",
				mat, got.Count(), got.Leaves(), tr.Count(), tr.Leaves())
		}
		if got.Name() != tr.Name() {
			t.Fatalf("name %q != %q", got.Name(), tr.Name())
		}
		// Searches on the reopened tree agree with the original.
		rng := rand.New(rand.NewSource(310))
		for trial := 0; trial < 10; trial++ {
			q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(mat))
			want, err := tr.ExactSearch(q, 3)
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.ExactSearch(q, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(have) {
				t.Fatalf("result counts differ: %d vs %d", len(want), len(have))
			}
			for i := range want {
				if want[i].ID != have[i].ID || math.Abs(want[i].Dist-have[i].Dist) > 1e-12 {
					t.Fatalf("mat=%v trial %d result %d: %+v vs %+v", mat, trial, i, want[i], have[i])
				}
			}
		}
	}
}

func TestSaveOpenAfterSplits(t *testing.T) {
	// Splits break the identity page map; it must persist and restore.
	ds := buildDataset(t, 400, 32)
	disk := storage.NewDisk(0)
	cfg := testConfig(true)
	tr, err := Build(Options{Disk: disk, Config: cfg, FillFactor: 1.0}, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(320))
	for i := 0; i < 80; i++ {
		if err := tr.Insert(gen.RandomWalk(rng, 64), 2); err != nil {
			t.Fatal(err)
		}
	}
	if !splitMap(tr) {
		t.Fatal("test needs splits to have occurred")
	}
	if err := tr.Save(); err != nil {
		t.Fatal(err)
	}
	got, err := Open(Options{Disk: disk, Name: "ctree"})
	if err != nil {
		t.Fatal(err)
	}
	if !splitMap(got) {
		t.Fatal("page map not restored")
	}
	s, _ := ds.Get(100)
	res, err := got.ExactSearch(index.NewQuery(s, cfg), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 100 || res[0].Dist > 1e-9 {
		t.Fatalf("reopened search = %+v", res)
	}
	// Reopened tree keeps accepting inserts with fresh IDs.
	if err := got.Insert(gen.RandomWalk(rng, 64), 3); err != nil {
		t.Fatal(err)
	}
	if got.nextID64 != tr.nextID64+1 {
		t.Fatalf("nextID = %d, want %d", got.nextID64, tr.nextID64+1)
	}
}

// splitMap reports whether a split has moved a leaf off the page its place
// in key order names.
func splitMap(tr *Tree) bool {
	for li := 0; li < tr.Leaves(); li++ {
		if tr.leaves.Sum.Phys(li) != int64(li) {
			return true
		}
	}
	return false
}

func TestSaveReplacesExistingMeta(t *testing.T) {
	ds := buildDataset(t, 100, 33)
	tr, disk := buildTree(t, ds, false, 1.0)
	if err := tr.Save(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(); err != nil {
		t.Fatal(err) // second save must overwrite, not fail
	}
	if _, err := Open(Options{Disk: disk, Name: "ctree", Raw: normStore{ds}}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenErrors(t *testing.T) {
	disk := storage.NewDisk(0)
	if _, err := Open(Options{Name: "x"}); err == nil {
		t.Fatal("nil disk should fail")
	}
	if _, err := Open(Options{Disk: disk, Name: "missing"}); err == nil {
		t.Fatal("missing meta should fail")
	}
	// Corrupt magic.
	disk.Create("bad.meta")
	disk.AppendPage("bad.meta", []byte("NOTMAGIC0000000000000000"))
	if _, err := Open(Options{Disk: disk, Name: "bad"}); err == nil {
		t.Fatal("bad magic should fail")
	}
	// Valid magic, truncated payload.
	disk.Create("trunc.meta")
	head := append([]byte(metaMagic), 1, 0, 0, 0 /*version*/, 255, 0, 0, 0, 0, 0, 0, 0 /*len 255*/)
	disk.AppendPage("trunc.meta", head)
	if _, err := Open(Options{Disk: disk, Name: "trunc"}); err == nil {
		t.Fatal("truncated payload should fail")
	}
}

// TestOpenRejectsForeignSynopsisShape: inserts widen the tree synopsis with
// symbols decoded at the tree's own shape, so metadata whose synopsis claims
// another shape must not open.
func TestOpenRejectsForeignSynopsisShape(t *testing.T) {
	ds := buildDataset(t, 100, 35)
	tr, disk := buildTree(t, ds, false, 1.0)
	meta := tr.encodeMeta()
	if _, err := decodeMeta(Options{Disk: disk, Name: "ctree", Raw: normStore{ds}}, meta, metaVersion); err != nil {
		t.Fatal(err)
	}
	// The synopsis is the last field before the packed flag and the leaf
	// summary; its bits byte sits at offset 56 (a changed segments byte
	// already fails the length check).
	summary := len(tr.leaves.Sum.AppendBinary(nil))
	meta[len(meta)-summary-1-tr.leaves.Syn.EncodedSize()+56]--
	if _, err := decodeMeta(Options{Disk: disk, Name: "ctree", Raw: normStore{ds}}, meta, metaVersion); err == nil {
		t.Fatal("synopsis bits changed: metadata still opens")
	}
}

func TestOpenDetectsMissingLeafFile(t *testing.T) {
	ds := buildDataset(t, 100, 34)
	tr, disk := buildTree(t, ds, false, 1.0)
	if err := tr.Save(); err != nil {
		t.Fatal(err)
	}
	if err := disk.Remove("ctree.leaves"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Disk: disk, Name: "ctree", Raw: normStore{ds}}); err == nil {
		t.Fatal("missing leaf file should fail")
	}
}

func TestDiskSnapshotRoundTripWithTree(t *testing.T) {
	// Full persistence pipeline: build -> Save -> snapshot disk to a real
	// file -> load -> Open -> search.
	ds := buildDataset(t, 500, 35)
	tr, disk := buildTree(t, ds, true, 1.0)
	if err := tr.Save(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tree.ccnut")
	if err := disk.SaveFile(nil, path); err != nil {
		t.Fatal(err)
	}
	disk2, err := storage.LoadDiskFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(Options{Disk: disk2, Name: "ctree"})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ds.Get(42)
	res, err := got.ExactSearch(index.NewQuery(s, testConfig(true)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 42 || res[0].Dist > 1e-9 {
		t.Fatalf("search after snapshot = %+v", res)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := storage.ReadDisk(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage snapshot should fail")
	}
	if _, err := storage.ReadDisk(bytes.NewReader([]byte("CCNUTDSKxxxx"))); err == nil {
		t.Fatal("truncated snapshot should fail")
	}
}
