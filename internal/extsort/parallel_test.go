package extsort

import (
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// writeUnsorted is shared with extsort_test.go.

func readAllPages(t *testing.T, d *storage.Disk, name string) []byte {
	t.Helper()
	np, err := d.NumPages(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 0, int(np)*d.PageSize())
	buf := make([]byte, d.PageSize())
	for p := int64(0); p < np; p++ {
		if _, err := d.ReadPage(name, p, buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf...)
	}
	return out
}

// TestParallelSortByteIdentical proves the tentpole's construction-side
// guarantee: the sorted output file is byte-for-byte the same whether the
// sort ran serially or with sorting workers overlapping run-writing I/O —
// entries are totally ordered by (Key, ID), so the output does not depend
// on how phase 1 batched or phase 2 grouped the work.
func TestParallelSortByteIdentical(t *testing.T) {
	const n = 20000
	c := record.Codec{}
	outputs := make([][]byte, 0, 4)
	for _, par := range []int{0, 2, 4, 8} {
		d := storage.NewDisk(0)
		writeUnsorted(t, d, "in", c, n, 77)
		// Tight budget forces many runs and multi-group merge passes.
		s := &Sorter{Disk: d, Codec: c, MemBudget: 32 * 1024, Parallelism: par}
		if _, err := s.Sort("in", n, "out"); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		outputs = append(outputs, readAllPages(t, d, "out"))
	}
	for i := 1; i < len(outputs); i++ {
		if len(outputs[i]) != len(outputs[0]) {
			t.Fatalf("output %d: %d bytes vs %d serial", i, len(outputs[i]), len(outputs[0]))
		}
		for j := range outputs[i] {
			if outputs[i][j] != outputs[0][j] {
				t.Fatalf("output %d differs from serial at byte %d", i, j)
			}
		}
	}
}

// TestParallelSortSortedOrder double-checks the parallel path yields a
// correctly sorted permutation of the input.
func TestParallelSortSortedOrder(t *testing.T) {
	const n = 5000
	c := record.Codec{}
	d := storage.NewDisk(0)
	writeUnsorted(t, d, "in", c, n, 99)
	s := &Sorter{Disk: d, Codec: c, MemBudget: 16 * 1024, Parallelism: 4}
	if _, err := s.Sort("in", n, "out"); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, d, "out", c, n)
	var prev record.Entry
	ids := make(map[int64]bool, n)
	for i, e := range got {
		if i > 0 && e.Less(prev) {
			t.Fatalf("entry %d out of order", i)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate ID %d", e.ID)
		}
		ids[e.ID] = true
		prev = e
	}
	if len(ids) != n {
		t.Fatalf("got %d distinct IDs, want %d", len(ids), n)
	}
}
