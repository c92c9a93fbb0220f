package extsort

import (
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/storage"
)

func writeUnsorted(t *testing.T, d *storage.Disk, name string, c record.Codec, n int, seed int64) []record.Entry {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := storage.NewRecordWriter(d, name, c.Size())
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]record.Entry, n)
	for i := range entries {
		entries[i] = record.Entry{
			Key: sortable.Key{Hi: rng.Uint64(), Lo: rng.Uint64()},
			ID:  int64(i),
			TS:  int64(rng.Intn(1000)),
		}
		buf, err := c.Encode(entries[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return entries
}

func readAll(t *testing.T, d *storage.Disk, name string, c record.Codec, n int64) []record.Entry {
	t.Helper()
	r, err := storage.NewRecordReader(d, name, c.Size(), n)
	if err != nil {
		t.Fatal(err)
	}
	var out []record.Entry
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		e, err := c.Decode(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func checkSorted(t *testing.T, entries []record.Entry) {
	t.Helper()
	for i := 1; i < len(entries); i++ {
		if entries[i].Less(entries[i-1]) {
			t.Fatalf("output not sorted at %d", i)
		}
	}
}

func TestSortInMemoryFit(t *testing.T) {
	d := storage.NewDisk(512)
	c := record.Codec{}
	want := writeUnsorted(t, d, "in", c, 100, 1)
	s := &Sorter{Disk: d, Codec: c, MemBudget: 1 << 20}
	passes, err := s.Sort("in", 100, "out")
	if err != nil {
		t.Fatal(err)
	}
	if passes != 0 {
		t.Errorf("passes = %d, want 0 (fit in memory)", passes)
	}
	got := readAll(t, d, "out", c, 100)
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	checkSorted(t, got)
	// Same multiset: IDs are unique so check the ID set.
	seen := make(map[int64]bool)
	for _, e := range got {
		seen[e.ID] = true
	}
	if len(seen) != 100 {
		t.Fatal("entries lost or duplicated")
	}
}

func TestSortTwoPass(t *testing.T) {
	d := storage.NewDisk(512)
	c := record.Codec{}
	const n = 5000
	writeUnsorted(t, d, "in", c, n, 2)
	// Budget for ~200 entries -> 25 runs, fan-in 12 -> 2 merge passes max.
	s := &Sorter{Disk: d, Codec: c, MemBudget: 200 * c.Size()}
	passes, err := s.Sort("in", n, "out")
	if err != nil {
		t.Fatal(err)
	}
	if passes < 1 {
		t.Errorf("passes = %d, want >=1", passes)
	}
	got := readAll(t, d, "out", c, n)
	if len(got) != n {
		t.Fatalf("got %d entries, want %d", len(got), n)
	}
	checkSorted(t, got)
	// Temporary run files must be cleaned up.
	for _, f := range d.Files() {
		if f != "in" && f != "out" {
			t.Errorf("leftover temp file %q", f)
		}
	}
}

func TestSortTinyMemoryMultiPass(t *testing.T) {
	d := storage.NewDisk(128)
	c := record.Codec{}
	const n = 2000
	writeUnsorted(t, d, "in", c, n, 3)
	s := &Sorter{Disk: d, Codec: c, MemBudget: 1} // degenerate: 4-entry runs, fan-in 2
	passes, err := s.Sort("in", n, "out")
	if err != nil {
		t.Fatal(err)
	}
	if passes < 2 {
		t.Errorf("passes = %d, want multi-pass under tiny memory", passes)
	}
	got := readAll(t, d, "out", c, n)
	if len(got) != n {
		t.Fatalf("got %d, want %d", len(got), n)
	}
	checkSorted(t, got)
}

func TestSortEmpty(t *testing.T) {
	d := storage.NewDisk(512)
	c := record.Codec{}
	writeUnsorted(t, d, "in", c, 0, 4)
	s := &Sorter{Disk: d, Codec: c, MemBudget: 1 << 10}
	if _, err := s.Sort("in", 0, "out"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, d, "out", c, 0); len(got) != 0 {
		t.Fatalf("expected empty output, got %d", len(got))
	}
}

func TestSortMaterialized(t *testing.T) {
	d := storage.NewDisk(4096)
	c := record.Codec{SeriesLen: 16, Materialized: true}
	rng := rand.New(rand.NewSource(5))
	w, err := storage.NewRecordWriter(d, "in", c.Size())
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		payload := make([]float64, 16)
		for j := range payload {
			payload[j] = rng.NormFloat64()
		}
		e := record.Entry{Key: sortable.Key{Hi: rng.Uint64()}, ID: int64(i), Payload: payload}
		buf, _ := c.Encode(e)
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	s := &Sorter{Disk: d, Codec: c, MemBudget: 50 * c.Size()}
	if _, err := s.Sort("in", n, "out"); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, d, "out", c, n)
	checkSorted(t, got)
	for _, e := range got {
		if len(e.Payload) != 16 {
			t.Fatal("payload lost in sort")
		}
	}
}

func TestSortIsStableByID(t *testing.T) {
	// Entries with equal keys must come out ordered by ID (Less ties on ID).
	d := storage.NewDisk(256)
	c := record.Codec{}
	w, _ := storage.NewRecordWriter(d, "in", c.Size())
	rng := rand.New(rand.NewSource(6))
	const n = 1000
	for i := 0; i < n; i++ {
		e := record.Entry{Key: sortable.Key{Hi: uint64(rng.Intn(3))}, ID: int64(i)}
		buf, _ := c.Encode(e)
		w.Write(buf)
	}
	w.Close()
	s := &Sorter{Disk: d, Codec: c, MemBudget: 64 * c.Size()}
	if _, err := s.Sort("in", n, "out"); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, d, "out", c, n)
	for i := 1; i < len(got); i++ {
		if got[i].Key == got[i-1].Key && got[i].ID <= got[i-1].ID {
			t.Fatalf("equal keys not ordered by ID at %d", i)
		}
	}
}

func TestSortSequentialIODominates(t *testing.T) {
	// The point of external sorting: I/O should be overwhelmingly sequential.
	d := storage.NewDisk(512)
	c := record.Codec{}
	const n = 20000
	writeUnsorted(t, d, "in", c, n, 7)
	d.ResetStats()
	// A realistic budget (~10% of the data) keeps per-stream buffers large
	// enough that chunked streaming dominates head movement.
	s := &Sorter{Disk: d, Codec: c, MemBudget: 2000 * c.Size()}
	if _, err := s.Sort("in", n, "out"); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	seq := st.SeqReads + st.SeqWrites
	rand := st.RandReads + st.RandWrites
	if seq < 5*rand {
		t.Errorf("sequential I/O %d not >> random %d", seq, rand)
	}
}

func TestPropertySortAnyBudget(t *testing.T) {
	// External sort must produce identical output for any memory budget.
	f := func(seed int64, budgetRaw uint16, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		budget := int(budgetRaw) + 1
		d := storage.NewDisk(256)
		c := record.Codec{}
		rng := rand.New(rand.NewSource(seed))
		w, err := storage.NewRecordWriter(d, "in", c.Size())
		if err != nil {
			return false
		}
		keys := make([]sortable.Key, n)
		for i := 0; i < n; i++ {
			keys[i] = sortable.Key{Hi: rng.Uint64() % 16, Lo: rng.Uint64() % 16}
			buf, _ := c.Encode(record.Entry{Key: keys[i], ID: int64(i)})
			if err := w.Write(buf); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		s := &Sorter{Disk: d, Codec: c, MemBudget: budget}
		if _, err := s.Sort("in", int64(n), "out"); err != nil {
			return false
		}
		got := readAllQuick(d, c, int64(n))
		if len(got) != n {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Less(got[i-1]) {
				return false
			}
		}
		// Multiset preservation via ID uniqueness.
		seen := make(map[int64]bool, n)
		for _, e := range got {
			if seen[e.ID] {
				return false
			}
			seen[e.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func readAllQuick(d *storage.Disk, c record.Codec, n int64) []record.Entry {
	r, err := storage.NewRecordReader(d, "out", c.Size(), n)
	if err != nil {
		return nil
	}
	var out []record.Entry
	for {
		rec, err := r.Next()
		if err != nil {
			return out
		}
		e, err := c.Decode(rec)
		if err != nil {
			return nil
		}
		out = append(out, e)
	}
}

// readAllPacked decodes a packed run file back into entries.
func readAllPacked(t *testing.T, d *storage.Disk, name string, c record.Codec, n int64) []record.Entry {
	t.Helper()
	npages, err := d.NumPages(name)
	if err != nil {
		t.Fatal(err)
	}
	r := record.NewPackedReader(storage.ScanChunks(d, name, 0, npages, storage.DefaultBufferPages), npages, name, c, n)
	var out []record.Entry
	for {
		e, err := r.NextEntry()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		e.Payload = slices.Clone(e.Payload) // the reader decodes the next one into it
		out = append(out, e)
	}
	return out
}

// TestMergeSorted is the one table over Sorter.Merge: inputs in any mix of
// encodings, both output encodings. The merged sequence must be the sorted
// union whatever the encodings — encoding never changes answers — and the
// inputs stay intact.
func TestMergeSorted(t *testing.T) {
	cases := []struct {
		name       string
		packed     []bool // one input per element
		packOutput bool
	}{
		{"fixed", []bool{false, false, false}, false},
		{"mixed-encodings", []bool{false, true, true, false}, false},
		{"mixed-encodings-packed-output", []bool{false, true, true, false}, true},
		{"packed", []bool{true, true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := storage.NewDisk(512)
			c := record.Codec{}
			s := &Sorter{Disk: d, Codec: c, MemBudget: 1 << 16}
			var inputs []Input
			var parts [][]record.Entry
			var all []record.Entry
			for i, packed := range tc.packed {
				n := 60 * (i + 1)
				entries := writeUnsorted(t, d, "u"+string(rune('0'+i)), c, n, int64(40+i))
				sortEntries(entries)
				in := Input{Name: "s" + string(rune('0'+i)), Count: int64(n), Packed: packed}
				s.Packed = packed
				if err := s.WriteRun(in.Name, entries); err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, in)
				parts = append(parts, entries)
				all = append(all, entries...)
			}
			sortEntries(all)

			s.Packed = tc.packOutput
			got, err := s.Merge(inputs, "merged")
			if err != nil {
				t.Fatal(err)
			}
			if got != int64(len(all)) {
				t.Fatalf("merged %d entries, want %d", got, len(all))
			}
			assertEntries(t, "merged", readRun(t, d, Input{Name: "merged", Count: got, Packed: tc.packOutput}, c), all)
			for i, in := range inputs {
				assertEntries(t, in.Name, readRun(t, d, in, c), parts[i])
			}
		})
	}
}

// readRun decodes a sorted file in either encoding.
func readRun(t *testing.T, d *storage.Disk, in Input, c record.Codec) []record.Entry {
	t.Helper()
	if in.Packed {
		return readAllPacked(t, d, in.Name, c, in.Count)
	}
	return readAll(t, d, in.Name, c, in.Count)
}

func assertEntries(t *testing.T, what string, got, want []record.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].ID != want[i].ID || got[i].TS != want[i].TS {
			t.Fatalf("%s: entry %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func sortEntries(entries []record.Entry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Less(entries[j-1]); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

// TestMergeDoesNotAllocatePerEntry pins the merge loop's cost: each source
// decodes its entries' payloads into one buffer of its own, so a merge of
// materialized entries allocates per file and per chunk of pages, never per
// entry — and still writes every payload it read, in both encodings.
func TestMergeDoesNotAllocatePerEntry(t *testing.T) {
	c := record.Codec{SeriesLen: 16, Materialized: true}
	d := storage.NewDisk(4096) // 25 entries to a page: a page's allocations are not an entry's
	s := &Sorter{Disk: d, Codec: c, MemBudget: 1 << 16}
	rng := rand.New(rand.NewSource(5))
	var inputs []Input
	var all []record.Entry
	for i, packed := range []bool{false, true, false} {
		entries := make([]record.Entry, 400)
		for j := range entries {
			p := make(series.Series, c.SeriesLen)
			for k := range p {
				p[k] = rng.NormFloat64()
			}
			entries[j] = record.Entry{Key: sortable.Key{Hi: rng.Uint64()}, ID: int64(i*1000 + j), TS: int64(j), Payload: p}
		}
		sortEntries(entries)
		in := Input{Name: "in" + string(rune('0'+i)), Count: int64(len(entries)), Packed: packed}
		s.Packed = packed
		if err := s.WriteRun(in.Name, entries); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
		all = append(all, entries...)
	}
	sortEntries(all)
	for _, packOutput := range []bool{false, true} {
		s.Packed = packOutput
		merge := func() {
			if _, err := s.Merge(inputs, "merged"); err != nil {
				t.Fatal(err)
			}
		}
		merge()
		got := readRun(t, d, Input{Name: "merged", Count: int64(len(all)), Packed: packOutput}, c)
		assertEntries(t, "merged", got, all)
		for i := range all {
			if !slices.Equal(got[i].Payload, all[i].Payload) {
				t.Fatalf("packed output=%v: entry %d's payload changed in the merge", packOutput, i)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := d.Remove("merged"); err != nil {
				t.Fatal(err)
			}
			merge()
		})
		if allocs > float64(len(all))/4 {
			t.Errorf("packed output=%v: %.0f allocations to merge %d entries, want none per entry", packOutput, allocs, len(all))
		}
		if err := d.Remove("merged"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSortOutputDescription: what Sort writes under an Output description is,
// byte for byte, what WriteRun writes from the same entries sorted in memory
// — whether the input fit one buffer (the sorted buffer is the output), made
// a few runs, or needed a pass of temporaries, serial or on workers — with
// nothing left beside it; and the observer sees every entry once, in file
// order, first-of-page exactly where the file's pages begin: every
// max(1, ⌊records per page · fill⌋) records of a fixed file, and at each
// packed page's own decoded count.
func TestSortOutputDescription(t *testing.T) {
	const pageSize, bufEntries = 256, 32
	c := record.Codec{}
	fanIn := bufEntries * c.Size() / pageSize
	sizes := map[string]int{
		"empty": 0, "one": 1, "one-buffer": bufEntries - 5,
		"runs": bufEntries * fanIn, "multi-pass": bufEntries*fanIn*2 + 7,
	}
	for size, n := range sizes {
		for _, packed := range []bool{false, true} {
			for _, fill := range []float64{0, 1, 0.7, 0.34} {
				for _, par := range []int{0, 4} {
					d := storage.NewDisk(pageSize)
					entries := writeUnsorted(t, d, "in", c, n, int64(n))
					sortEntries(entries)
					type seen struct {
						id        int64
						pageStart bool
					}
					var got []seen
					s := &Sorter{Disk: d, Codec: c, MemBudget: bufEntries * c.Size(), Parallelism: par,
						Output: Output{Packed: packed, Fill: fill, Observer: func(e record.Entry, pageStart bool) {
							got = append(got, seen{e.ID, pageStart})
						}}}
					passes, err := s.Sort("in", int64(n), "out")
					if err != nil {
						t.Fatal(err)
					}
					if files := d.Files(); !slices.Equal(files, []string{"in", "out"}) {
						t.Fatalf("%s: files after the sort: %v", size, files)
					}
					if par == 0 && (passes > 0) != (n > bufEntries) || size == "multi-pass" && passes < 2 {
						t.Fatalf("%s: %d entries sorted in %d passes", size, n, passes)
					}
					s.Observer = nil
					if err := s.WriteRun("ref", entries); err != nil {
						t.Fatal(err)
					}
					out := readAllPages(t, d, "out")
					if !slices.Equal(out, readAllPages(t, d, "ref")) {
						t.Fatalf("%s packed=%v fill=%v par=%d: Sort's output differs from WriteRun's", size, packed, fill, par)
					}

					var want []seen
					perPage := pageSize / c.Size()
					if fill > 0 && fill < 1 {
						perPage = max(1, int(float64(perPage)*fill))
					}
					for p := 0; len(want) < n; p++ {
						count := min(perPage, n-len(want))
						if packed {
							v, err := c.ViewPacked(out[p*pageSize : (p+1)*pageSize])
							if err != nil {
								t.Fatal(err)
							}
							count = v.Count()
						}
						for i := 0; i < count; i++ {
							want = append(want, seen{entries[len(want)].ID, i == 0})
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s packed=%v fill=%v par=%d: the observer saw %d entries, the file holds %d, or they differ",
							size, packed, fill, par, len(got), len(want))
					}
					if packed && fill > 0 && fill < 1 && n > bufEntries {
						// Slack in a packed page is more pages for the same entries.
						s.Fill = 1
						if err := s.WriteRun("full", entries); err != nil {
							t.Fatal(err)
						}
						if full := len(readAllPages(t, d, "full")); len(out) <= full {
							t.Fatalf("%s: fill %v made %d bytes of packed pages, full pages make %d", size, fill, len(out), full)
						}
					}
				}
			}
		}
	}
}
