package extsort

import (
	"fmt"
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
	return readRun(t, d, Input{Name: name, Count: n}, c)
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
		got, err := readFile(d, Input{Name: "out", Count: int64(n)}, c)
		if err != nil || len(got) != n {
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

// readFile reads a sorted file in either encoding back through the
// sorter's reader, each entry with a payload of its own.
func readFile(d *storage.Disk, in Input, c record.Codec) ([]record.Entry, error) {
	r, err := (&Sorter{Disk: d, Codec: c}).open(in, storage.DefaultBufferPages)
	if err != nil {
		return nil, err
	}
	var out []record.Entry
	for {
		e, err := r.Next(nil)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// TestMergeSorted is the one table over Sorter.Merge's output: the merged
// sequence of sorted inputs — two to nine of them, of different lengths, an
// empty one and one of a single entry among them — must be their sorted
// union, and the inputs stay intact.
func TestMergeSorted(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int // one input per element
	}{
		{"three", []int{60, 120, 180}},
		{"four", []int{60, 120, 180, 240}},
		{"two", []int{60, 120}},
		{"empty-and-single", []int{0, 90, 1}},
		{"nine", []int{15, 30, 45, 60, 75, 90, 105, 120, 135}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := storage.NewDisk(512)
			c := record.Codec{}
			s := &Sorter{Disk: d, Codec: c, MemBudget: 1 << 16}
			var inputs []Input
			var parts [][]record.Entry
			var all []record.Entry
			for i, n := range tc.sizes {
				entries := writeUnsorted(t, d, "u"+string(rune('0'+i)), c, n, int64(40+i))
				sortEntries(entries)
				in := Input{Name: "s" + string(rune('0'+i)), Count: int64(n)}
				if err := s.WriteRun(in.Name, entries); err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, in)
				parts = append(parts, entries)
				all = append(all, entries...)
			}
			sortEntries(all)

			got, err := s.Merge(inputs, "merged")
			if err != nil {
				t.Fatal(err)
			}
			if got != int64(len(all)) {
				t.Fatalf("merged %d entries, want %d", got, len(all))
			}
			assertEntries(t, "merged", readRun(t, d, Input{Name: "merged", Count: got}, c), all)
			for i, in := range inputs {
				assertEntries(t, in.Name, readRun(t, d, in, c), parts[i])
			}
		})
	}
}

// readRun decodes a sorted file.
func readRun(t *testing.T, d *storage.Disk, in Input, c record.Codec) []record.Entry {
	t.Helper()
	out, err := readFile(d, in, c)
	if err != nil {
		t.Fatal(err)
	}
	return out
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
// holds a record that aliases its pinned page and moves verbatim to the
// output page, so a merge of materialized entries allocates per file and
// per chunk of pages, never per entry — and still writes every payload it
// read.
func TestMergeDoesNotAllocatePerEntry(t *testing.T) {
	c := record.Codec{SeriesLen: 16, Materialized: true}
	d := storage.NewDisk(4096) // 25 entries to a page: a page's allocations are not an entry's
	s := &Sorter{Disk: d, Codec: c, MemBudget: 1 << 16}
	rng := rand.New(rand.NewSource(5))
	var inputs []Input
	var all []record.Entry
	for i := 0; i < 3; i++ {
		entries := make([]record.Entry, 400)
		for j := range entries {
			p := make(series.Series, c.SeriesLen)
			for k := range p {
				p[k] = rng.NormFloat64()
			}
			entries[j] = record.Entry{Key: sortable.Key{Hi: rng.Uint64()}, ID: int64(i*1000 + j), TS: int64(j), Payload: p}
		}
		sortEntries(entries)
		in := Input{Name: "in" + string(rune('0'+i)), Count: int64(len(entries))}
		if err := s.WriteRun(in.Name, entries); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
		all = append(all, entries...)
	}
	sortEntries(all)
	merge := func() {
		if _, err := s.Merge(inputs, "merged"); err != nil {
			t.Fatal(err)
		}
	}
	merge()
	got := readRun(t, d, Input{Name: "merged", Count: int64(len(all))}, c)
	assertEntries(t, "merged", got, all)
	for i := range all {
		if !slices.Equal(got[i].Payload, all[i].Payload) {
			t.Fatalf("entry %d's payload changed in the merge", i)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := d.Remove("merged"); err != nil {
			t.Fatal(err)
		}
		merge()
	})
	if allocs > float64(len(all))/4 {
		t.Errorf("%.0f allocations to merge %d entries, want none per entry", allocs, len(all))
	}
}

// TestSortOutputDescription: what Sort writes under an Output description is,
// byte for byte, what WriteRun writes from the same entries sorted in memory
// — whether the input fit one buffer (the sorted buffer is the output), made
// a few runs, or needed a pass of temporaries, serial or on workers — with
// nothing left beside it; and the observer sees every entry once, in file
// order, first-of-page exactly where the file's pages begin: every
// max(1, ⌊records per page · fill⌋) records.
func TestSortOutputDescription(t *testing.T) {
	const pageSize, bufEntries = 256, 32
	c := record.Codec{}
	fanIn := bufEntries * c.Size() / pageSize
	sizes := map[string]int{
		"empty": 0, "one": 1, "one-buffer": bufEntries - 5,
		"runs": bufEntries * fanIn, "multi-pass": bufEntries*fanIn*2 + 7,
	}
	for size, n := range sizes {
		for _, fill := range []float64{0, 1, 0.7, 0.34} {
			for _, par := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/fill=%v/par=%d", size, fill, par), func(t *testing.T) {
					d := storage.NewDisk(pageSize)
					entries := writeUnsorted(t, d, "in", c, n, int64(n))
					sortEntries(entries)
					type seen struct {
						id        int64
						pageStart bool
					}
					var got []seen
					s := &Sorter{Disk: d, Codec: c, MemBudget: bufEntries * c.Size(), Parallelism: par,
						Output: Output{Fill: fill, Observer: func(_ sortable.Key, id, _ int64, pageStart bool) {
							got = append(got, seen{id, pageStart})
						}}}
					passes, err := s.Sort("in", int64(n), "out")
					if err != nil {
						t.Fatal(err)
					}
					if files := d.Files(); !slices.Equal(files, []string{"in", "out"}) {
						t.Fatalf("files after the sort: %v", files)
					}
					if par == 0 && (passes > 0) != (n > bufEntries) || size == "multi-pass" && passes < 2 {
						t.Fatalf("%d entries sorted in %d passes", n, passes)
					}
					s.Observer = nil
					if err := s.WriteRun("ref", entries); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(readAllPages(t, d, "out"), readAllPages(t, d, "ref")) {
						t.Fatal("Sort's output differs from WriteRun's")
					}

					var want []seen
					perPage := pageSize / c.Size()
					if fill > 0 && fill < 1 {
						perPage = max(1, int(float64(perPage)*fill))
					}
					for i := 0; i < n; i++ {
						want = append(want, seen{entries[i].ID, i%perPage == 0})
					}
					if !slices.Equal(got, want) {
						t.Fatalf("the observer saw %d entries, the file holds %d, or they differ", len(got), len(want))
					}
				})
			}
		}
	}
}

// TestSortDoesNotAllocatePerEntry pins phase 1's and phase 2's cost on
// materialized entries: records move from page to buffer to page verbatim,
// so a sort of several runs, serial or on workers, allocates per run file
// and per page it writes (the simulated disk allocates each page it
// stores), never per entry — and the output is the input sorted, payloads
// and all.
func TestSortDoesNotAllocatePerEntry(t *testing.T) {
	const n, bufEntries = 2400, 300
	c := record.Codec{SeriesLen: 16, Materialized: true}
	for _, par := range []int{0, 2} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			d := storage.NewDisk(4096) // 25 entries to a page
			rng := rand.New(rand.NewSource(9))
			w, err := storage.NewRecordWriter(d, "in", c.Size())
			if err != nil {
				t.Fatal(err)
			}
			want := make([]record.Entry, n)
			for i := range want {
				p := make(series.Series, c.SeriesLen)
				for k := range p {
					p[k] = rng.NormFloat64()
				}
				want[i] = record.Entry{Key: sortable.Key{Hi: rng.Uint64() >> 54}, ID: int64(i), TS: int64(i % 7), Payload: p}
				buf, err := c.Encode(want[i])
				if err == nil {
					err = w.Write(buf)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			sortEntries(want)
			s := &Sorter{Disk: d, Codec: c, MemBudget: bufEntries * c.Size(), Parallelism: par}
			var passes int
			sort := func() {
				if passes, err = s.Sort("in", n, "out"); err != nil {
					t.Fatal(err)
				}
			}
			sort()
			if passes < 1 {
				t.Fatalf("%d entries sorted in memory, want runs", n)
			}
			got := readAll(t, d, "out", c, n)
			assertEntries(t, "sorted", got, want)
			for i := range want {
				if !slices.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("entry %d's payload changed in the sort", i)
				}
			}
			before := d.Stats()
			allocs := testing.AllocsPerRun(3, func() {
				if err := d.Remove("out"); err != nil {
					t.Fatal(err)
				}
				sort()
			})
			pages := float64(d.Stats().Sub(before).Writes()) / 4 // AllocsPerRun runs the sort once more
			runs := (n + bufEntries/max(1, par) - 1) / (bufEntries / max(1, par))
			if perRun := (allocs - pages) / float64(runs); perRun > 40 {
				t.Errorf("%.0f allocations beside %.0f pages written to sort %d entries in %d runs: %.0f a run, want a few, none per entry",
					allocs, pages, n, runs, perRun)
			}
		})
	}
}
