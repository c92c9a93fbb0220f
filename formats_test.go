package coconut

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/clsm"
	"repro/internal/ctree"
	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/storage"
)

var updateFormats = flag.Bool("update", false, "rewrite testdata/entry_files.sha256 from this run")

// formatsPageSize is small enough that a few hundred short series span many
// pages.
const formatsPageSize = 1024

// TestFormatsEntryFiles pins the bytes of every entry-page file the system
// writes — a sorted file from Sort (full and 0.7-filled, fitting the memory
// budget and not), WriteRun, a Merge of three such runs, a CTree's leaf
// level after inserts that split leaves, and CLSM runs after flushes and
// merges — to a committed list of SHA-256s, beside the whole Disk.Stats() of
// the pass that wrote each. A moved byte or a changed read-ahead shows as a
// diff of testdata/entry_files.sha256; `go test -run TestFormats -update .`
// rewrites it. The labels keep the packed=false they had when a build could
// write either layout, so that the lines stay what they were.
func TestFormatsEntryFiles(t *testing.T) {
	var out []string
	note := func(name string, d *storage.Disk, prefix string, stats storage.Stats, extra string) {
		t.Helper()
		files := 0
		for _, f := range d.Files() {
			if !strings.HasPrefix(f, prefix) {
				continue
			}
			files++
			out = append(out, fmt.Sprintf("%s %s %x %s%s", name, f, fileSum(t, d, f), stats, extra))
		}
		if files == 0 {
			t.Fatalf("%s: no file named %s*", name, prefix)
		}
	}
	for _, mat := range []bool{false, true} {
		cfg := index.Config{SeriesLen: 16, Segments: 4, Bits: 8, Materialized: mat}
		walks := formatWalks(cfg, 600, 7)
		entries := formatEntries(cfg, walks)
		for _, fill := range []float64{1, 0.7} {
			for _, budget := range []int{1 << 20, 2 * formatsPageSize} {
				name := fmt.Sprintf("sort/mat=%v/packed=false/fill=%v/budget=%d", mat, fill, budget)
				d := storage.NewDisk(formatsPageSize)
				writeUnsorted(t, d, cfg.Codec(), entries)
				d.ResetStats()
				s := &extsort.Sorter{Disk: d, Codec: cfg.Codec(), MemBudget: budget, Output: extsort.Output{Fill: fill}}
				passes, err := s.Sort("in", int64(len(entries)), "out")
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				note(name, d, "out", d.Stats(), fmt.Sprintf(" passes=%d", passes))
			}
		}

		// Write three runs, then merge them under a budget of a few pages
		// per input.
		sorted := sortedCopy(entries)
		d := storage.NewDisk(formatsPageSize)
		var inputs []extsort.Input
		for i := 0; i < 3; i++ {
			var part []record.Entry
			for j := i; j < len(sorted); j += 3 {
				part = append(part, sorted[j])
			}
			file := fmt.Sprintf("run%d", i)
			d.ResetStats()
			if err := (&extsort.Sorter{Disk: d, Codec: cfg.Codec()}).WriteRun(file, part); err != nil {
				t.Fatal(err)
			}
			note(fmt.Sprintf("writerun/mat=%v/packed=false", mat), d, file, d.Stats(), "")
			inputs = append(inputs, extsort.Input{Name: file, Count: int64(len(part))})
		}
		d.ResetStats()
		s := &extsort.Sorter{Disk: d, Codec: cfg.Codec(), MemBudget: 12 * formatsPageSize}
		n, err := s.Merge(inputs, "merged.packed=false")
		if err != nil || n != int64(len(sorted)) {
			t.Fatalf("merge: %d entries, %v", n, err)
		}
		note(fmt.Sprintf("merge/mat=%v/packed=false", mat), d, "merged.packed=false", d.Stats(), "")

		// A CTree at fill 0.7, then inserts enough to split leaves.
		d = storage.NewDisk(formatsPageSize)
		tr, err := ctree.BuildFromEntries(ctree.Options{Disk: d, Name: "tree", Config: cfg, FillFactor: 0.7, MemBudget: 4 * formatsPageSize},
			sortedCopy(entries[:400]))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("ctree/mat=%v/packed=false", mat)
		note(name+"/build", d, "tree.leaves", d.Stats(), fmt.Sprintf(" leaves=%d", tr.Leaves()))
		d.ResetStats()
		leaves := tr.Leaves()
		for _, e := range entries[400:] {
			if err := tr.InsertEntry(e); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Leaves() <= leaves {
			t.Fatalf("%s: inserts split no leaf (%d leaves)", name, leaves)
		}
		note(name+"/insert", d, "tree.leaves", d.Stats(), fmt.Sprintf(" leaves=%d", tr.Leaves()))

		// A CLSM whose flushes cascade into merges, inline.
		d = storage.NewDisk(formatsPageSize)
		l, err := clsm.Open(clsm.Options{Disk: d, Name: "lsm", Config: cfg, GrowthFactor: 2, BufferEntries: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range walks { // the series of entries[i], at its TS
			if err := l.Insert(s, int64(i/7)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if l.Merges() == 0 {
			t.Fatalf("clsm mat=%v: no merge", mat)
		}
		note(fmt.Sprintf("clsm/mat=%v/packed=false", mat), d, "lsm.run.", d.Stats(),
			fmt.Sprintf(" flushes=%d merges=%d runs=%d", l.Flushes(), l.Merges(), l.Runs()))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(out, "\n") + "\n"
	path := filepath.Join("testdata", "entry_files.sha256")
	if *updateFormats {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("entry files differ from %s at line %d (rerun with -update if the format change is intended):\nwant %s\ngot  %s", path, i+1, w, g)
		}
	}
}

// formatWalks returns n random walks of cfg's length.
func formatWalks(cfg index.Config, n int, seed int64) []series.Series {
	rng := rand.New(rand.NewSource(seed))
	out := make([]series.Series, n)
	for i := range out {
		out[i] = gen.RandomWalk(rng, cfg.SeriesLen)
	}
	return out
}

// formatEntries summarizes walks under cfg as an index inserts them, in
// arrival (unsorted) order: entry i has ID i and TS i/7, timestamps that
// repeat.
func formatEntries(cfg index.Config, walks []series.Series) []record.Entry {
	out := make([]record.Entry, len(walks))
	for i, s := range walks {
		key, z := cfg.Summarize(s)
		out[i] = record.Entry{Key: key, ID: int64(i), TS: int64(i / 7)}
		if cfg.Materialized {
			out[i].Payload = z
		}
	}
	return out
}

func sortedCopy(entries []record.Entry) []record.Entry {
	out := append([]record.Entry(nil), entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// writeUnsorted writes entries as plain fixed-size records, Sort's input.
func writeUnsorted(t *testing.T, d *storage.Disk, c record.Codec, entries []record.Entry) {
	t.Helper()
	w, err := storage.NewRecordWriter(d, "in", c.Size())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := c.Encode(e)
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
}

// fileSum hashes every page of a file.
func fileSum(t *testing.T, d *storage.Disk, name string) []byte {
	t.Helper()
	n, err := d.NumPages(name)
	if err != nil {
		t.Fatal(err)
	}
	h, page := sha256.New(), make([]byte, d.PageSize())
	for p := int64(0); p < n; p++ {
		if _, err := d.ReadPage(name, p, page); err != nil {
			t.Fatal(err)
		}
		h.Write(page)
	}
	return h.Sum(nil)
}
