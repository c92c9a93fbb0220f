package ctree

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// writeLog is a storage.Tracer recording how many times each page of each
// file was written.
type writeLog struct {
	mu     sync.Mutex
	writes map[string]map[int64]int
}

func (l *writeLog) Access(file string, page int64, write bool) {
	if !write {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writes == nil {
		l.writes = make(map[string]map[int64]int)
	}
	if l.writes[file] == nil {
		l.writes[file] = make(map[int64]int)
	}
	l.writes[file][page]++
}

// sortedEntries summarizes ds as Build does and sorts the entries in memory:
// what the leaf level must hold, from no code the bulk load runs.
func sortedEntries(ds *series.Dataset, cfg index.Config) []record.Entry {
	out := make([]record.Entry, ds.Count())
	for id := range out {
		s, _ := ds.Get(id)
		key, z := cfg.Summarize(s)
		out[id] = record.Entry{Key: key, ID: int64(id), TS: int64(id % 7)}
		if cfg.Materialized {
			out[id].Payload = z
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func filePages(t *testing.T, d storage.Backend, name string) []byte {
	t.Helper()
	n, err := d.NumPages(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, int(n)*d.PageSize())
	if _, err := d.ReadPages(name, 0, int(n), buf); err != nil && n > 0 {
		t.Fatal(err)
	}
	return buf
}

// checkLeafLevel holds a bulk-loaded tree to the sorted entries it was built
// from. The leaf file is, byte for byte, those entries encoded leaf by leaf
// through the insert path's encodePage at the summary's counts; the counts
// are where the fill rule ends a page, at max(1, ⌊capacity·fill⌋) records;
// the fence keys, the synopsis and (run.Store.Verify) the rest of the
// summary are what the pages hold.
func checkLeafLevel(t *testing.T, tr *Tree, sorted []record.Entry) {
	t.Helper()
	disk, cfg, m := tr.opts.Disk, tr.opts.Config, tr.leaves.Sum
	pageSize := disk.PageSize()
	if tr.leaves.Count != int64(len(sorted)) {
		t.Fatalf("tree holds %d entries, want %d", tr.leaves.Count, len(sorted))
	}
	file := filePages(t, disk, tr.leaves.File)
	if len(file) != m.Pages()*pageSize {
		t.Fatalf("leaf file is %d bytes, %d leaves need %d", len(file), m.Pages(), m.Pages()*pageSize)
	}
	wantFixed := int(math.Max(1, math.Floor(float64(pageSize/tr.store.Codec().Size())*tr.opts.FillFactor)))
	syn := zonestat.New(cfg.Segments, cfg.Bits)
	off := 0
	for li := 0; li < m.Pages(); li++ {
		count := m.Entries(li)
		if count < 1 || off+count > len(sorted) {
			t.Fatalf("leaf %d claims %d entries at offset %d of %d", li, count, off, len(sorted))
		}
		entries := sorted[off : off+count]
		last := li == m.Pages()-1
		if got := m.FirstKey(li); got != entries[0].Key {
			t.Fatalf("leaf %d: fence key %v, first entry %v", li, got, entries[0].Key)
		}
		page, fits, err := tr.encodePage(entries)
		if err != nil || !fits {
			t.Fatalf("leaf %d: %d entries do not re-encode: fits=%v err=%v", li, count, fits, err)
		}
		want := make([]byte, pageSize)
		copy(want, page)
		if got := file[li*pageSize : (li+1)*pageSize]; !bytes.Equal(got, want) {
			t.Fatalf("leaf %d: page bytes differ from encodePage of its %d entries", li, count)
		}
		if count != wantFixed && !(last && count < wantFixed) {
			t.Fatalf("leaf %d holds %d records, the fill rule closes a page at %d", li, count, wantFixed)
		}
		for _, e := range entries {
			syms := sortable.Symbols(e.Key, cfg.Segments, cfg.Bits)
			syn.AddSyms(syms[:cfg.Segments], e.TS)
		}
		off += count
	}
	if off != len(sorted) {
		t.Fatalf("leaves hold %d entries, want %d", off, len(sorted))
	}
	if !reflect.DeepEqual(tr.leaves.Syn, syn) {
		t.Fatalf("synopsis differs from one built over the sorted entries")
	}
	if err := tr.store.Verify(tr.leaves); err != nil {
		t.Fatal(err)
	}
}

// resident is what a tree keeps in memory about its leaf level, for
// reflect.DeepEqual: the summary by its persistent form and its group count.
func resident(tr *Tree) []any {
	l := tr.leaves
	return []any{l.Count, l.Syn, l.Sum.AppendBinary(nil), l.Sum.Groups(), tr.capacity, tr.nextID64}
}

// TestBulkLoadTable is the bulk load's one table: the leaf level is what the
// sort wrote. Every row checks the leaf file and the resident state against
// the sorted entries (checkLeafLevel), that the build wrote the unsorted
// file, the sorter's temporaries and the leaf file — each leaf page exactly
// once — and left only the leaf file, that Parallelism 4 gives the serial
// build's bytes, that a partition loaded from the sorted entries
// (BuildFromEntries) creates only its leaf file, identical to the build's,
// that Save/Open round-trips, and that exact answers are brute force's and
// approximate ones true distances, the same on the reopened tree.
func TestBulkLoadTable(t *testing.T) {
	for _, mat := range []bool{false, true} {
		cfg := testConfig(mat)
		size := cfg.Codec().Size()
		pageSize := 256
		if mat {
			pageSize = 2048
		}
		// Sixteen entries to a run, and the fan-in the budget then allows.
		const bufEntries = 16
		budget := bufEntries * size
		fanIn := max(2, budget/pageSize)
		sizes := []struct {
			name   string
			n      int
			passes int // temporaries of pass p exist for p < passes (serial build)
		}{
			{"empty", 0, 0},
			{"one", 1, 0},
			{"one-buffer", bufEntries - 3, 0},
			{"many-runs", bufEntries * fanIn, 1},
			{"multi-pass", bufEntries*fanIn + 5, 2},
		}
		for _, sz := range sizes {
			ds := buildDataset(t, sz.n, int64(900+sz.n))
			sorted := sortedEntries(ds, cfg)
			for _, fill := range []float64{1.0, 0.9, 0.7, 0.34} {
				var serial []byte
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("mat=%v/%s/fill=%v/par=%d", mat, sz.name, fill, par)
					t.Run(name, func(t *testing.T) {
						disk := storage.NewDisk(pageSize)
						log := &writeLog{}
						disk.SetTracer(log)
						opts := Options{
							Disk: disk, Name: "t", Config: cfg, FillFactor: fill, MemBudget: budget,
							Raw: normStore{ds}, Parallelism: par,
						}
						tr, err := BuildTS(opts, ds, func(id int) int64 { return int64(id % 7) })
						if err != nil {
							t.Fatal(err)
						}
						checkLeafLevel(t, tr, sorted)

						if got := disk.Files(); !slices.Equal(got, []string{"t.leaves"}) {
							t.Fatalf("files after the build: %v", got)
						}
						passes := 0
						for file, pages := range log.writes {
							switch {
							case file == "t.unsorted":
							case file == "t.leaves":
								for p, n := range pages {
									if n != 1 {
										t.Fatalf("leaf page %d written %d times", p, n)
									}
								}
								if len(pages) != tr.Leaves() {
									t.Fatalf("%d leaf pages written, the tree has %d", len(pages), tr.Leaves())
								}
							case strings.HasPrefix(file, "t.sort.p"):
								var pass, run int
								if _, err := fmt.Sscanf(file, "t.sort.p%d.r%d", &pass, &run); err != nil {
									t.Fatalf("temporary %q: %v", file, err)
								}
								passes = max(passes, pass+1)
							default:
								t.Fatalf("the build wrote %q", file)
							}
						}
						if par == 1 && passes != sz.passes {
							t.Fatalf("temporaries of %d passes, the row is built to need %d", passes, sz.passes)
						}
						leafBytes := filePages(t, disk, "t.leaves")
						if par == 1 {
							serial = leafBytes
						} else if !bytes.Equal(leafBytes, serial) {
							t.Fatal("leaf file differs from the serial build's")
						}

						log.writes = nil
						opts.Name = "part"
						part, err := BuildFromEntries(opts, sorted)
						if err != nil {
							t.Fatal(err)
						}
						if got := disk.Files(); !slices.Equal(got, []string{"part.leaves", "t.leaves"}) {
							t.Fatalf("files after loading a partition: %v", got)
						}
						for file := range log.writes {
							if file != "part.leaves" {
								t.Fatalf("loading a partition wrote %q", file)
							}
						}
						if !bytes.Equal(filePages(t, disk, "part.leaves"), leafBytes) {
							t.Fatal("partition's leaf file differs from the build's")
						}
						if !reflect.DeepEqual(resident(part), resident(tr)) {
							t.Fatal("partition's resident state differs from the build's")
						}

						if err := tr.Save(); err != nil {
							t.Fatal(err)
						}
						re, err := Open(Options{Disk: disk, Name: "t", Raw: normStore{ds}})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(resident(re), resident(tr)) {
							t.Fatal("reopened tree's resident state differs from the built one's")
						}
						rng := rand.New(rand.NewSource(int64(sz.n)))
						for trial := 0; trial < 4; trial++ {
							s := gen.RandomWalk(rng, 64)
							q := index.NewQuery(s, cfg)
							want := bruteKNN(s, ds, 5)
							for _, x := range []*Tree{tr, re} {
								got, err := exactSearch(x, q, 5)
								if err != nil {
									t.Fatal(err)
								}
								if len(got) != len(want) {
									t.Fatalf("exact: %d results, want %d", len(got), len(want))
								}
								for i := range want {
									if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
										t.Fatalf("exact result %d: %+v, want %+v", i, got[i], want[i])
									}
								}
							}
							approx, err := approxSearch(tr, q, 5)
							if err != nil {
								t.Fatal(err)
							}
							if len(approx) != min(5, sz.n) {
								t.Fatalf("approximate: %d results of %d series", len(approx), sz.n)
							}
							all := bruteKNN(s, ds, sz.n)
							for _, r := range approx {
								i := slices.IndexFunc(all, func(w index.Result) bool { return w.ID == r.ID })
								if i < 0 || math.Abs(all[i].Dist-r.Dist) > 1e-9 {
									t.Fatalf("approximate result %+v is not series %d's distance", r, r.ID)
								}
							}
							reApprox, err := approxSearch(re, q, 5)
							if err != nil || !reflect.DeepEqual(reApprox, approx) {
								t.Fatalf("approximate on the reopened tree: %v, %v; built: %v", reApprox, err, approx)
							}
						}
					})
				}
			}
		}
	}
}

// TestBuildFaultLeavesNoFile fails, one at a time, every mutating operation
// a multi-pass bulk load makes on a file-backed disk: the build returns the
// injected error and leaves nothing on the disk — not the unsorted file, not
// a run of any pass, not a partial leaf file. The fault is one-shot (the
// operations after it succeed), so that the cleanup can be held to removing
// everything; the fault-free build leaves exactly the leaf file.
func TestBuildFaultLeavesNoFile(t *testing.T) {
	cfg := testConfig(false)
	ds := buildDataset(t, 150, 77)
	build := func(failAt int64) (files []string, ops int64, err error) {
		fsys := fsx.NewMemFS()
		disk, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "store", PageSize: 256, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		defer disk.Close()
		var n int64
		start := fsys.Ops()
		fsys.SetFaultHook(func(op, path string) error {
			if op == "read" {
				return nil
			}
			if n++; n == failAt {
				return fsx.ErrInjected
			}
			return nil
		})
		_, err = Build(Options{
			Disk: disk, Name: "t", Config: cfg, MemBudget: 8 * cfg.Codec().Size(), Raw: normStore{ds}, Parallelism: 1,
		}, ds, 0)
		fsys.SetFaultHook(nil)
		return disk.Files(), fsys.Ops() - start, err
	}
	files, ops, err := build(0)
	if err != nil || !slices.Equal(files, []string{"t.leaves"}) {
		t.Fatalf("fault-free build: files %v, err %v", files, err)
	}
	for failAt := int64(1); failAt <= ops; failAt++ {
		files, _, err := build(failAt)
		if !errors.Is(err, fsx.ErrInjected) {
			t.Fatalf("op %d of %d failed, the build returned %v", failAt, ops, err)
		}
		if len(files) != 0 {
			t.Fatalf("op %d of %d failed, the disk keeps %v", failAt, ops, files)
		}
	}
}
