package run

import (
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

	"repro/internal/bufpool"
	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

const testPageSize = 512 // 16 fixed-size entries to a page

var testCfg = index.Config{SeriesLen: 64, Segments: 8, Bits: 8}

// normStore serves the z-normalized series the entries summarize.
type normStore []series.Series

func (n normStore) Get(id int) (series.Series, error) { return n[id], nil }
func (n normStore) Count() int                        { return len(n) }

// testEntries summarizes n random walks (ID = TS = position) and returns
// them in (Key, ID) order with the raw store that resolves them.
func testEntries(n int, seed int64) ([]record.Entry, normStore) {
	rng := rand.New(rand.NewSource(seed))
	raw := make(normStore, n)
	entries := make([]record.Entry, n)
	for i := range entries {
		key, z := testCfg.Summarize(gen.RandomWalk(rng, testCfg.SeriesLen))
		raw[i] = z
		entries[i] = record.Entry{Key: key, ID: int64(i), TS: int64(i)}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
	return entries, raw
}

func testQueries(n int, seed int64) []index.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]index.Query, n)
	for i := range qs {
		qs[i] = index.NewQuery(gen.RandomWalk(rng, testCfg.SeriesLen), testCfg)
	}
	return qs
}

// The three page sources a run is read through.
var readerKinds = []string{"heap", "memfs", "pool"}

// meter is the accounting of a page source: the disk's, or a pool's (the
// disk's plus the cache counters).
type meter interface {
	Stats() storage.Stats
	ResetStats()
}

// newStore builds a store of the given kind: the heap disk, host files on
// MemFS, or a buffer pool (large enough to hold a test run) over the heap
// disk.
func newStore(t *testing.T, kind string, raw series.RawStore) (s Store, disk *storage.Disk, stats meter) {
	return newStoreOf(t, kind, testPageSize, testCfg, raw)
}

// newStoreOf is newStore for entries of cfg's shape on pages of pageSize.
func newStoreOf(t *testing.T, kind string, pageSize int, cfg index.Config, raw series.RawStore) (s Store, disk *storage.Disk, stats meter) {
	t.Helper()
	disk = storage.NewDisk(pageSize)
	if kind == "memfs" {
		var err error
		disk, err = storage.NewFileDisk(storage.FileDiskOptions{Dir: "d", FS: fsx.NewMemFS(), PageSize: pageSize})
		if err != nil {
			t.Fatal(err)
		}
	}
	s, stats = NewStore(disk, nil, cfg, raw), disk
	if kind == "pool" {
		pool := bufpool.New(disk, int64(64*pageSize))
		s, stats = NewStore(disk, pool, cfg, raw), pool
	}
	return s, disk, stats
}

// readPages decodes a run file page by page through a record.Layout of its
// encoding — independent of the run package's page arithmetic.
func readPages(t *testing.T, disk *storage.Disk, r Run) [][]record.Entry {
	t.Helper()
	l, err := record.NewLayout(testCfg.Codec(), disk.PageSize(), r.Packed)
	if err != nil {
		t.Fatal(err)
	}
	var pages [][]record.Entry
	var pg record.PageView
	buf := make([]byte, disk.PageSize())
	for p, left := int64(0), r.Count; left > 0; p++ {
		_, err := disk.ReadPage(r.File, p, buf)
		if err == nil {
			err = l.NextPage(&pg, buf, left)
		}
		page, err2 := pg.Entries()
		if err != nil || err2 != nil {
			t.Fatalf("page %d: %v %v", p, err, err2)
		}
		left -= int64(len(page))
		pages = append(pages, page)
	}
	return pages
}

func flatten(pages [][]record.Entry) []record.Entry {
	var out []record.Entry
	for _, p := range pages {
		out = append(out, p...)
	}
	return out
}

func sameEntries(t *testing.T, what string, got, want []record.Entry) {
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

// bruteKNN is the reference answer over a set of entries: true distance to
// every in-window entry.
func bruteKNN(q index.Query, entries []record.Entry, raw normStore, k int) []index.Result {
	col := index.NewCollector(k)
	for _, e := range entries {
		if q.InWindow(e.TS) {
			col.Add(index.Result{ID: e.ID, TS: e.TS, Dist: math.Sqrt(q.Norm.SqDist(raw[e.ID]))})
		}
	}
	return col.Results()
}

func sameResults(t *testing.T, what string, got, want []index.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("%s: result %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// search runs one store operation (Probe or ScanKNN) into a fresh collector.
func search(t *testing.T, s *Store, r Run, q index.Query, pl *index.Planner, k int, op func(*Store, Run, index.Query, *index.Collector, *index.Scratch) error) []index.Result {
	t.Helper()
	ctx := index.AcquireCtx(q, testCfg)
	defer ctx.Release()
	ctx.Planner = pl
	col := index.NewCollector(k)
	if err := op(s, r, q, col, ctx.Scratch0()); err != nil {
		t.Fatal(err)
	}
	return col.Results()
}

// scriptStats are the Stats of the access script TestRunTable replays: 300
// entries of testEntries(300, 7) in one run, one worker; write = the write;
// approx = three probes, each pinning its way to its page (⌈log₂P⌉ or one
// fewer first-key pins, then the covering pin: the pinned-probe hook); then
// the running total after three more probes and a whole-run scan each. The
// write, approx and unplanned figures are the parent's: what clsm.LSM (and,
// for the fixed encoding, stream.BTP — the same numbers) produced at the
// commit before runs had resident summaries, planner off, every page a scan
// reached pinned — measured there, not derived from this package. The
// planned figures are the same script under Scan's skip rule. On a pool,
// whose cache holds the run, pages are skipped on their envelopes alone: the
// scans make fewer hits and the same misses. On a disk, pages are skipped on
// their entries' bounds too: the scans make fewer sequential reads and one
// random read fewer.
var scriptStats = map[string]struct {
	pages                             int64
	write, approx, unplanned, planned storage.Stats
}{
	"fixed/disk": {19, storage.Stats{SeqWrites: 18, RandWrites: 1},
		storage.Stats{SeqReads: 5, RandReads: 11}, storage.Stats{SeqReads: 64, RandReads: 25}, storage.Stats{SeqReads: 43, RandReads: 24}},
	"fixed/pool": {19, storage.Stats{SeqWrites: 18, RandWrites: 1},
		storage.Stats{SeqReads: 3, RandReads: 7, CacheHits: 6, CacheMisses: 10},
		storage.Stats{SeqReads: 8, RandReads: 11, CacheHits: 70, CacheMisses: 19},
		storage.Stats{SeqReads: 8, RandReads: 11, CacheHits: 60, CacheMisses: 19}},
	"packed/disk": {7, storage.Stats{SeqWrites: 6, RandWrites: 1},
		storage.Stats{SeqReads: 5, RandReads: 7}, storage.Stats{SeqReads: 26, RandReads: 19}, storage.Stats{SeqReads: 19, RandReads: 18}},
	"packed/pool": {7, storage.Stats{SeqWrites: 6, RandWrites: 1},
		storage.Stats{SeqReads: 1, RandReads: 4, CacheHits: 7, CacheMisses: 5},
		storage.Stats{SeqReads: 1, RandReads: 6, CacheHits: 38, CacheMisses: 7},
		storage.Stats{SeqReads: 1, RandReads: 6, CacheHits: 34, CacheMisses: 7}},
}

// TestRunTable checks one written run on every encoding and page source:
// the file holds exactly its entries, the synopsis and the resident summary
// are the ones a rescan builds, Probe and ScanKNN answer as brute force does,
// and the access script costs exactly its scriptStats row — with the planner
// disabled what it cost before the summaries, with it enabled that less the
// pages the scans skipped — with the probe pinning its way to its page (a
// test hook), and with the fence-key probe that many pins fewer. Its
// dead-run rows hold the skip rule to its prediction on runs laid out for it.
func TestRunTable(t *testing.T) {
	entries, raw := testEntries(300, 7)
	queries := testQueries(3, 99)
	for _, packed := range []bool{false, true} {
		for _, kind := range readerKinds {
			enc, src := "fixed", "disk"
			if packed {
				enc = "packed"
			}
			if kind == "pool" {
				src = "pool"
			}
			t.Run(enc+"/"+kind, func(t *testing.T) {
				row := scriptStats[enc+"/"+src]
				s, disk, stats := newStore(t, kind, raw)
				r, err := writeRun(s, "r", entries, packed)
				if err != nil {
					t.Fatal(err)
				}
				if r.File != "r" || r.Count != 300 || r.Packed != packed {
					t.Fatalf("descriptor %+v", r)
				}
				if got := disk.Stats(); got != row.write {
					t.Errorf("write stats %+v, parent %+v", got, row.write)
				}
				if n := r.Sum.Pages(); int64(n) != row.pages {
					t.Fatalf("Pages = %d; parent wrote %d", n, row.pages)
				}
				if err := s.Verify(r); err != nil {
					t.Fatal(err)
				}
				// What a pass over the file rebuilds — the synopsis and
				// summary of a reopened index — is what the writer built.
				if loaded, err := s.Load(Run{File: r.File, Count: r.Count, Packed: r.Packed}, nil, nil); err != nil || !reflect.DeepEqual(loaded, r) {
					t.Fatalf("Load rebuilds %+v, %+v (%v), the writer built %+v, %+v", loaded.Syn, loaded.Sum, err, r.Syn, r.Sum)
				}
				pages := readPages(t, disk, r)
				sameEntries(t, "written run", flatten(pages), entries)
				if rebuilt := rescan(entries); !reflect.DeepEqual(r.Syn, rebuilt) {
					t.Errorf("synopsis %+v, rescan gives %+v", r.Syn, rebuilt)
				}
				// A page access is a read of the disk, or with a pool a hit
				// or a miss. The fence-key probe makes one per run; what it
				// no longer pins it also no longer leaves in the pool, so
				// only the total is comparable.
				accesses := func(st storage.Stats) int64 {
					if src == "pool" {
						return st.CacheHits + st.CacheMisses
					}
					return st.SeqReads + st.RandReads
				}

				for _, planned := range []bool{false, true} {
					name, want := "unplanned", row.unplanned
					if planned {
						name, want = "planned", row.planned
					}
					t.Run(name, func(t *testing.T) {
						pl := &index.Planner{Disabled: !planned}
						for i, q := range append(queries, queries[0].WithWindow(50, 220)) {
							// The probe settles on the last page whose first
							// key is not above the query key (page 0 when none
							// is).
							cover := 0
							for p := range pages {
								if !q.Key.Less(pages[p][0].Key) {
									cover = p
								}
							}
							sameResults(t, fmt.Sprintf("probe %d", i), search(t, &s, r, q, pl, 5, (*Store).Probe), bruteKNN(q, pages[cover], raw, 5))
							sameResults(t, fmt.Sprintf("scan %d", i), search(t, &s, r, q, pl, 5, (*Store).ScanKNN), bruteKNN(q, entries, raw, 5))
						}

						script := func() (approx, exact storage.Stats, skips int64) {
							if p, ok := s.Reader.(*bufpool.Pool); ok {
								p.Purge() // the parent's script started cold
							}
							stats.ResetStats()
							skips = pl.Skips()
							for _, q := range queries {
								search(t, &s, r, q, pl, 5, (*Store).Probe)
							}
							approx = stats.Stats()
							for _, q := range queries {
								search(t, &s, r, q, pl, 5, (*Store).Probe)
								search(t, &s, r, q, pl, 5, (*Store).ScanKNN)
							}
							return approx, stats.Stats(), pl.Skips() - skips
						}
						pins := ProbePins()
						SetPinnedProbe(true)
						approx, exact, skips := script()
						SetPinnedProbe(false)
						pins = ProbePins() - pins
						if approx != row.approx || exact != want {
							t.Errorf("pinning probes: 3 probes %+v, +3 probe+scan %+v; want %+v, %+v", approx, exact, row.approx, want)
						}
						// Every page a scan skipped is one access fewer than
						// the parent's, and the planner counted it.
						if saved := accesses(row.unplanned) - accesses(exact); skips != saved || planned != (skips > 0) {
							t.Errorf("the planner counted %d skipped pages; the scans made %d accesses fewer than the parent's", skips, saved)
						}
						approx, exact, _ = script()
						if got := accesses(approx); got != 3 {
							t.Errorf("3 fence-key probes made %d page accesses: %+v", got, approx)
						}
						if got, want := accesses(exact), accesses(want)-pins; pins == 0 || got != want {
							t.Errorf("fence-key probes: %d page accesses (%+v), want the pinning script's less %d first-key pins = %d", got, exact, pins, want)
						}
					})
				}
			})
		}
	}
	for _, shape := range deadShapes {
		for _, packed := range []bool{false, true} {
			for _, kind := range readerKinds {
				enc := "fixed"
				if packed {
					enc = "packed"
				}
				t.Run("dead/"+shape.name+"/"+enc+"/"+kind, func(t *testing.T) { deadRunRow(t, shape.blocks, packed, kind) })
			}
		}
	}
}

// deadCfg is a materialized shape whose entry fills a page alone in either
// encoding on deadPageSize pages (544 bytes fixed-size, 564 packed): a run
// of it has a page an entry, so its dead runs are exactly as long as the
// entries that make them.
var deadCfg = index.Config{SeriesLen: 64, Segments: 8, Bits: 8, Materialized: true}

const deadPageSize = 1024

// blockSeries is the z-normalized, piecewise-constant series of deadCfg's
// shape whose first two segments sit at a0 and a1 and whose last six even out
// its mean and variance, three above zero and three below. The signs of a0
// and a1 are the first two bits of its key, so series sort by them.
func blockSeries(a0, a1 float64) series.Series {
	c := -(a0 + a1) / 6
	d := math.Sqrt((8-a0*a0-a1*a1)/6 - c*c)
	s := make(series.Series, 0, deadCfg.SeriesLen)
	for _, v := range []float64{a0, a1, c + d, c + d, c + d, c - d, c - d, c - d} {
		for i := 0; i < deadCfg.SeriesLen/deadCfg.Segments; i++ {
			s = append(s, v)
		}
	}
	return s
}

// deadBlocks are the four series a dead-run row lays its run out from, in
// key order, and deadQuery the series they are dead or live to within
// deadEps: it sits 0.3 from the live blocks' first segment and on their
// second, and 3 from the dead blocks' second segment — a distance of about
// 0.9 against a lower bound of about 8.
var (
	deadBlocks = [4]struct {
		a0, a1 float64
		dead   bool
	}{{-0.3, -1.5, false}, {-0.3, 1.5, true}, {0.3, -1.5, false}, {0.3, 1.5, true}}
	deadQuery = blockSeries(0, -1.5)
)

const deadEps = 3

// deadShapes are the dead-run rows: how many entries, so pages, of each of
// deadBlocks a run holds, in order.
var deadShapes = []struct {
	name   string
	blocks [4]int
}{
	{"leading", [4]int{0, 5, 4, 0}},
	{"trailing", [4]int{4, 0, 0, 5}},
	{"interior-short", [4]int{3, interiorSkipRun - 1, 3, 0}},
	{"interior-long", [4]int{3, interiorSkipRun, 3, 0}},
	{"all", [4]int{0, 4, 0, 4}},
	{"none", [4]int{4, 0, 4, 0}},
}

// readsByRule is Scan's skip rule written out over pages' deadness: the
// pages a planned scan reads are all but its leading and trailing dead runs
// and its interior ones of at least interiorSkipRun pages.
func readsByRule(dead []bool) int {
	reads := 0
	for i, j := 0, 0; i < len(dead); i = j {
		for j = i; j < len(dead) && dead[j] == dead[i]; j++ {
		}
		if !dead[i] || i > 0 && j < len(dead) && j-i < interiorSkipRun {
			reads += j - i
		}
	}
	return reads
}

// deadRunRow is one dead-run row: a run of the given block counts, scanned
// whole by a range query (whose dead pages are fixed: those of dead blocks)
// and a k-NN query, each with the planner disabled and enabled, from a parked
// head and a cold pool. Answers match brute force; the range scan reads every
// page unplanned and readsByRule's count planned, reports the others as
// skipped "page" units to the trace and the planner and every dead page it
// reads as undecoded; and no planned scan costs more than the unplanned one.
func deadRunRow(t *testing.T, blocks [4]int, packed bool, kind string) {
	var entries []record.Entry
	var dead []bool
	raw := normStore{}
	for b, n := range blocks {
		key, z := deadCfg.Summarize(blockSeries(deadBlocks[b].a0, deadBlocks[b].a1))
		for i := 0; i < n; i++ {
			id := int64(len(entries))
			entries = append(entries, record.Entry{Key: key, ID: id, TS: id, Payload: z})
			dead = append(dead, deadBlocks[b].dead)
			raw = append(raw, z)
		}
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Less(entries[j]) }) {
		t.Fatal("the blocks are not in key order")
	}
	s, _, stats := newStoreOf(t, kind, deadPageSize, deadCfg, nil)
	r, err := writeRun(s, "r", entries, packed)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Sum.Pages(); n != len(entries) {
		t.Fatalf("%d entries on %d pages, want one a page", len(entries), n)
	}
	accesses := func(st storage.Stats) int64 {
		if kind == "pool" {
			return st.CacheHits + st.CacheMisses
		}
		return st.SeqReads + st.RandReads
	}
	q := index.NewQuery(deadQuery, deadCfg)
	scan := func(planned bool, op func(q index.Query, sc *index.Scratch) error) (storage.Stats, *obs.TraceSnapshot, int64) {
		pl := &index.Planner{Disabled: !planned}
		if p, ok := s.Reader.(*bufpool.Pool); ok {
			p.Purge()
		}
		stats.ResetStats()
		q := q
		q.Trace = obs.NewQueryTrace()
		ctx := index.AcquireCtx(q, deadCfg)
		defer ctx.Release()
		ctx.Planner = pl
		if err := op(q, ctx.Scratch0()); err != nil {
			t.Fatal(err)
		}
		return stats.Stats(), q.Trace.Snapshot(), pl.Skips()
	}
	want := index.NewRangeCollector(deadEps)
	for _, e := range entries {
		want.Add(index.Result{ID: e.ID, TS: e.TS, Dist: math.Sqrt(q.Norm.SqDist(raw[e.ID]))})
	}
	var cost [2]float64
	for i, planned := range []bool{false, true} {
		var got []index.Result
		st, tr, skips := scan(planned, func(q index.Query, sc *index.Scratch) error {
			col := index.NewRangeCollector(deadEps)
			err := s.ScanRange(r, q, col, sc)
			got = col.Results()
			return err
		})
		sameResults(t, fmt.Sprintf("planned=%v range", planned), got, want.Results())
		reads, live := len(dead), 0
		if planned {
			reads = readsByRule(dead)
		}
		for _, d := range dead {
			if !d {
				live++
			}
		}
		kinds := map[string]obs.KindCount{}
		for _, k := range tr.Kinds {
			kinds[k.Kind] = k
		}
		if got := accesses(st); got != int64(reads) || skips != int64(len(dead)-reads) {
			t.Errorf("planned=%v: %d page accesses (%+v) and %d skips counted, want %d and %d", planned, got, st, skips, reads, len(dead)-reads)
		}
		if k := kinds["page"]; k.Probed != int64(reads) || k.Skipped != skips || tr.PlannedSkips != skips || tr.UndecodedPages != int64(reads-live) {
			t.Errorf("planned=%v: trace %+v with %d undecoded, want %d pages read, %d skipped, %d undecoded", planned, tr.Kinds, tr.UndecodedPages, reads, skips, reads-live)
		}
		cost[i] = st.Cost(storage.DefaultCostModel)
	}
	if cost[1] > cost[0] {
		t.Errorf("range: the planned scan costs %v, the unplanned %v", cost[1], cost[0])
	}
	for i, planned := range []bool{false, true} {
		var got []index.Result
		st, _, _ := scan(planned, func(q index.Query, sc *index.Scratch) error {
			col := index.NewCollector(3)
			err := s.ScanKNN(r, q, col, sc)
			got = col.Results()
			return err
		})
		sameResults(t, fmt.Sprintf("planned=%v k-NN", planned), got, bruteKNN(q, entries, raw, 3))
		cost[i] = st.Cost(storage.DefaultCostModel)
	}
	if cost[1] > cost[0] {
		t.Errorf("k-NN: the planned scan costs %v, the unplanned %v", cost[1], cost[0])
	}
}

func rescan(entries []record.Entry) *zonestat.Synopsis {
	syn := zonestat.New(testCfg.Segments, testCfg.Bits)
	for _, e := range entries {
		syn.Add(e.Key, e.TS)
	}
	return syn
}

// TestRunMerge merges runs of mixed encodings, a packed one written as
// older builds wrote it (writeRun), into a fixed-size run: the merged run
// holds the sorted union, its synopsis is the one a rescan of
// the merged file builds — which is the union of the inputs' — its summary
// is the file's, and the inputs stay intact.
func TestRunMerge(t *testing.T) {
	a, _ := testEntries(130, 1)
	b, _ := testEntries(70, 2)
	c, _ := testEntries(45, 3)
	for i := range b { // IDs and timestamps disjoint across inputs
		b[i].ID, b[i].TS = b[i].ID+1000, b[i].TS+1000
	}
	for i := range c {
		c[i].ID, c[i].TS = c[i].ID+2000, c[i].TS-500
	}
	all := append(append(append([]record.Entry{}, a...), b...), c...)
	sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })

	for _, kind := range []string{"heap", "memfs"} {
		t.Run(kind, func(t *testing.T) {
			s, disk, _ := newStore(t, kind, nil)
			var inputs []Run
			for i, part := range [][]record.Entry{a, b, c} {
				r, err := writeRun(s, fmt.Sprintf("in%d", i), part, i == 1)
				if err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, r)
			}
			m, err := s.Merge(inputs, "merged")
			if err != nil {
				t.Fatal(err)
			}
			if m.File != "merged" || m.Count != int64(len(all)) || m.Packed {
				t.Fatalf("descriptor %+v", m)
			}
			merged := flatten(readPages(t, disk, m))
			sameEntries(t, "merged run", merged, all)
			rebuilt := rescan(merged)
			if !reflect.DeepEqual(m.Syn, rebuilt) {
				t.Errorf("merged synopsis %+v, rescan gives %+v", m.Syn, rebuilt)
			}
			// The inputs' union: their entries, summarized together.
			if union := rescan(all); !reflect.DeepEqual(m.Syn, union) {
				t.Errorf("merged synopsis %+v, the inputs' union %+v", m.Syn, union)
			}
			if err := s.Verify(m); err != nil {
				t.Fatal(err)
			}
			for i, in := range inputs {
				sameEntries(t, in.File, flatten(readPages(t, disk, in)), [][]record.Entry{a, b, c}[i])
			}
		})
	}
}

// TestFaultInjectionLeavesNoFile injects a write fault into Write and into
// Merge, of a fixed-size input and of a packed one: the error surfaces with
// no run — and so no summary of the entries the writer had got through — and
// the partial output is gone from the disk and from the filesystem beneath
// it.
func TestFaultInjectionLeavesNoFile(t *testing.T) {
	entries, _ := testEntries(300, 7)
	for _, packed := range []bool{false, true} {
		t.Run(fmt.Sprintf("packed=%v", packed), func(t *testing.T) {
			fsys := fsx.NewMemFS()
			disk, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "d", FS: fsys, PageSize: testPageSize})
			if err != nil {
				t.Fatal(err)
			}
			s := NewStore(disk, nil, testCfg, nil)
			in, err := writeRun(s, "in", entries, packed)
			if err != nil {
				t.Fatal(err)
			}
			before := disk.TotalPages()
			fsys.SetFaultHook(func(op, path string) error {
				if op == "write" && strings.Contains(path, "out") {
					return fsx.ErrInjected
				}
				return nil
			})
			if r, err := s.Write("out", entries); !errors.Is(err, fsx.ErrInjected) || !reflect.DeepEqual(r, Run{}) {
				t.Fatalf("Write: %+v, %v, want no run and the injected fault", r, err)
			}
			if r, err := s.Merge([]Run{in, in}, "out"); !errors.Is(err, fsx.ErrInjected) || !reflect.DeepEqual(r, Run{}) {
				t.Fatalf("Merge: %+v, %v, want no run and the injected fault", r, err)
			}
			fsys.SetFaultHook(nil)
			if disk.Exists("out") || disk.TotalPages() != before {
				t.Errorf("partial output left behind: exists=%v, pages %d -> %d", disk.Exists("out"), before, disk.TotalPages())
			}
			if _, err := fsys.Stat("d/out.cpg"); err == nil {
				t.Error("partial output file still on the filesystem")
			}
			// The name is free again.
			out, err := s.Write("out", entries)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Verify(out); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWarmScanDoesNotAllocate pins the scan loop's cost: one cursor, pages
// handed to the evaluator by value, no per-page or per-run garbage.
func TestWarmScanDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	entries, raw := testEntries(300, 7)
	q := testQueries(1, 99)[0]
	for _, packed := range []bool{false, true} {
		for _, kind := range readerKinds {
			t.Run(fmt.Sprintf("packed=%v/%s", packed, kind), func(t *testing.T) {
				s, _, _ := newStore(t, kind, raw)
				r, err := writeRun(s, "r", entries, packed)
				if err != nil {
					t.Fatal(err)
				}
				ctx := index.AcquireCtx(q, testCfg)
				col := index.NewCollector(5)
				scan := func() {
					if err := s.ScanKNN(r, q, col, ctx.Scratch0()); err != nil {
						t.Fatal(err)
					}
				}
				scan()
				if n := testing.AllocsPerRun(50, scan); n >= 1 {
					t.Errorf("packed=%v %s: %.1f allocs per warm scan, want 0", packed, kind, n)
				}
				ctx.Release()
			})
		}
	}
}

// TestRunScanTraceMatchesReference: a traced resident scan reports the
// candidates (seen, verified, abandoned, pruned) the reference scan reports —
// the in-window entries of a page released undecoded, dead by its envelope or
// pruned entry by entry, count as seen and pruned, a windowed scan reading
// the count off the timestamp column — and, beside them, how many pages it
// released without decoding; the reference scan decodes every page it reads.
// Planned, both leave the same dead pages unread and report them as skipped
// "page" units; unplanned, every dead page is read, so some go undecoded.
func TestRunScanTraceMatchesReference(t *testing.T) {
	defer SetPageKeyBounds(false)
	entries, raw := testEntries(1200, 7)
	for _, c := range []struct {
		packed, planned bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		t.Run(fmt.Sprintf("packed=%v/planned=%v", c.packed, c.planned), func(t *testing.T) {
			packed := c.packed
			s, _, _ := newStore(t, "heap", raw)
			pl := &index.Planner{Disabled: !c.planned}
			r, err := writeRun(s, "r", entries, packed)
			if err != nil {
				t.Fatal(err)
			}
			pages, skipped := r.Sum.Pages(), int64(0)
			for i, q := range testQueries(6, 99) {
				trace := func(reference bool, scan func(q index.Query, sc *index.Scratch) error) *obs.TraceSnapshot {
					SetPageKeyBounds(reference)
					q.Trace = obs.NewQueryTrace()
					ctx := index.AcquireCtx(q, testCfg)
					defer ctx.Release()
					ctx.Planner = pl
					if err := scan(q, ctx.Scratch0()); err != nil {
						t.Fatal(err)
					}
					return q.Trace.Snapshot()
				}
				eps := 0.0
				knn := func(q index.Query, sc *index.Scratch) error {
					col := index.NewCollector(5)
					if err := s.Probe(r, q, col, sc); err != nil { // seeds the bound, as a search does
						return err
					}
					err := s.ScanKNN(r, q, col, sc)
					if res := col.Results(); len(res) > 2 {
						eps = res[2].Dist
					}
					return err
				}
				windowed := func(scan func(index.Query, *index.Scratch) error) func(index.Query, *index.Scratch) error {
					return func(q index.Query, sc *index.Scratch) error { return scan(q.WithWindow(200, 700), sc) }
				}
				rng := func(q index.Query, sc *index.Scratch) error {
					return s.ScanRange(r, q, index.NewRangeCollector(eps), sc)
				}
				for _, mode := range []struct {
					name string
					scan func(index.Query, *index.Scratch) error
				}{{"knn", knn}, {"range", rng}, {"windowed knn", windowed(knn)}, {"windowed range", windowed(rng)}} {
					want, got := trace(true, mode.scan), trace(false, mode.scan)
					if want.UndecodedPages != 0 || want.Candidates.Seen == 0 {
						t.Fatalf("packed=%v query %d %s: the reference scan saw %d candidates and left %d pages undecoded", packed, i, mode.name, want.Candidates.Seen, want.UndecodedPages)
					}
					if got.UndecodedPages == 0 && !c.planned || got.UndecodedPages > int64(pages)+1 {
						t.Fatalf("packed=%v query %d %s: %d of %d pages undecoded", packed, i, mode.name, got.UndecodedPages, pages)
					}
					if skipped += got.PlannedSkips; !c.planned && skipped != 0 {
						t.Fatalf("packed=%v query %d %s: the unplanned scan skipped %d pages", packed, i, mode.name, skipped)
					}
					got.UndecodedPages = 0
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("packed=%v query %d %s: traces diverged:\nreference: %+v\nresident:  %+v", packed, i, mode.name, want, got)
					}
				}
			}
			if c.planned && skipped == 0 {
				t.Errorf("packed=%v: the planned scans skipped no page", packed)
			}
		})
	}
}

// writeRun puts sorted entries into a new run of s: fixed-size through
// Write, or packed as older builds wrote it (full pages of the packed
// layout's page builder), summarized as Write summarizes.
func writeRun(s Store, name string, entries []record.Entry, packed bool) (Run, error) {
	if !packed {
		return s.Write(name, entries)
	}
	l, err := s.Layout(true)
	if err == nil {
		err = s.Disk.Create(name)
	}
	b := NewBuilder(s.Config, int64(len(entries)), s.Disk.PageSize()/s.Codec().Size())
	pb, page := l.Builder(), make([]byte, s.Disk.PageSize())
	for i := 0; err == nil && i < len(entries); {
		for from, ok := i, true; err == nil && ok && i < len(entries); {
			if ok, err = pb.TryAdd(entries[i]); ok {
				b.Observe(entries[i].Key, entries[i].ID, entries[i].TS, i == from)
				i++
			}
		}
		if err == nil {
			_, err = pb.Encode(page)
		}
		if err == nil {
			_, err = s.Disk.AppendPages(name, page)
		}
	}
	if err != nil {
		return Run{}, err
	}
	r := b.Run(name)
	r.Packed = true
	return r, nil
}

// TestLoadChecksTheCount: a file that cannot hold the entries its metadata
// claims — too few fixed-size pages, packed pages whose counts add up to
// another number — is refused, not summarized.
func TestLoadChecksTheCount(t *testing.T) {
	entries, _ := testEntries(300, 7)
	for _, packed := range []bool{false, true} {
		t.Run(fmt.Sprintf("packed=%v", packed), func(t *testing.T) {
			s, _, _ := newStore(t, "heap", nil)
			r, err := writeRun(s, "r", entries, packed)
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range []int64{-1, 1, testPageSize} {
				bad := Run{File: r.File, Count: r.Count + off, Packed: packed}
				if !packed && off < testPageSize/int64(testCfg.Codec().Size()) {
					continue // a fixed-size file carries no counts: only its length can disagree
				}
				if got, err := s.Load(bad, nil, nil); err == nil {
					t.Errorf("packed=%v: Load accepted a count of %d for a file of %d entries: %+v", packed, bad.Count, r.Count, got)
				}
			}
			if err := s.Verify(r); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecodeSummaryChecksEnvelopes: a scan skips a page on its envelope
// alone, so a decoded summary whose stored envelope is not its page's
// entries' symbol range must not be used. Narrowed to the symbols farthest
// from a query, the envelope of the page that holds the query's nearest
// neighbour makes an exact scan skip that page and answer wrong;
// DecodeSummary names the page instead. So it does for one changed envelope
// byte anywhere.
func TestDecodeSummaryChecksEnvelopes(t *testing.T) {
	entries, raw := testEntries(2000, 13)
	s, _, _ := newStore(t, "heap", raw)
	r, err := s.Write("r", entries)
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Sum.AppendBinary(nil)
	if _, syn, err := DecodeSummary(buf, testCfg, r.Count); err != nil || !reflect.DeepEqual(syn, r.Syn) {
		t.Fatalf("decoded synopsis %+v (%v), the writer built %+v", syn, err, r.Syn)
	}
	q := testQueries(1, 17)[0]
	ctx := index.AcquireCtx(q, testCfg)
	defer ctx.Release()
	scan := func(r Run) index.Result {
		col := index.NewCollector(1)
		if err := s.ScanKNN(r, q, col, ctx.Scratch0()); err != nil {
			t.Fatal(err)
		}
		return col.Results()[0]
	}
	nn := scan(r)
	p, first := 0, 0
	for !slices.ContainsFunc(entries[first:first+r.Sum.Entries(p)], func(e record.Entry) bool { return e.ID == nn.ID }) {
		first += r.Sum.Entries(p)
		p++
	}
	w, pages := testCfg.Segments, r.Sum.Pages()
	qsyms := sortable.Symbols(q.Key, w, testCfg.Bits)
	narrowed := slices.Clone(buf)
	mins, maxs := narrowed[4+12*pages:], narrowed[4+12*pages+pages*w:]
	for seg := 0; seg < w; seg++ {
		far := uint8(0)
		if qsyms[seg] < 128 {
			far = 255
		}
		mins[p*w+seg], maxs[p*w+seg] = far, far
	}
	// Trusted, the narrowed envelope hides the answer.
	bad := *r.Sum
	bad.envMin, bad.envMax = mins[:pages*w], maxs[:pages*w]
	trusted := r
	trusted.Sum = &bad
	if got := scan(trusted); got.ID == nn.ID {
		t.Fatalf("fixture: page %d's narrowed envelope still lets the scan find %d", p, nn.ID)
	}
	if _, _, err := DecodeSummary(narrowed, testCfg, r.Count); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("page %d's", p)) {
		t.Fatalf("page %d's envelope narrowed away from the query: DecodeSummary error %v", p, err)
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		at := rng.Intn(2 * pages * w)
		one := slices.Clone(buf)
		one[4+12*pages+at] ^= 1 << rng.Intn(8)
		if _, _, err := DecodeSummary(one, testCfg, r.Count); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("page %d's", at%(pages*w)/w)) {
			t.Fatalf("envelope byte %d changed: DecodeSummary error %v", at, err)
		}
	}
}

// pageTracer records the page numbers a disk reads (of the one file a test
// run writes).
type pageTracer struct {
	mu    sync.Mutex
	pages map[int64]bool
}

func (p *pageTracer) Access(file string, page int64, write bool) {
	if !write {
		p.mu.Lock()
		p.pages[page] = true
		p.mu.Unlock()
	}
}

// entryDeadPageSize holds two deadCfg entries to a page in either encoding
// (1 088 bytes fixed-size, about 1 100 packed), and not three.
const entryDeadPageSize = 1200

// TestScanSkipsEntryDeadPages: a page whose envelope a query's bound leaves
// live, but whose every in-window entry that bound rules out, is decided by
// its entries — left unread, where it trails the scan, on a reader that
// keeps nothing, and counted as a planned skip. The run is two pages: two
// copies of l, which a k=1 query q finds at a distance between page 1's
// envelope bound and its entries' bounds, then a and b, which sort after l
// and span q's symbols on their first two segments between them, so that
// the envelope of page 1 comes near q though neither entry does. A windowed
// query for a itself, over l's timestamps only, finds page 1 live by every
// bound but holding no entry in its window. A buffer pool whose cache holds
// the run reads page 1 (it keeps what it reads: skipping would only move the
// read to a later query), and so does a scan with the planner disabled.
// Every answer is brute force's.
func TestScanSkipsEntryDeadPages(t *testing.T) {
	l, a, b, q := blockSeries(0.5, 0.5), blockSeries(0.1, 1.8), blockSeries(1.8, 0.1), blockSeries(1, 1)
	var entries []record.Entry
	raw := normStore{}
	for _, s := range []series.Series{l, l, a, b} {
		key, z := deadCfg.Summarize(s)
		id := int64(len(entries))
		entries = append(entries, record.Entry{Key: key, ID: id, TS: id, Payload: z})
		raw = append(raw, z)
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Less(entries[j]) }) {
		t.Fatal("fixture: l, a and b are not in key order")
	}
	for _, row := range []struct {
		name     string
		kind     string
		packed   bool
		disabled bool
		query    index.Query
		read1    bool // page 1 is read
	}{
		{"heap/fixed", "heap", false, false, index.NewQuery(q, deadCfg), false},
		{"heap/packed", "heap", true, false, index.NewQuery(q, deadCfg), false},
		{"memfs/fixed", "memfs", false, false, index.NewQuery(q, deadCfg), false},
		{"memfs/packed", "memfs", true, false, index.NewQuery(q, deadCfg), false},
		{"windowed/heap", "heap", false, false, index.NewQuery(a, deadCfg).WithWindow(0, 1), false},
		{"windowed/memfs", "memfs", true, false, index.NewQuery(a, deadCfg).WithWindow(0, 1), false},
		{"pool/fixed", "pool", false, false, index.NewQuery(q, deadCfg), true},
		{"pool/packed", "pool", true, false, index.NewQuery(q, deadCfg), true},
		{"unplanned/heap", "heap", false, true, index.NewQuery(q, deadCfg), true},
		{"unplanned/memfs", "memfs", true, true, index.NewQuery(q, deadCfg), true},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, disk, _ := newStoreOf(t, row.kind, entryDeadPageSize, deadCfg, nil)
			r, err := writeRun(s, "r", entries, row.packed)
			if err != nil {
				t.Fatal(err)
			}
			if n := r.Sum.Pages(); n != 2 || r.Sum.Entries(0) != 2 {
				t.Fatalf("fixture: %d entries on %d pages, want two a page", len(entries), n)
			}
			want := bruteKNN(row.query, entries, raw, 1)
			ctx := index.AcquireCtx(row.query, deadCfg)
			defer ctx.Release()
			// The fixture's premise: page 1's envelope is live to the answer,
			// and so is one of its entries just when the query is windowed.
			kthSq := want[0].Dist * want[0].Dist
			if lb := ctx.P.EnvelopeSq(r.Sum.env(r.Sum.envMin, r.Sum.envMax, 1)); lb > kthSq {
				t.Fatalf("fixture: page 1's envelope bound %v is above the answer's %v", lb, kthSq)
			}
			live := false
			for _, e := range entries[2:] {
				live = live || ctx.P.MinDistSqKey(e.Key) <= kthSq
			}
			if live != row.query.Windowed {
				t.Fatalf("fixture: page 1 holds an entry live to the answer: %v, want %v", live, row.query.Windowed)
			}
			tr := &pageTracer{pages: map[int64]bool{}}
			disk.SetTracer(tr)
			pl := &index.Planner{Disabled: row.disabled}
			ctx.Planner = pl
			col := index.NewCollector(1)
			if err := s.ScanKNN(r, row.query, col, ctx.Scratch0()); err != nil {
				t.Fatal(err)
			}
			sameResults(t, "scan", col.Results(), want)
			if !tr.pages[0] || tr.pages[1] != row.read1 {
				t.Errorf("pages read %v; want page 0, and page 1 %v", tr.pages, row.read1)
			}
			if unread := int64(2 - len(tr.pages)); pl.Skips() != unread {
				t.Errorf("the planner counted %d skips; %d pages went unread", pl.Skips(), unread)
			}
		})
	}
}
