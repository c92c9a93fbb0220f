package run_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	coconut "repro"
	"repro/internal/assemble"
	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/run"
	"repro/internal/series"
)

// The resident searches of a sorted run — page envelope, SAX and timestamp
// columns, page bytes for a survivor only, and probes that pick their pages
// in memory — are held here to the searches they replaced, which bounded and
// window-filtered every entry from its page's bytes (run.SetPageKeyBounds, a
// test hook) and pinned pages to pick a probe's (run.SetPinnedProbe, a
// second one). A CLSM run's probe pins its way to the covering page through
// the first keys; a BTP partition's ranked probe (run.Store.RankedProbe)
// pins each page it ranks and bounds its in-window entries from the page's
// bytes, which must keep, and then read, the pages the columns pick. Each
// scenario builds its index three times from the same data and runs the
// same operations:
//
//   - reference: page-key bounds, pinning probe;
//   - resident scan, pinning probe: the same answers and, for a serial
//     search, the same Stats record whole — sequential and random reads and
//     writes, cache hits and misses, planned skips. That is the claim "which
//     pages a scan reads, in what order, and what it leaves in the cache did
//     not change";
//   - resident scan, resident probe (what ships): the same answers —
//     approximate ones too, which name the pages a probe read — the same
//     writes and planned skips, and exactly as many page accesses fewer as
//     the reference's probes pinned to pick their pages. (Which of the
//     remaining accesses hit a cache, or count as sequential, does move: the
//     pages a probe no longer pins it no longer leaves behind.)
//
// The scenarios reach runs through every surface they sit behind: the
// facade's LSM (on the heap, on host files, under a pool smaller than a run,
// after merges, after a reopen that rebuilds every summary from its file,
// and opened from a saved snapshot, uncached and behind a pool) and its BTP
// stream; TP, whose partitions are trees,
// rides along as the control the hooks must not move. With several workers
// only the answers are compared (see internal/ctree's suite for why).

const equivLen = 64

func walks(seed int64, n, length int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = gen.RandomWalk(rng, length)
	}
	return out
}

func must[T any](t *testing.T) func(v T, err error) T {
	return func(v T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// scenario builds an index under opts, runs its operations, and returns
// every answer in order with the index's final accounting.
type scenario func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats)

// lsmIndex is what the LSM scenarios insert into and search.
type lsmIndex interface {
	Insert(s []float64, ts int64) error
	Search(q []float64, k int) ([]coconut.Match, error)
	SearchWindow(q []float64, k int, minTS, maxTS int64) ([]coconut.Match, error)
	SearchRange(q []float64, eps float64) ([]coconut.Match, error)
	SearchApprox(q []float64, k int) ([]coconut.Match, error)
	SearchBatch(qs [][]float64, k int) ([][]coconut.Match, error)
}

// built searches an assembled build as the facade searches its own. The
// planner-off row builds through assemble.Build and turns the build's planner
// to the reference path (Built.Planner.Disabled), which the facade has no
// option for.
type built struct{ *assemble.Built }

func matches(rs []index.Result, err error) ([]coconut.Match, error) {
	out := make([]coconut.Match, len(rs))
	for i, r := range rs {
		out[i] = coconut.Match{ID: int(r.ID), TS: r.TS, Dist: r.Dist}
	}
	return out, err
}

func (b built) query(q []float64) index.Query { return index.NewQuery(series.Series(q), b.Config) }

func (b built) Insert(s []float64, ts int64) error { return b.Ingest(series.Series(s), ts) }

func (b built) Search(q []float64, k int) ([]coconut.Match, error) {
	return matches(b.ExactSearch(b.query(q), k))
}

func (b built) SearchWindow(q []float64, k int, minTS, maxTS int64) ([]coconut.Match, error) {
	return matches(b.ExactSearch(b.query(q).WithWindow(minTS, maxTS), k))
}

func (b built) SearchRange(q []float64, eps float64) ([]coconut.Match, error) {
	return matches(b.RangeSearch(b.query(q), eps))
}

func (b built) SearchApprox(q []float64, k int) ([]coconut.Match, error) {
	return matches(b.ApproxSearch(b.query(q), k))
}

func (b built) SearchBatch(qs [][]float64, k int) ([][]coconut.Match, error) {
	iqs := make([]index.Query, len(qs))
	for i, q := range qs {
		iqs[i] = b.query(q)
	}
	rss, err := b.Built.SearchBatch(iqs, k)
	out := make([][]coconut.Match, len(rss))
	for i, rs := range rss {
		out[i], _ = matches(rs, nil)
	}
	return out, err
}

func (b built) Stats() coconut.Stats {
	st := b.IOStats()
	return coconut.Stats{
		SeqReads: st.SeqReads, RandReads: st.RandReads, SeqWrites: st.SeqWrites, RandWrites: st.RandWrites,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		Pages: b.TotalPages(), PlannedSkips: b.Searched.PlannedSkips(),
	}
}

func TestColumnScanEquivalence(t *testing.T) {
	data := walks(91, 2600, equivLen)
	queries := append(walks(93, 5, equivLen), data[17], data[2024]) // far ones and members
	base := coconut.Options{SeriesLen: equivLen, Segments: 8, Bits: 6, BufferEntries: 200, GrowthFactor: 3}
	full := base
	full.Materialized = true

	// lsmQueries is every search an LSM answers from its runs: exact,
	// windowed (a wide window and one inside a single flush), range around
	// the exact answer's third neighbour, approximate, and a batch.
	lsmQueries := func(t *testing.T, l lsmIndex, queries [][]float64) [][]coconut.Match {
		var ans [][]coconut.Match
		ms := must[[]coconut.Match](t)
		for _, q := range queries {
			exact := ms(l.Search(q, 5))
			ans = append(ans, exact,
				ms(l.SearchWindow(q, 5, 300, 1500)),
				ms(l.SearchWindow(q, 5, 900, 950)),
				ms(l.SearchRange(q, exact[2].Dist)),
				ms(l.SearchApprox(q, 5)))
		}
		return append(ans, must[[][]coconut.Match](t)(l.SearchBatch(queries, 3))...)
	}
	insert := func(t *testing.T, l lsmIndex, from, to int) {
		for i := from; i < to; i++ {
			if err := l.Insert(data[i], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 2500 inserts at 200 to a flush and 3 runs to a merge leave runs on
	// three levels and a part-filled buffer.
	lsm := func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
		l := must[*coconut.LSM](t)(coconut.NewLSM(opts))
		defer l.Close()
		insert(t, l, 0, 2500)
		return lsmQueries(t, l, queries), l.Stats()
	}
	// unplanned is lsm over base, assembled as NewLSM assembles it, with the
	// build's planner off.
	unplanned := func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
		l := built{must[*assemble.Built](t)(assemble.Build(assemble.Spec{
			Variant: "CLSM", SeriesLen: equivLen, Segments: 8, Bits: 6, BufferEntries: 200, GrowthFactor: 3,
			Parallelism: opts.Parallelism, RawInMemory: true,
		}, nil))}
		defer l.Close()
		l.Planner.Disabled = true
		insert(t, l, 0, 2500)
		return lsmQueries(t, l, queries), l.Stats()
	}
	// reopened closes the LSM half way and opens it again over the same
	// directories, so the searches run over summaries rebuilt from the run
	// files, and over the runs later flushes and merges make of them.
	reopened := func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
		opts.WALDir, opts.StorageDir = t.TempDir(), t.TempDir() // real files: MemFS copies a WAL segment at every sync
		l := must[*coconut.LSM](t)(coconut.NewLSM(opts))
		insert(t, l, 0, 1300)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l = must[*coconut.LSM](t)(coconut.NewLSM(opts))
		defer l.Close()
		ans := lsmQueries(t, l, queries)
		insert(t, l, 1300, 2500)
		return append(ans, lsmQueries(t, l, queries)...), l.Stats()
	}
	// opened saves the LSM half way as a snapshot and opens it again, so the
	// searches run over runs whose summaries were rebuilt from the
	// snapshot's files, then over those beside the runs later flushes and
	// merges make of them.
	opened := func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
		l := must[*coconut.LSM](t)(coconut.NewLSM(opts))
		insert(t, l, 0, 1300)
		path := filepath.Join(t.TempDir(), "snapshot.ccnut")
		if err := l.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l = must[*coconut.LSM](t)(coconut.OpenLSM(path, opts))
		defer l.Close()
		l.SetParallelism(opts.Parallelism)
		ans := lsmQueries(t, l, queries)
		insert(t, l, 1300, 2500)
		return append(ans, lsmQueries(t, l, queries)...), l.Stats()
	}
	stream := func(kind coconut.SchemeKind) scenario {
		return func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
			st := must[*coconut.Stream](t)(coconut.NewStream(kind, opts))
			defer st.Close()
			for i, s := range data[:2500] {
				must[int](t)(st.Ingest(s, int64(i)))
			}
			var ans [][]coconut.Match
			ms := must[[]coconut.Match](t)
			for _, q := range queries {
				ans = append(ans,
					ms(st.Search(q, 5)),
					ms(st.SearchWindow(q, 5, 300, 1500)),
					ms(st.SearchWindow(q, 5, 900, 950)),
					ms(st.SearchApprox(q, 5, 300, 1500)))
			}
			return ans, st.Stats()
		}
	}
	with := func(o coconut.Options, mod func(o *coconut.Options)) coconut.Options {
		mod(&o)
		return o
	}
	memfs := func(o *coconut.Options) { o.FS, o.StorageDir = fsx.NewMemFS(), "store" }
	// A materialized entry is 544 bytes, seven to a page, so a merged run of
	// 1800 entries is some 260 pages: a 64-page pool holds none of the
	// larger runs.
	smallPool := func(o *coconut.Options) { o.CacheBytes = 64 * 4096 }

	scenarios := []struct {
		name   string
		pins   bool // the reference's probes must have pinned pages to pick theirs
		cached bool
		opts   func() coconut.Options // Parallelism is set per run below
		run    scenario
	}{
		{"lsm", true, false, func() coconut.Options { return base }, lsm},
		{"lsm-full", true, false, func() coconut.Options { return full }, lsm},
		{"lsm-file", true, false, func() coconut.Options { return with(full, memfs) }, lsm},
		{"lsm-pool", true, true, func() coconut.Options { return with(full, smallPool) }, lsm},
		{"lsm-unplanned", true, false, func() coconut.Options { return base }, unplanned},
		{"lsm-reopened", true, false, func() coconut.Options { return full }, reopened},
		{"lsm-opened", true, false, func() coconut.Options { return base }, opened},
		{"lsm-opened-pool", true, true, func() coconut.Options {
			return with(base, func(o *coconut.Options) { o.CacheBytes = 16 << 10 })
		}, opened},
		{"stream-btp", true, false, func() coconut.Options { return base }, stream(coconut.BTP)},
		{"stream-btp-full", true, false, func() coconut.Options { return full }, stream(coconut.BTP)},
		{"stream-btp-file", true, false, func() coconut.Options { return with(full, memfs) }, stream(coconut.BTP)},
		{"stream-btp-pool", true, true, func() coconut.Options { return with(full, smallPool) }, stream(coconut.BTP)},
		// Two flushes of 1250 merge into one partition of 358 pages, whose
		// ranked probe reads up to two.
		{"stream-btp-wide", true, false, func() coconut.Options {
			return with(full, func(o *coconut.Options) { o.BufferEntries = 1250 })
		}, stream(coconut.BTP)},
		{"stream-tp", false, false, func() coconut.Options { return base }, stream(coconut.TP)},
	}
	defer run.SetPageKeyBounds(false)
	defer run.SetPinnedProbe(false)
	for _, sc := range scenarios {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, par), func(t *testing.T) {
				play := func(pageKeys, pinned bool) ([][]coconut.Match, coconut.Stats, int64) {
					run.SetPageKeyBounds(pageKeys)
					run.SetPinnedProbe(pinned)
					opts := sc.opts() // a fresh MemFS each time
					opts.Parallelism = par
					pins := run.ProbePins()
					ans, st := sc.run(t, opts)
					return ans, st, run.ProbePins() - pins
				}
				wantAns, want, pins := play(true, true)
				if want.SeqReads+want.RandReads == 0 || (pins != 0) != sc.pins {
					t.Fatalf("scenario exercises nothing: %+v, %d probe pins", want, pins)
				}
				for _, mode := range []struct {
					name   string
					pinned bool
				}{{"resident scan, pinning probe", true}, {"resident scan, resident probe", false}} {
					gotAns, got, gotPins := play(false, mode.pinned)
					for i := range wantAns {
						if !reflect.DeepEqual(wantAns[i], gotAns[i]) {
							t.Fatalf("%s: answer %d diverged:\nreference: %+v\nresident:  %+v", mode.name, i, wantAns[i], gotAns[i])
						}
					}
					if par != 1 {
						continue
					}
					if mode.pinned {
						if got != want || gotPins != pins {
							t.Fatalf("%s: accounting diverged (%d and %d probe pins):\nreference: %+v\nresident:  %+v", mode.name, pins, gotPins, want, got)
						}
						continue
					}
					accesses := func(st coconut.Stats) int64 {
						if sc.cached {
							return st.CacheHits + st.CacheMisses
						}
						return st.SeqReads + st.RandReads
					}
					if gotPins != 0 || accesses(got) != accesses(want)-pins ||
						got.SeqWrites != want.SeqWrites || got.RandWrites != want.RandWrites ||
						got.PlannedSkips != want.PlannedSkips || got.Pages != want.Pages {
						t.Fatalf("%s: want the reference's accounting less its %d probe pins:\nreference: %+v\nresident:  %+v", mode.name, pins, want, got)
					}
				}
			})
		}
	}
}
