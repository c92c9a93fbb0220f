package ctree_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	coconut "repro"
	"repro/internal/assemble"
	"repro/internal/ctree"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/run"
	"repro/internal/series"
	"repro/internal/storage"
)

// The column scan — group envelope, leaf envelope, resident symbols, page —
// is held here to the scan it replaced, which bounded every entry from the
// key bytes on its page and tested every leaf envelope on its own
// (run.SetPageKeyBounds, a test hook). Each scenario builds its index
// twice from the same data, once per scan, and runs the same operations;
// the two must agree on every answer and, for a serial scan, on the whole
// Stats record: sequential and random reads and writes, cache hits and
// misses, planned skips. That is the claim "which pages a query reads, and
// in what order, did not change", made through every surface a CTree sits
// behind: the facade tree (fixed, cached, file-backed, after splits, and
// opened from a saved snapshot, with splits behind a pool), the sharded
// tree, and the stream's TP partitions. A materialized tree of the 3 000
// series holds 429 leaves, enough that its approximate probe, and with it
// the seed of every exact search, reads the leaves its summary ranks best
// (run.Store.RankedProbe) under either scan; a key-only one holds 24 and
// walks out from the covering leaf. (The ranking's own reference, which
// pins the leaves it ranks, is internal/run's suite's tree-ranked row.)
//
// With several workers only the answers are compared. The pool hands leaf
// ranges to workers as they come free and a worker's collector carries its
// bound from one range into the next, so how many leaves a parallel scan
// skips — on either side of this comparison — depends on the schedule, as
// does the seq/rand split of what it reads (see equivParallelisms in the
// root package).

const equivLen = 64

func walks(seed int64, n, length int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = gen.RandomWalk(rng, length)
	}
	return out
}

// searcher is what the scenarios' indexes share.
type searcher interface {
	Search(q []float64, k int) ([]coconut.Match, error)
	SearchRange(q []float64, eps float64) ([]coconut.Match, error)
	Stats() coconut.Stats
}

// matrix runs exact and range queries (the range around the exact answer's
// third neighbour, so it is never empty), then whatever else the scenario
// adds, and returns every answer in order.
func matrix(t *testing.T, idx searcher, queries [][]float64, more func(q []float64) [][]coconut.Match) [][]coconut.Match {
	t.Helper()
	var out [][]coconut.Match
	for _, q := range queries {
		exact, err := idx.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		rng, err := idx.SearchRange(q, exact[2].Dist)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, exact, rng)
		if more != nil {
			out = append(out, more(q)...)
		}
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

func (b built) Search(q []float64, k int) ([]coconut.Match, error) {
	return matches(b.ExactSearch(b.query(q), k))
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
	data := walks(81, 3000, equivLen)
	late := walks(82, 600, equivLen)
	queries := append(walks(83, 6, equivLen), data[17], data[2024]) // far ones and members
	base := coconut.Options{SeriesLen: equivLen, Segments: 8, Bits: 6}
	full := base
	full.Materialized = true

	treeQueries := func(t *testing.T, tr interface {
		searcher
		SearchApprox(q []float64, k int) ([]coconut.Match, error)
		SearchBatch(qs [][]float64, k int) ([][]coconut.Match, error)
	}, queries [][]float64) [][]coconut.Match {
		ans := matrix(t, tr, queries, func(q []float64) [][]coconut.Match {
			return [][]coconut.Match{must[[]coconut.Match](t)(tr.SearchApprox(q, 5))}
		})
		return append(ans, must[[][]coconut.Match](t)(tr.SearchBatch(queries, 3))...)
	}
	tree := func(inserts int) scenario {
		return func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
			tr := must[*coconut.Tree](t)(coconut.BuildTree(data, opts))
			defer tr.Close()
			for i, s := range late[:inserts] {
				if err := tr.Insert(s, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			return treeQueries(t, tr, queries), tr.Stats()
		}
	}
	// opened is tree(inserts) over a tree saved as a snapshot right after
	// its bulk load and opened again: the searches run over a summary
	// decoded from the snapshot, and the inserts split leaves it opened.
	opened := func(inserts int) scenario {
		return func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
			built := must[*coconut.Tree](t)(coconut.BuildTree(data, opts))
			path := filepath.Join(t.TempDir(), "snapshot.ccnut")
			if err := built.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}
			tr := must[*coconut.Tree](t)(coconut.OpenTree(path, opts))
			defer tr.Close()
			tr.SetParallelism(opts.Parallelism)
			for i, s := range late[:inserts] {
				if err := tr.Insert(s, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			return treeQueries(t, tr, queries), tr.Stats()
		}
	}
	// unplanned is tree(0) over base, assembled as BuildTree assembles it,
	// with the build's planner off.
	unplanned := func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
		ds := series.NewDataset(equivLen)
		for _, s := range data {
			ds.Append(series.Series(s))
		}
		tr := built{must[*assemble.Built](t)(assemble.Build(assemble.Spec{
			Variant: "CTree", SeriesLen: equivLen, Segments: 8, Bits: 6, Parallelism: opts.Parallelism, RawInMemory: true,
		}, ds))}
		defer tr.Close()
		tr.Planner.Disabled = true
		return treeQueries(t, tr, queries), tr.Stats()
	}
	sharded := func(shards int) scenario {
		return func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
			sh := must[*coconut.Sharded](t)(coconut.BuildShardedTree(data, shards, opts))
			defer sh.Close()
			for i, s := range late[:200] {
				if err := sh.Insert(s, int64(10+i)); err != nil {
					t.Fatal(err)
				}
			}
			ans := matrix(t, sh, queries, func(q []float64) [][]coconut.Match {
				return [][]coconut.Match{must[[]coconut.Match](t)(sh.SearchWindow(q, 5, 20, 150))}
			})
			ans = append(ans, must[[][]coconut.Match](t)(sh.SearchBatch(queries, 3))...)
			return ans, sh.Stats()
		}
	}
	tp := func(t *testing.T, opts coconut.Options) ([][]coconut.Match, coconut.Stats) {
		opts.BufferEntries = 400
		st := must[*coconut.Stream](t)(coconut.NewStream(coconut.TP, opts))
		for i, s := range data[:2200] {
			must[int](t)(st.Ingest(s, int64(i)))
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
		var ans [][]coconut.Match
		for _, q := range queries {
			ans = append(ans,
				must[[]coconut.Match](t)(st.Search(q, 5)),
				must[[]coconut.Match](t)(st.SearchWindow(q, 5, 300, 1500)),
				must[[]coconut.Match](t)(st.SearchWindow(q, 5, 900, 950)),
				must[[]coconut.Match](t)(st.SearchApprox(q, 5, 300, 1500)))
		}
		return ans, st.Stats()
	}
	with := func(o coconut.Options, mod func(o *coconut.Options)) coconut.Options {
		mod(&o)
		return o
	}

	scenarios := []struct {
		name  string
		skips bool            // the facade's planner must have counted skipped leaves
		opts  coconut.Options // Parallelism is set per run below
		run   scenario
	}{
		{"tree", true, base, tree(0)},
		{"tree-full", true, full, tree(0)},
		{"tree-splits", true, with(full, func(o *coconut.Options) { o.FillFactor = 0.8 }), tree(600)},
		{"tree-opened", true, full, opened(0)},
		{"tree-opened-splits", true, with(full, func(o *coconut.Options) { o.CacheBytes = 16 << 10 }), opened(200)},
		{"tree-cached", true, with(full, func(o *coconut.Options) { o.CacheBytes = 96 << 10 }), tree(100)},
		{"tree-file", true, with(full, func(o *coconut.Options) { o.StorageDir = "per run" }), tree(100)},
		{"tree-unplanned", false, base, unplanned},
		{"sharded1", true, full, sharded(1)},
		{"sharded2-cached", true, with(base, func(o *coconut.Options) { o.CacheBytes = 64 << 10 }), sharded(2)},
		{"sharded4", true, full, sharded(4)},
		{"stream-tp", true, base, tp},
		{"stream-tp-cached", true, with(base, func(o *coconut.Options) { o.CacheBytes = 64 << 10 }), tp},
	}
	defer run.SetPageKeyBounds(false)
	for _, sc := range scenarios {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, par), func(t *testing.T) {
				opts := sc.opts
				opts.Parallelism = par
				run := func(reference bool) ([][]coconut.Match, coconut.Stats) {
					run.SetPageKeyBounds(reference)
					if opts.StorageDir != "" {
						opts.StorageDir = t.TempDir()
					}
					return sc.run(t, opts)
				}
				wantAns, want := run(true)
				gotAns, got := run(false)
				for i := range wantAns {
					if !reflect.DeepEqual(wantAns[i], gotAns[i]) {
						t.Fatalf("answer %d diverged:\nreference: %+v\ncolumn:    %+v", i, wantAns[i], gotAns[i])
					}
				}
				if want.SeqReads+want.RandReads == 0 || (sc.skips && want.PlannedSkips == 0) {
					t.Fatalf("scenario exercises nothing: %+v", want)
				}
				if par == 1 && want != got {
					t.Fatalf("accounting diverged:\nreference: %+v\ncolumn:    %+v", want, got)
				}
			})
		}
	}
}

// TestColumnScanTraceMatchesReference: a traced column scan reports the
// candidates (seen, verified, abandoned, pruned) and the leaves probed and
// skipped that the reference scan reports — the in-window entries of a page
// released undecoded count as seen and pruned — and, beside them, how many
// probed leaves it released without decoding; the reference scan decodes
// every page it reads. The windowed row is a TP partition (entries stamped
// with their arrival, loaded from memory) queried over a window: the window
// filter reads the timestamp column, so a leaf whose skip was declined is
// released undecoded too.
func TestColumnScanTraceMatchesReference(t *testing.T) {
	defer run.SetPageKeyBounds(false)
	ds := series.NewDataset(equivLen)
	for _, s := range walks(84, 4000, equivLen) {
		ds.Append(series.Series(s).ZNormalize())
	}
	cfg := index.Config{SeriesLen: equivLen, Segments: 8, Bits: 6, Materialized: true}
	fixed, err := ctree.Build(ctree.Options{Disk: storage.NewDisk(2048), Config: cfg, Parallelism: 1}, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]record.Entry, ds.Count())
	for id := range arrivals {
		s, _ := ds.Get(id)
		key, z := cfg.Summarize(s)
		arrivals[id] = record.Entry{Key: key, ID: int64(id), TS: int64(id), Payload: z}
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Less(arrivals[j]) })
	partition, err := ctree.BuildFromEntries(ctree.Options{Disk: storage.NewDisk(2048), Config: cfg, Parallelism: 1}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name     string
		tr       *ctree.Tree
		windowed bool
	}{{"fixed", fixed, false}, {"tp-windowed", partition, true}} {
		tr := row.tr
		for i, s := range walks(85, 8, equivLen) {
			trace := func(reference bool, search func(q index.Query) error) *obs.TraceSnapshot {
				run.SetPageKeyBounds(reference)
				q := index.NewQuery(s, cfg)
				if row.windowed {
					q = q.WithWindow(1000, 2999)
				}
				q.Trace, q.Tally = obs.NewQueryTrace(), new(obs.Tally)
				if err := search(q); err != nil {
					t.Fatal(err)
				}
				snap := q.Trace.Snapshot(q.Tally)
				snap.Phases = nil // wall times
				return snap
			}
			eps := 0.0
			for _, mode := range []struct {
				name   string
				search func(q index.Query) error
			}{
				{"exact", func(q index.Query) error {
					res, err := index.Rendered(index.Into(q, cfg, nil, nil, nil, index.NewCollector(5), tr.ExactInto))
					if err == nil {
						eps = res[2].Dist
					}
					return err
				}},
				{"range", func(q index.Query) error {
					_, err := index.Rendered(index.Into(q, cfg, nil, nil, nil, index.NewRangeCollector(eps), tr.RangeInto))
					return err
				}},
			} {
				want, got := trace(true, mode.search), trace(false, mode.search)
				if want.UndecodedPages != 0 {
					t.Fatalf("%s query %d %s: the reference scan left %d pages undecoded", row.name, i, mode.name, want.UndecodedPages)
				}
				var probed int64
				for _, k := range got.Kinds {
					if k.Kind == "leaf" {
						probed = k.Probed
					}
				}
				if got.UndecodedPages == 0 || got.UndecodedPages > probed {
					t.Fatalf("%s query %d %s: %d of %d probed leaves undecoded", row.name, i, mode.name, got.UndecodedPages, probed)
				}
				got.UndecodedPages = 0
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s query %d %s: traces diverged:\nreference: %+v\ncolumn:    %+v", row.name, i, mode.name, want, got)
				}
			}
		}
	}
}
