package index_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/stream"
)

// knnCore and rangeCore are the two shapes of a search core.
type (
	knnCore   = func(index.Query, *index.Collector, *index.SearchCtx) error
	rangeCore = func(index.Query, *index.Collector, *index.SearchCtx) error
)

// contractRow is one implementer of the search contract over a build: an
// index.Index, or a stream scheme, which has k-NN cores only and is no Index.
type contractRow struct {
	b             *assemble.Built
	idx           index.Index // nil for a scheme
	approx, exact knnCore
	rng           rangeCore // nil for a scheme
}

// contractRows builds every implementer over ds: the three indexes and a
// shard group through assemble.Build, and the three stream schemes over the
// storage half of a build, fed ds with series i arriving at tick i.
func contractRows(t *testing.T, ds *series.Dataset) map[string]contractRow {
	t.Helper()
	spec := func(variant string, buffer, shards int) assemble.Spec {
		return assemble.Spec{Variant: variant, SeriesLen: 64, Segments: 8, Bits: 6, RawInMemory: true, BufferEntries: buffer, Shards: shards}
	}
	rows := map[string]contractRow{}
	for name, s := range map[string]assemble.Spec{
		"ctree.Tree":   spec("CTree", 0, 0),
		"clsm.LSM":     spec("CLSMFull", 200, 0),
		"adsplus.Tree": spec("ADS+", 0, 0),
		"shard.Group":  spec("CLSM", 100, 3),
	} {
		b, err := assemble.Build(s, ds)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		rows[name] = contractRow{b: b, idx: b.Index, approx: b.Index.ApproxInto, exact: b.Index.ExactInto, rng: b.Index.RangeInto}
	}
	for _, name := range []string{"stream.PP", "stream.TP", "stream.BTP"} {
		var b *assemble.Built
		var err error
		if name == "stream.PP" {
			b, err = assemble.Build(spec("CLSMFull", 200, 0), nil)
		} else {
			b, err = assemble.Base(spec("CLSMFull", 200, 0))
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		var sc stream.Scheme
		switch name {
		case "stream.PP":
			sc = stream.NewPP(b.Index.(stream.EntryIndex), b.Config)
		case "stream.TP":
			sc, err = stream.NewTP("tp", b.Config, stream.CTreeFactory(b.Disk, b.Reader(), b.Config, nil), 200, nil)
		case "stream.BTP":
			sc, err = stream.NewBTP(b.Disk, b.Reader(), "btp", b.Config, 200, 2, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		for id, s := range ds.Values {
			if _, err := sc.Ingest(s, int64(id)); err != nil {
				t.Fatal(err)
			}
		}
		rows[name] = contractRow{b: b, approx: sc.ApproxInto, exact: sc.ExactInto}
	}
	return rows
}

// contractKind is one search kind of a row: the entry, which sets the pool
// and the build's planner, and the core on the caller's context.
type contractKind struct {
	name  string
	entry func(q index.Query, pool *parallel.Pool) ([]index.Result, error)
	core  func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error)
}

// kinds returns the row's search kinds: exact and approximate k-NN, and
// range within eps where the row has a range core. An index's entries are
// index.Exact, Approx and Range; a scheme's are index.Into over its cores.
func (row contractRow) kinds(cfg index.Config, k int, eps float64) []contractKind {
	pl := row.b.Planner
	knn := func(name string, core knnCore, entry func(index.Index, index.Query, index.Config, *parallel.Pool, *index.Planner, int) ([]index.Result, error)) contractKind {
		return contractKind{name, func(q index.Query, pool *parallel.Pool) ([]index.Result, error) {
			if row.idx != nil {
				return entry(row.idx, q, cfg, pool, pl, k)
			}
			return index.Rendered(index.Into(q, cfg, pool, pl, index.NewCollector(k), core))
		}, func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error) {
			col := index.NewCollector(k)
			return index.Rendered(col, core(q, col, ctx))
		}}
	}
	kinds := []contractKind{knn("exact", row.exact, index.Exact), knn("approx", row.approx, index.Approx)}
	if row.rng != nil {
		kinds = append(kinds, contractKind{"range", func(q index.Query, pool *parallel.Pool) ([]index.Result, error) {
			return index.Range(row.idx, q, cfg, pool, pl, eps)
		}, func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error) {
			col := index.NewRangeCollector(eps)
			return index.Rendered(col, row.rng(q, col, ctx))
		}})
	}
	return kinds
}

// TestSearchContract holds every implementer to the one search contract:
// the entry answers at 1, 2 and 4 workers what the core answers on a serial
// context, which is what Batch answers and what brute force finds; and at
// one worker the entry and the core count the same trace and read the same
// pages.
func TestSearchContract(t *testing.T) {
	const k = 5
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 1500, Len: 64, FracEvent: 0.05, Seed: 31})
	rng := rand.New(rand.NewSource(32))
	raws := []series.Series{ds.Values[7], ds.Values[900]}
	for len(raws) < 6 {
		raws = append(raws, gen.RandomWalk(rng, 64))
	}
	for name, row := range contractRows(t, ds) {
		t.Run(name, func(t *testing.T) {
			b, cfg := row.b, row.b.Config
			queries := make([]index.Query, len(raws))
			for i, raw := range raws {
				queries[i] = index.NewQuery(raw, cfg)
			}
			var batch [][]index.Result
			if row.idx != nil {
				var err error
				if batch, err = index.Batch(parallel.New(2), b.Planner, cfg, row.idx, queries, k); err != nil {
					t.Fatal(err)
				}
			}
			for qi, q := range queries {
				bruteKNN := index.NewCollector(k)
				for id, s := range ds.Values {
					bruteKNN.Add(index.Result{ID: int64(id), TS: int64(id), Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
				}
				eps := bruteKNN.Results()[2].Dist
				bruteRange := index.NewRangeCollector(eps)
				for id, s := range ds.Values {
					bruteRange.Add(index.Result{ID: int64(id), TS: int64(id), Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
				}
				for _, kind := range row.kinds(cfg, k, eps) {
					// The core on a serial context under the build's planner,
					// traced; then what it reads once it has read it, the head
					// where it leaves it (the meter prices an access by the one
					// before it).
					cq := q
					cq.Trace = obs.NewQueryTrace()
					core := func(q index.Query) ([]index.Result, error) {
						ctx := index.AcquireCtx(q, cfg)
						defer ctx.Release()
						ctx.Planner = b.Planner
						return kind.core(q, ctx)
					}
					want, err := core(cq)
					if err != nil {
						t.Fatal(err)
					}
					before := b.IOStats()
					if _, err := core(q); err != nil {
						t.Fatal(err)
					}
					coreStats := b.IOStats().Sub(before)
					switch kind.name {
					case "exact":
						if !sameAnswers(want, bruteKNN.Results()) {
							t.Fatalf("query %d exact: %+v, brute force %+v", qi, want, bruteKNN.Results())
						}
						if batch != nil && !reflect.DeepEqual(batch[qi], want) {
							t.Fatalf("query %d: batch element %+v, the core %+v", qi, batch[qi], want)
						}
					case "range":
						if !sameAnswers(want, bruteRange.Results()) {
							t.Fatalf("query %d range: %+v, brute force %+v", qi, want, bruteRange.Results())
						}
					}
					for _, workers := range []int{1, 2, 4} {
						eq := q
						if workers == 1 {
							eq.Trace = obs.NewQueryTrace()
						}
						before := b.IOStats()
						got, err := kind.entry(eq, parallel.New(workers))
						entryStats := b.IOStats().Sub(before)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("query %d %s at %d workers: the entry %+v, the core %+v", qi, kind.name, workers, got, want)
						}
						if workers != 1 {
							continue
						}
						if e, c := untimed(eq.Trace), untimed(cq.Trace); !reflect.DeepEqual(e, c) {
							t.Fatalf("query %d %s: the entry's trace %+v, the core's %+v", qi, kind.name, e, c)
						}
						if entryStats != coreStats {
							t.Fatalf("query %d %s: the entry read %+v, the core %+v", qi, kind.name, entryStats, coreStats)
						}
					}
				}
			}
		})
	}
}

// untimed is a trace's snapshot without its wall times.
func untimed(tr *obs.QueryTrace) *obs.TraceSnapshot {
	snap := tr.Snapshot()
	for i := range snap.Phases {
		snap.Phases[i].Micros = 0
	}
	return snap
}

// sameAnswers reports whether two result lists name the same series at the
// same distances, to within rounding.
func sameAnswers(a, b []index.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

// TestSearchContractTPContexts: a TP query reaches its partitions through
// the cores, with one context per worker slot and one collector, so what it
// allocates per partition is what the partition's scan does — not a context,
// a collector, a rendered result list and its sort each.
func TestSearchContractTPContexts(t *testing.T) {
	if index.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const partitions, bufferCap = 32, 32
	cfg := index.Config{SeriesLen: 64, Segments: 8, Bits: 8}
	raw := series.NewDataset(64)
	tp, err := stream.NewTP("tp", cfg, stream.CTreeFactory(storage.NewDisk(0), nil, cfg, raw), bufferCap, raw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	var q index.Query
	for i := 0; i < partitions*bufferCap; i++ {
		s := gen.RandomWalk(rng, 64)
		if _, err := raw.Append(s.ZNormalize()); err != nil {
			t.Fatal(err)
		}
		if _, err := tp.Ingest(s, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i == 500 {
			q = index.NewQuery(s, cfg)
		}
	}
	if tp.Partitions() != partitions {
		t.Fatalf("%d partitions, want %d", tp.Partitions(), partitions)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := index.Into(q, cfg, nil, nil, index.NewCollector(1), tp.ExactInto); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 2*partitions {
		t.Fatalf("a query over %d partitions made %.0f allocations: two or more a partition", partitions, allocs)
	}
}

// TestSearchEntryAllocs pins what one query allocates through a build's
// entries, exact / approximate / range, at one worker: the per-query state
// comes from the context pool, so what is left is the collector, the
// rendered results and what the scan itself keeps. A non-materialized
// tree's exact search averages between 12 and 13 allocations a query, so
// the whole-number count reads either from one process to the next; its
// ceiling is the higher.
func TestSearchEntryAllocs(t *testing.T) {
	if index.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const k = 10
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 4000, Len: 64, FracEvent: 0.05, Seed: 41})
	for _, row := range []struct {
		name               string
		spec               assemble.Spec
		exact, approx, rng float64
	}{
		{"CTreeFull", assemble.Spec{Variant: "CTreeFull"}, 13, 10, 12},
		{"CTree", assemble.Spec{Variant: "CTree"}, 13, 10, 12},
		{"CLSMFull", assemble.Spec{Variant: "CLSMFull", BufferEntries: 200}, 17, 13, 13},
		{"Sharded3xCTreeFull", assemble.Spec{Variant: "CTreeFull", Shards: 3}, 22, 12, 22},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := row.spec
			spec.SeriesLen, spec.Segments, spec.Bits, spec.RawInMemory = 64, 16, 8, true
			b, err := assemble.Build(spec, ds)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			q := index.NewQuery(ds.Values[123], b.Config)
			rs, err := b.ExactSearch(q, k)
			if err != nil {
				t.Fatal(err)
			}
			eps := rs[2].Dist
			for _, kind := range []struct {
				name   string
				search func() error
				max    float64
			}{
				{"exact", func() error { _, err := b.ExactSearch(q, k); return err }, row.exact},
				{"approx", func() error { _, err := b.ApproxSearch(q, k); return err }, row.approx},
				{"range", func() error { _, err := b.RangeSearch(q, eps); return err }, row.rng},
			} {
				var err error
				if got := testing.AllocsPerRun(100, func() { err = kind.search() }); got > kind.max {
					t.Errorf("%s search: %.0f allocations, want at most %.0f", kind.name, got, kind.max)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
