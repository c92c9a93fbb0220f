package index_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/stream"
)

// contractRows builds every implementer over ds through assemble.Build: the
// three indexes and a shard group over ds, and the streams — PP, which is
// its base index, and the TP and BTP schemes — fed ds through Ingest, series
// i arriving at tick i.
func contractRows(t *testing.T, ds *series.Dataset) map[string]*assemble.Built {
	t.Helper()
	spec := func(variant, scheme string, buffer, shards int) assemble.Spec {
		return assemble.Spec{Variant: variant, Scheme: scheme, SeriesLen: 64, Segments: 8, Bits: 6, RawInMemory: true, BufferEntries: buffer, Shards: shards}
	}
	rows := map[string]*assemble.Built{}
	for name, s := range map[string]assemble.Spec{
		"ctree.Tree":   spec("CTree", "", 0, 0),
		"clsm.LSM":     spec("CLSMFull", "", 200, 0),
		"adsplus.Tree": spec("ADS+", "", 0, 0),
		"shard.Group":  spec("CLSM", "", 100, 3),
		"stream.PP":    spec("CLSMFull", "", 200, 0),
		"stream.TP":    spec("CTreeFull", "TP", 200, 0),
		"stream.BTP":   spec("CLSMFull", "BTP", 200, 0),
	} {
		streamed := strings.HasPrefix(name, "stream.")
		from := ds
		if streamed {
			from = nil
		}
		b, err := assemble.Build(s, from)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		if streamed {
			for id, ser := range ds.Values {
				if err := b.Ingest(ser, int64(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rows[name] = b
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

// contractKinds returns a build's search kinds, exact and approximate k-NN
// and range within eps: the entries index.Exact, Approx and Range, and the
// index's cores.
func contractKinds(b *assemble.Built, k int, eps float64) []contractKind {
	idx, cfg, pl := b.Index, b.Config, b.Planner
	core := func(col func() *index.Collector, core func(index.Query, *index.Collector, *index.SearchCtx) error) func(index.Query, *index.SearchCtx) ([]index.Result, error) {
		return func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error) {
			c := col()
			return index.Rendered(c, core(q, c, ctx))
		}
	}
	knn := func() *index.Collector { return index.NewCollector(k) }
	rng := func() *index.Collector { return index.NewRangeCollector(eps) }
	return []contractKind{
		{"exact", func(q index.Query, pool *parallel.Pool) ([]index.Result, error) {
			return index.Exact(idx, q, cfg, pool, pl, k)
		}, core(knn, idx.ExactInto)},
		{"approx", func(q index.Query, pool *parallel.Pool) ([]index.Result, error) {
			return index.Approx(idx, q, cfg, pool, pl, k)
		}, core(knn, idx.ApproxInto)},
		{"range", func(q index.Query, pool *parallel.Pool) ([]index.Result, error) {
			return index.Range(idx, q, cfg, pool, pl, eps)
		}, core(rng, idx.RangeInto)},
	}
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
	for name, b := range contractRows(t, ds) {
		t.Run(name, func(t *testing.T) {
			cfg := b.Config
			queries := make([]index.Query, len(raws))
			for i, raw := range raws {
				queries[i] = index.NewQuery(raw, cfg)
			}
			batch, err := index.Batch(parallel.New(2), b.Planner, cfg, b.Index, queries, k)
			if err != nil {
				t.Fatal(err)
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
				for _, kind := range contractKinds(b, k, eps) {
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
						if !reflect.DeepEqual(batch[qi], want) {
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
	b, err := assemble.Build(assemble.Spec{Variant: "CTree", Scheme: "TP", SeriesLen: 64, Segments: 8, Bits: 8, BufferEntries: bufferCap, RawInMemory: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tp, cfg := b.Index.(stream.Scheme), b.Config
	rng := rand.New(rand.NewSource(33))
	var q index.Query
	for i := 0; i < partitions*bufferCap; i++ {
		s := gen.RandomWalk(rng, 64)
		if err := b.Ingest(s, int64(i)); err != nil {
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
// ceiling is the higher. The BTP stream is fed the series one tick apart and
// queried over a window, so its partitions' ranked probes
// (run.Store.RankedProbe) seed its exact search: they allocate nothing, the
// exact search one allocation fewer than with the covering-page probe.
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
		{"CLSMFull+BTP", assemble.Spec{Variant: "CLSMFull", Scheme: "BTP", BufferEntries: 200}, 14, 12, 12},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := row.spec
			spec.SeriesLen, spec.Segments, spec.Bits, spec.RawInMemory = 64, 16, 8, true
			from := ds
			if spec.Scheme != "" {
				from = nil // a stream is built empty and fed its series, series i at tick i
			}
			b, err := assemble.Build(spec, from)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if from == nil {
				for i, s := range ds.Values {
					if err := b.Ingest(s, int64(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			q := index.NewQuery(ds.Values[123], b.Config)
			if from == nil {
				q = q.WithWindow(1000, 3000) // a stream's query is windowed
			}
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
