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

// TestSearchContract holds the four index.Index implementers to the one
// search contract: a core handed the caller's filled context answers what the
// public method answers — which is the batch's element, and brute force — and
// counts into a trace what the public method counts.
func TestSearchContract(t *testing.T) {
	const k = 5
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 1500, Len: 64, FracEvent: 0.05, Seed: 31})
	rng := rand.New(rand.NewSource(32))
	raws := []series.Series{ds.Values[7], ds.Values[900]}
	for len(raws) < 6 {
		raws = append(raws, gen.RandomWalk(rng, 64))
	}
	for _, row := range []struct {
		name string
		spec assemble.Spec
	}{
		{"ctree.Tree", assemble.Spec{Variant: "CTree"}},
		{"clsm.LSM", assemble.Spec{Variant: "CLSMFull", BufferEntries: 200}},
		{"adsplus.Tree", assemble.Spec{Variant: "ADS+"}},
		{"shard.Group", assemble.Spec{Variant: "CLSM", BufferEntries: 100, Shards: 3}},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := row.spec
			spec.SeriesLen, spec.Segments, spec.Bits, spec.RawInMemory = 64, 8, 6, true
			b, err := assemble.Build(spec, ds)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			idx, cfg := b.Index, b.Config
			queries := make([]index.Query, len(raws))
			for i, raw := range raws {
				queries[i] = index.NewQuery(raw, cfg)
			}
			batch, err := index.Batch(parallel.New(2), cfg, idx, queries, k)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				brute := index.NewCollector(k)
				for id, s := range ds.Values {
					brute.Add(index.Result{ID: int64(id), Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
				}
				exact, err := idx.ExactSearch(q, k)
				if err != nil {
					t.Fatal(err)
				}
				for i, want := range brute.Results() {
					if exact[i].ID != want.ID || math.Abs(exact[i].Dist-want.Dist) > 1e-9 {
						t.Fatalf("query %d result %d: %+v, brute force %+v", qi, i, exact[i], want)
					}
				}
				if !reflect.DeepEqual(batch[qi], exact) {
					t.Fatalf("query %d: batch element %+v, ExactSearch %+v", qi, batch[qi], exact)
				}
				eps := exact[2].Dist
				for _, kind := range []struct {
					name   string
					search func(q index.Query) ([]index.Result, error)
					core   func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error)
				}{
					{"exact", func(q index.Query) ([]index.Result, error) { return idx.ExactSearch(q, k) },
						func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error) {
							col := index.NewCollector(k)
							return index.Rendered(col, idx.ExactInto(q, col, ctx))
						}},
					{"approx", func(q index.Query) ([]index.Result, error) { return idx.ApproxSearch(q, k) },
						func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error) {
							col := index.NewCollector(k)
							return index.Rendered(col, idx.ApproxInto(q, col, ctx))
						}},
					{"range", func(q index.Query) ([]index.Result, error) { return idx.RangeSearch(q, eps) },
						func(q index.Query, ctx *index.SearchCtx) ([]index.Result, error) {
							col := index.NewRangeCollector(eps)
							return index.Rendered(col, idx.RangeInto(q, col, ctx))
						}},
				} {
					want, err := kind.search(q)
					if err != nil {
						t.Fatal(err)
					}
					// Untraced, then traced: the same answers either way, and
					// the same counters from the method and from its core.
					var traces [2]*obs.TraceSnapshot
					for ti, traced := range []bool{false, true, true} {
						tq := q
						if traced {
							tq.Trace = obs.NewQueryTrace()
						}
						var got []index.Result
						if ti == 1 {
							got, err = kind.search(tq)
						} else {
							ctx := index.AcquireCtx(tq, cfg)
							got, err = kind.core(tq, ctx)
							ctx.Release()
						}
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("query %d %s (pass %d): %+v, want %+v", qi, kind.name, ti, got, want)
						}
						if traced {
							snap := tq.Trace.Snapshot()
							for i := range snap.Phases {
								snap.Phases[i].Micros = 0
							}
							traces[ti-1] = snap
						}
					}
					if !reflect.DeepEqual(traces[0], traces[1]) {
						t.Fatalf("query %d %s: the method's trace %+v, its core's %+v", qi, kind.name, traces[0], traces[1])
					}
				}
			}
		})
	}
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
	tp.SetParallelism(1)
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
		if _, err := tp.ExactSearch(q, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 2*partitions {
		t.Fatalf("a query over %d partitions made %.0f allocations: two or more a partition", partitions, allocs)
	}
}
