package coconut

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/assemble"
	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
)

// TestAssemblyEquivalence is the assembly conformance table, the one test
// every way of assembling an index goes through: each variant × composition
// × backend × cache size is built from one Spec by assemble.Build — the
// handle the server and the experiments use — and must answer exact and
// range queries as a linear scan does; where the facade has a wrapper for
// the shape (Tree, LSM, Sharded) it is built from the same Options, must
// return the same answers and report the same Stats, query for query, and
// must give the same answers again after a snapshot saved on the injected
// filesystem is reopened from it. New assembly features add a column or a
// row here, not a test file.
func TestAssemblyEquivalence(t *testing.T) {
	const n, seriesLen, k = 240, 64, 5
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: n, Len: seriesLen, FracEvent: 0.05, Seed: 31})
	data := make([][]float64, n)
	for i, s := range ds.Values {
		data[i] = s
	}
	rng := rand.New(rand.NewSource(32))
	queries := make([][]float64, 4)
	for i := range queries {
		queries[i] = gen.RandomWalk(rng, seriesLen)
	}
	queries[0] = data[17] // a member: distance 0 at the head of the answer

	type composition struct {
		name  string
		apply func(*assemble.Spec)
		// facade builds the public wrapper of this composition and reopen
		// reopens its snapshot; nil when the facade has none.
		facade func(fam string, opts Options) (facadeIndex, error)
		reopen func(fam, path string, opts Options) (facadeIndex, error)
	}
	compositions := []composition{
		{"unsharded", func(*assemble.Spec) {}, func(fam string, opts Options) (facadeIndex, error) {
			if fam == "CTree" {
				return BuildTree(data, opts)
			}
			l, err := NewLSM(opts)
			if err != nil {
				return nil, err
			}
			return l, loadFacade(l.Insert, l.Flush, data)
		}, func(fam, path string, opts Options) (facadeIndex, error) {
			if fam == "CTree" {
				return OpenTree(path, opts)
			}
			return OpenLSM(path, opts)
		}},
		{"shards=3", func(s *assemble.Spec) { s.Shards = 3 }, func(fam string, opts Options) (facadeIndex, error) {
			if fam == "CTree" {
				return BuildShardedTree(data, 3, opts)
			}
			sh, err := NewShardedLSM(3, opts)
			if err != nil {
				return nil, err
			}
			return sh, loadFacade(sh.Insert, sh.Flush, data)
		}, func(_, path string, opts Options) (facadeIndex, error) { return OpenSharded(path, opts) }},
		{"cluster=3of3", func(s *assemble.Spec) { s.ClusterShards, s.NodeShards = 3, []int{0, 1, 2} }, nil, nil},
	}

	for _, variant := range assemble.Variants {
		for _, comp := range compositions {
			for _, backend := range []string{"sim", "file"} {
				for _, cache := range []int64{0, 64 << 10} {
					name := fmt.Sprintf("%s/%s/%s/cache=%d", variant, comp.name, backend, cache)
					t.Run(name, func(t *testing.T) {
						fsys := fsx.NewMemFS()
						opts := Options{
							SeriesLen: seriesLen, Segments: 8, Bits: 8,
							Materialized:  variant == "ADSFull" || variant == "CTreeFull" || variant == "CLSMFull",
							BufferEntries: 50, MemBudget: 16 << 10, Parallelism: 1, CacheBytes: cache, FS: fsys,
						}
						fam := "CTree"
						if variant == "CLSM" || variant == "CLSMFull" {
							fam = "CLSM"
						}
						dir := func(who string) string {
							if backend == "sim" {
								return ""
							}
							return filepath.Join("/store", who)
						}
						opts.StorageDir = dir("handle")
						spec := opts.spec(fam)
						spec.Variant = variant
						comp.apply(&spec)
						h, err := assemble.Build(spec, ds)
						if err != nil {
							t.Fatal(err)
						}
						defer h.Close()
						if got := h.Disk.Kind(); got != backend {
							t.Fatalf("backend %q, want %q", got, backend)
						}
						if (h.Cache != nil) != (cache > 0) {
							t.Fatalf("cache attached = %v with CacheBytes %d", h.Cache != nil, cache)
						}

						var f facadeIndex
						if comp.facade != nil && variant != "ADS+" && variant != "ADSFull" {
							opts.StorageDir = dir("facade")
							if f, err = comp.facade(fam, opts); err != nil {
								t.Fatal(err)
							}
							defer f.Close()
							if got, want := f.Stats(), statsOf(h); got != want {
								t.Fatalf("after build: facade stats %+v, handle stats %+v", got, want)
							}
						}

						cfg := h.Config
						answers := make([][2][]Match, len(queries))
						for qi, raw := range queries {
							q := index.NewQuery(series.Series(raw), cfg)
							rs, err := h.Index.ExactSearch(q, k)
							if err != nil {
								t.Fatal(err)
							}
							exact := convert(rs)
							checkAgainstScan(t, fmt.Sprintf("query %d exact", qi), exact, scanKNN(q, ds, k))
							eps := exact[2].Dist
							rs, err = h.Index.RangeSearch(q, eps)
							if err != nil {
								t.Fatal(err)
							}
							ranged := convert(rs)
							checkAgainstScan(t, fmt.Sprintf("query %d range", qi), ranged, scanRange(q, ds, eps))
							answers[qi] = [2][]Match{exact, ranged}
							if f == nil {
								continue
							}
							fe, err := f.Search(raw, k)
							if err != nil {
								t.Fatal(err)
							}
							fr, err := f.SearchRange(raw, eps)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(fe, exact) || !reflect.DeepEqual(fr, ranged) {
								t.Fatalf("query %d: facade answers differ from the handle's", qi)
							}
							if got, want := f.Stats(), statsOf(h); got != want {
								t.Fatalf("after query %d: facade stats %+v, handle stats %+v", qi, got, want)
							}
						}
						if f == nil {
							return
						}

						if err := fsys.MkdirAll("/snap", 0o755); err != nil {
							t.Fatal(err)
						}
						if err := f.SaveFile("/snap/index"); err != nil {
							t.Fatal(err)
						}
						reopened, err := comp.reopen(fam, "/snap/index", Options{FS: fsys})
						if err != nil {
							t.Fatal(err)
						}
						defer reopened.Close()
						for qi, raw := range queries {
							re, err := reopened.Search(raw, k)
							if err != nil {
								t.Fatal(err)
							}
							rr, err := reopened.SearchRange(raw, answers[qi][0][2].Dist)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(re, answers[qi][0]) || !reflect.DeepEqual(rr, answers[qi][1]) {
								t.Fatalf("query %d: reopened snapshot answers differ", qi)
							}
						}
					})
				}
			}
		}
	}
}

// facadeIndex is what the conformance table needs of a facade wrapper.
type facadeIndex interface {
	equivSearcher
	Stats() Stats
	SaveFile(path string) error
	Close() error
}

// loadFacade ingests data through a facade's insert path the way Build
// loads a dataset: every series at timestamp 0, then one flush.
func loadFacade(insert func([]float64, int64) error, flush func() error, data [][]float64) error {
	for _, s := range data {
		if err := insert(s, 0); err != nil {
			return err
		}
	}
	return flush()
}

// scanKNN and scanRange are the linear-scan ground truth.
func scanKNN(q index.Query, ds *series.Dataset, k int) []Match {
	col := index.NewCollector(k)
	for id, s := range ds.Values {
		col.Add(index.Result{ID: int64(id), Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
	}
	return convert(col.Results())
}

func scanRange(q index.Query, ds *series.Dataset, eps float64) []Match {
	col := index.NewRangeCollector(eps)
	for id, s := range ds.Values {
		col.Add(index.Result{ID: int64(id), Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
	}
	return convert(col.Results())
}

func checkAgainstScan(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, linear scan finds %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("%s result %d: got %+v, linear scan %+v", label, i, got[i], want[i])
		}
	}
}
