package ctree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/storage"
)

// bruteRange is ground truth for epsilon queries.
func bruteRange(q index.Query, ds *series.Dataset, eps float64) []index.Result {
	col := index.NewRangeCollector(eps)
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		col.Add(index.Result{ID: int64(id), Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
	}
	return col.Results()
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	ds := buildDataset(t, 600, 51)
	for _, mat := range []bool{false, true} {
		tr, _ := buildTree(t, ds, mat, 1.0)
		rng := rand.New(rand.NewSource(510))
		for trial := 0; trial < 10; trial++ {
			q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(mat))
			// Eps values around the typical 1-NN distance, so results are
			// non-trivial but not the whole dataset.
			for _, eps := range []float64{5, 8, 11} {
				want := bruteRange(q, ds, eps)
				got, err := rangeSearch(tr, q, eps)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("mat=%v eps=%v: %d results, want %d", mat, eps, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("mat=%v eps=%v result %d: %+v vs %+v", mat, eps, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestRangeSearchEmptyResult(t *testing.T) {
	ds := buildDataset(t, 100, 52)
	tr, _ := buildTree(t, ds, true, 1.0)
	q := index.NewQuery(gen.RandomWalk(rand.New(rand.NewSource(520)), 64), testConfig(true))
	got, err := rangeSearch(tr, q, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty, got %v", got)
	}
}

func TestRangeSearchWindowed(t *testing.T) {
	ds := buildDataset(t, 200, 53)
	disk := storage.NewDisk(0)
	cfg := testConfig(true)
	tr, err := BuildTS(Options{Disk: disk, Config: cfg}, ds, func(id int) int64 { return int64(id) })
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ds.Get(50)
	q := index.NewQuery(s, cfg)
	got, err := rangeSearch(tr, q.WithWindow(100, 199), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.TS < 100 || r.TS > 199 {
			t.Fatalf("result outside window: %+v", r)
		}
	}
	if len(got) == 0 {
		t.Fatal("large eps should match the window population")
	}
}
