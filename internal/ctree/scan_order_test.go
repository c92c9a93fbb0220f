package ctree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/parallel"
)

// leafOrder records the leaf-file pages a disk reads, in the order it reads
// them; the reads of concurrent workers interleave, each worker's in its own
// order.
type leafOrder struct {
	file  string
	mu    sync.Mutex
	pages []int64
}

func (o *leafOrder) Access(file string, page int64, write bool) {
	if !write && file == o.file {
		o.mu.Lock()
		o.pages = append(o.pages, page)
		o.mu.Unlock()
	}
}

// TestScanAllStartsAtTheCoveringLeaf: scanAll splits the leaves into one
// range per worker and reads each range in file order, except that a k-NN
// search over materialized leaves starts the range holding the query's
// covering leaf at that leaf and wraps once. Read with the planner disabled
// (every leaf read), the pages of each range come in exactly that order, at
// 1, 2 and 4 workers; a range search and a non-materialized tree read every
// range in file order. The exact and the range search answer as brute force
// does at every worker count, on both trees.
func TestScanAllStartsAtTheCoveringLeaf(t *testing.T) {
	ds := buildDataset(t, 1500, 61)
	for _, mat := range []bool{false, true} {
		tr, disk := buildTree(t, ds, mat, 1.0)
		n := tr.Leaves()
		if n < 8 {
			t.Fatalf("fixture: %d leaves, too few for 4 ranges", n)
		}
		reads := &leafOrder{file: tr.leaves.File}
		disk.SetTracer(reads)
		rng := rand.New(rand.NewSource(610))
		for trial := 0; trial < 6; trial++ {
			s := gen.RandomWalk(rng, 64)
			q, want := index.NewQuery(s, testConfig(mat)), bruteKNN(s, ds, 5)
			eps := want[len(want)-1].Dist
			for _, workers := range []int{1, 2, 4} {
				pool := parallel.New(workers)
				label := fmt.Sprintf("mat=%v trial %d workers=%d", mat, trial, workers)
				got, err := index.Rendered(index.Into(q, tr.Config(), pool, nil, nil, index.NewCollector(5), tr.ExactInto))
				if err != nil {
					t.Fatal(err)
				}
				sameDists(t, label+" exact", got, want)
				got, err = index.Rendered(index.Into(q, tr.Config(), pool, nil, nil, index.NewRangeCollector(eps), tr.RangeInto))
				if err != nil {
					t.Fatal(err)
				}
				sameDists(t, label+" range", got, bruteRange(q, ds, eps))
				for _, knn := range []bool{true, false} {
					col := index.NewRangeCollector(eps)
					if knn {
						col = index.NewCollector(5)
					}
					center := -1
					if knn && mat {
						center = tr.leaves.Sum.Find(q.Key)
					}
					reads.pages = nil
					if _, err := index.Into(q, tr.Config(), pool, &index.Planner{Disabled: true}, nil, col, func(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
						return scanAll(tr, q, col, ctx)
					}); err != nil {
						t.Fatal(err)
					}
					w := pool.WorkersFor(n)
					for i := 0; i < w; i++ {
						lo, hi := i*n/w, (i+1)*n/w
						start := lo
						if lo <= center && center < hi {
							start = center
						}
						var got, want []int64
						for _, p := range reads.pages {
							if int(p) >= lo && int(p) < hi {
								got = append(got, p)
							}
						}
						for p := start; p < hi; p++ {
							want = append(want, int64(p))
						}
						for p := lo; p < start; p++ {
							want = append(want, int64(p))
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s knn=%v: leaves [%d, %d) read %v, want %v", label, knn, lo, hi, got, want)
						}
					}
				}
			}
		}
		disk.SetTracer(nil)
	}
}

// sameDists holds got to want by distance (IDs may tie).
func sameDists(t *testing.T, label string, got, want []index.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("%s: result %d: %+v, want %+v", label, i, got[i], want[i])
		}
	}
}
