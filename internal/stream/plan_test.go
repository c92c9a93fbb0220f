package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/storage"
)

// buildPlannedPair builds two identical schemes over the same data, one with
// the default (enabled) planner and one with planning disabled.
func buildPlannedPair(t *testing.T, kind string, mat bool) (on, off Scheme) {
	t.Helper()
	ss, ts := streamData(600, 8)
	mk := func(pl *index.Planner) Scheme {
		raw := &memRaw{}
		var sc Scheme
		switch kind {
		case "tp":
			tp, err := NewTP("tp", testConfig(mat), CTreeFactory(storage.NewDisk(0), nil, testConfig(mat), raw), 128, raw)
			if err != nil {
				t.Fatal(err)
			}
			tp.SetPlanner(pl)
			sc = tp
		case "btp":
			btp, err := NewBTP(storage.NewDisk(0), nil, "btp", testConfig(mat), 128, 2, raw)
			if err != nil {
				t.Fatal(err)
			}
			btp.SetPlanner(pl)
			sc = btp
		}
		ingestAll(t, sc, raw, ss, ts)
		return sc
	}
	return mk(nil), mk(&index.Planner{Disabled: true})
}

// TestPlannedSearchMatchesUnplanned asserts the planner's core guarantee at
// the stream-scheme level: ordering partition probes by synopsis bound and
// skipping bound-dominated partitions never changes an answer, byte for
// byte — approximate, exact, whole-history, and windowed alike.
func TestPlannedSearchMatchesUnplanned(t *testing.T) {
	for _, kind := range []string{"tp", "btp"} {
		for _, mat := range []bool{false, true} {
			on, off := buildPlannedPair(t, kind, mat)
			rng := rand.New(rand.NewSource(71))
			for trial := 0; trial < 25; trial++ {
				q := gen.RandomWalk(rng, 64)
				pq := index.NewQuery(q, testConfig(mat))
				if trial%3 == 1 {
					lo := int64(rng.Intn(500))
					pq = pq.WithWindow(lo, lo+int64(rng.Intn(200)))
				}
				k := 1 + rng.Intn(5)
				a, err := on.ExactSearch(pq, k)
				if err != nil {
					t.Fatal(err)
				}
				b, err := off.ExactSearch(pq, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s mat=%v trial %d: exact planned %v != unplanned %v", kind, mat, trial, a, b)
				}
				a, err = on.ApproxSearch(pq, k)
				if err != nil {
					t.Fatal(err)
				}
				b, err = off.ApproxSearch(pq, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s mat=%v trial %d: approx planned %v != unplanned %v", kind, mat, trial, a, b)
				}
			}
		}
	}
}
