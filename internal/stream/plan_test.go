package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/series"
	"repro/internal/storage"
)

// buildPlanned builds one scheme of the given kind over the stream the
// planner tests search, which it returns too; the planner is the search's,
// not the scheme's. Pages hold eight entries, so every partition spans pages
// a scan can leave unread.
func buildPlanned(t *testing.T, kind string, mat bool) (Scheme, []series.Series) {
	t.Helper()
	ss, ts := streamData(600, 8)
	raw := &memRaw{}
	cfg := testConfig(mat)
	disk := storage.NewDisk(8 * cfg.Codec().Size())
	var sc Scheme
	var err error
	switch kind {
	case "tp":
		sc, err = NewTP("CTree", cfg, CTreeFactory(disk, nil, cfg, raw), 128, raw)
	case "btp":
		sc, err = NewBTP(disk, nil, "btp", cfg, 128, raw)
	}
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, sc, raw, ss, ts)
	return sc, ss
}

// TestPlannedSearchMatchesUnplanned asserts the planner's core guarantee at
// the stream-scheme level: ordering partition probes by synopsis bound and
// skipping bound-dominated partitions and dead pages never changes an
// answer, byte for byte — approximate, exact, whole-history, and windowed
// alike, for random queries and for perturbed members of the stream, whose
// bound tightens at once. It also holds both sides to what they claim: under
// the planner a traced exact query's planned skips, read from the record it
// hands back, are what its entry folded into the running total, every level
// of the scheme counted into the one record; under a Disabled planner (the
// reference path) it skips no unit of any kind, partition or page.
func TestPlannedSearchMatchesUnplanned(t *testing.T) {
	for _, kind := range []string{"tp", "btp"} {
		for _, mat := range []bool{false, true} {
			sc, ss := buildPlanned(t, kind, mat)
			on, off := &index.Planner{}, &index.Planner{Disabled: true}
			var onTotal, offTotal obs.Tally
			rng := rand.New(rand.NewSource(71))
			for trial := 0; trial < 25; trial++ {
				q := gen.RandomWalk(rng, 64)
				if trial%2 == 0 {
					m := ss[rng.Intn(len(ss))]
					for i := range q {
						q[i] = m[i] + 0.05*q[i]
					}
				}
				pq := index.NewQuery(q, testConfig(mat))
				if trial%3 == 1 {
					lo := int64(rng.Intn(500))
					pq = pq.WithWindow(lo, lo+int64(rng.Intn(200)))
				}
				k := 1 + rng.Intn(5)
				exact := func(pl *index.Planner, total *obs.Tally) ([]index.Result, *obs.TraceSnapshot) {
					tq := pq
					tq.Trace, tq.Tally = obs.NewQueryTrace(), new(obs.Tally)
					res, err := search(sc.ExactInto, tq, k, testPool, pl, total)
					if err != nil {
						t.Fatal(err)
					}
					return res, tq.Trace.Snapshot(tq.Tally)
				}
				skips := onTotal.PlannedSkips()
				a, planned := exact(on, &onTotal)
				if d := onTotal.PlannedSkips() - skips; planned.PlannedSkips != d {
					t.Fatalf("%s mat=%v trial %d: the trace planned %d skips, the running total counted %d", kind, mat, trial, planned.PlannedSkips, d)
				}
				b, reference := exact(off, &offTotal)
				for _, kc := range reference.Kinds {
					if kc.Skipped != 0 {
						t.Fatalf("%s mat=%v trial %d: the reference path skipped %d %s units", kind, mat, trial, kc.Skipped, kc.Kind)
					}
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s mat=%v trial %d: exact planned %v != unplanned %v", kind, mat, trial, a, b)
				}
				a, err := search(sc.ApproxInto, pq, k, testPool, on, &onTotal)
				if err != nil {
					t.Fatal(err)
				}
				b, err = search(sc.ApproxInto, pq, k, testPool, off, &offTotal)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s mat=%v trial %d: approx planned %v != unplanned %v", kind, mat, trial, a, b)
				}
			}
			if onTotal.PlannedSkips() == 0 || offTotal.PlannedSkips() != 0 {
				t.Fatalf("%s mat=%v: the planner skipped %d units, the reference path %d; want some and none", kind, mat, onTotal.PlannedSkips(), offTotal.PlannedSkips())
			}
		}
	}
}
