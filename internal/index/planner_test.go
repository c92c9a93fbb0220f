package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sax"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/zonestat"
)

func randSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// The envelope bound must never exceed the per-entry bound of any member —
// that inequality is the entire byte-identity argument for unit skipping.
func TestEnvelopeBoundIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range []Config{
		{SeriesLen: 128, Segments: 16, Bits: 8},
		{SeriesLen: 96, Segments: 8, Bits: 4},
		{SeriesLen: 64, Segments: 7, Bits: 3},
	} {
		q := NewQuery(randSeries(rng, cfg.SeriesLen), cfg)
		var p Pruner
		p.Fill(q.PAA, cfg)
		syn := zonestat.New(cfg.Segments, cfg.Bits)
		minEntry := 0.0
		for n := 0; n < 300; n++ {
			w := sax.FromPAA(sax.PAA(randSeries(rng, cfg.SeriesLen).ZNormalize(), cfg.Segments), cfg.Bits)
			key := sortable.Interleave(w)
			syn.Add(key, int64(n))
			lb := p.MinDistSqKey(key)
			if n == 0 || lb < minEntry {
				minEntry = lb
			}
		}
		env := p.SynopsisBoundSq(syn)
		if env > minEntry+1e-12 {
			t.Fatalf("cfg %+v: envelope bound %g exceeds tightest member bound %g", cfg, env, minEntry)
		}
		// A single-entry synopsis collapses to that entry's own bound.
		one := zonestat.New(cfg.Segments, cfg.Bits)
		w := sax.FromPAA(sax.PAA(randSeries(rng, cfg.SeriesLen).ZNormalize(), cfg.Segments), cfg.Bits)
		key := sortable.Interleave(w)
		one.Add(key, 0)
		if got, want := p.SynopsisBoundSq(one), p.MinDistSqKey(key); got != want {
			t.Fatalf("singleton envelope %g != entry bound %g", got, want)
		}
	}
}

func TestSynopsisBoundEdgeCases(t *testing.T) {
	cfg := Config{SeriesLen: 64, Segments: 8, Bits: 4}
	rng := rand.New(rand.NewSource(1))
	q := NewQuery(randSeries(rng, cfg.SeriesLen), cfg)
	var p Pruner
	p.Fill(q.PAA, cfg)
	if got := p.SynopsisBoundSq(zonestat.New(4, 2)); got != 0 {
		t.Fatalf("shape-mismatched synopsis bound = %g, want 0", got)
	}
	empty := zonestat.New(cfg.Segments, cfg.Bits)
	if got := p.SynopsisBoundSq(empty); !(got > 1e300) {
		t.Fatalf("empty synopsis bound = %g, want +Inf", got)
	}
}

func TestSortPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(20)
		units := make([]PlanUnit, n)
		want := make([]PlanUnit, n)
		for i := range units {
			units[i] = PlanUnit{BoundSq: float64(rng.Intn(5)), Idx: i}
			want[i] = units[i]
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].BoundSq < want[j].BoundSq })
		SortPlan(units)
		for i := range units {
			if units[i] != want[i] {
				t.Fatalf("trial %d: SortPlan diverges from stable sort at %d: %v vs %v", trial, i, units, want)
			}
		}
	}
}

// The warm planned path — table fill + probe-order planning — must not
// allocate: it runs once per query on every index.
func TestPlannedWarmPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	cfg := Config{SeriesLen: 128, Segments: 16, Bits: 8}
	rng := rand.New(rand.NewSource(77))
	q := NewQuery(randSeries(rng, cfg.SeriesLen), cfg)
	pl := &Planner{}
	syns := make([]*zonestat.Synopsis, 6)
	for i := range syns {
		syns[i] = zonestat.New(cfg.Segments, cfg.Bits)
		for n := 0; n < 10; n++ {
			w := sax.FromPAA(sax.PAA(randSeries(rng, cfg.SeriesLen).ZNormalize(), cfg.Segments), cfg.Bits)
			syns[i].Add(sortable.Interleave(w), int64(n))
		}
	}
	// Warm the pools.
	ctx := AcquireCtx(q, cfg)
	_ = ctx.PlanUnits(len(syns))
	ctx.Release()
	allocs := testing.AllocsPerRun(100, func() {
		c := AcquireCtx(q, cfg)
		units := c.PlanUnits(len(syns))
		for i, syn := range syns {
			units[i] = PlanUnit{BoundSq: c.P.SynopsisBoundSq(syn), Idx: i}
		}
		SortPlan(units)
		pl.NoteSkips(1)
		c.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm planned path allocates %v per run, want 0", allocs)
	}
}

func TestNilPlannerIsEnabledNoop(t *testing.T) {
	var pl *Planner
	if !pl.Enabled() {
		t.Fatal("nil planner must plan")
	}
	pl.NoteSkips(3)
	if pl.Skips() != 0 {
		t.Fatal("nil planner must drop counters")
	}
	disabled := &Planner{Disabled: true}
	if disabled.Enabled() {
		t.Fatal("disabled planner must not plan")
	}
}

// execUnit is one synthetic probe unit: a lower bound and the candidates a
// probe of it offers, none closer than the bound.
type execUnit struct {
	boundSq float64
	cands   []sqItem
}

// randExecUnits draws n units whose bounds include 0 (unknown), ties, and
// +Inf (nothing to find — such a unit holds no candidates).
func randExecUnits(rng *rand.Rand, n int) []execUnit {
	units := make([]execUnit, n)
	id := int64(0)
	for i := range units {
		var b float64
		switch rng.Intn(5) {
		case 0:
			b = 0
		case 1:
			b = math.Inf(1)
		case 2:
			b = float64(1 + rng.Intn(3)) // ties
		default:
			b = rng.Float64() * 10
		}
		units[i].boundSq = b
		if math.IsInf(b, 1) {
			continue
		}
		for c := rng.Intn(4); c > 0; c-- {
			units[i].cands = append(units[i].cands, sqItem{id: id, distSq: b + rng.Float64()*4})
			id++
		}
	}
	return units
}

// execRun drives ProbeUnits through ctx (or, with ctx == nil, the plain
// FanOut reference on pool) over units into col and reports which units were
// probed, in what order, and the answer.
func execRun(t *testing.T, ctx *SearchCtx, pool *parallel.Pool, units []execUnit, col *Collector) (probes []int, order []int, out []Result) {
	t.Helper()
	var mu sync.Mutex
	probes = make([]int, len(units))
	probe := func(i, _ int, col *Collector) error {
		mu.Lock()
		probes[i]++
		order = append(order, i)
		mu.Unlock()
		for _, c := range units[i].cands {
			col.AddSq(c.id, c.ts, c.distSq)
		}
		return nil
	}
	var err error
	if ctx == nil {
		err = FanOut(pool, len(units), col, probe)
	} else {
		err = ProbeUnits(ctx, "unit", ctx.PlanUnits(len(units)), col, func(i int) float64 { return units[i].boundSq }, probe)
	}
	if err != nil {
		t.Fatal(err)
	}
	return probes, order, col.Results()
}

// checkExec asserts the executor's contract for one kind of collector.
func checkExec(t *testing.T, label string, rng *rand.Rand, newCol func() *Collector) {
	t.Helper()
	for trial := 0; trial < 40; trial++ {
		units := randExecUnits(rng, rng.Intn(9))
		for _, workers := range []int{1, 2, 4} {
			pool := parallel.New(workers)
			_, _, want := execRun(t, nil, pool, units, newCol())
			for name, pl := range map[string]*Planner{"on": {}, "off": {Disabled: true}, "nil": nil} {
				where := fmt.Sprintf("%s trial %d workers=%d planner=%s", label, trial, workers, name)
				tr := obs.NewQueryTrace()
				ctx := &SearchCtx{Pool: pool, Trace: tr, Planner: pl}
				col := newCol()
				probes, order, got := execRun(t, ctx, pool, units, col)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: answer %v, unplanned fan-out %v", where, got, want)
				}
				probed := 0
				for i, n := range probes {
					if n > 1 {
						t.Fatalf("%s: unit %d probed %d times", where, i, n)
					}
					probed += n
				}
				snap := tr.Snapshot()
				var tracedProbed, tracedSkipped int64
				for _, kc := range snap.Kinds {
					tracedProbed += kc.Probed
					tracedSkipped += kc.Skipped
				}
				if tracedProbed != int64(probed) || tracedProbed+tracedSkipped != int64(len(units)) {
					t.Fatalf("%s: trace has %d probed + %d skipped for %d units, %d probes ran", where, tracedProbed, tracedSkipped, len(units), probed)
				}
				if pl != nil && snap.PlannedSkips != pl.Skips() {
					t.Fatalf("%s: trace planned skips %d, planner delta %d", where, snap.PlannedSkips, pl.Skips())
				}
				if !pl.Enabled() {
					if probed != len(units) {
						t.Fatalf("%s: disabled planner probed %d of %d units", where, probed, len(units))
					}
					continue
				}
				for i, u := range units {
					if math.IsInf(u.boundSq, 1) && probes[i] != 0 {
						t.Fatalf("%s: unit %d has a +Inf bound and was probed", where, i)
					}
				}
				if workers > 1 {
					continue
				}
				// Serial: the probes are a prefix of the plan order — for a
				// tightening collector ascending (bound, index), stopping at
				// the first skippable unit; for a static one, index order.
				planOrder := make([]PlanUnit, len(units))
				for i, u := range units {
					planOrder[i] = PlanUnit{BoundSq: u.boundSq, Idx: i}
				}
				if !col.BoundFixed() {
					SortPlan(planOrder)
					for i, idx := range order {
						if planOrder[i].Idx != idx {
							t.Fatalf("%s: probe %d hit unit %d, plan order %v", where, i, idx, planOrder)
						}
					}
				} else if !sort.IntsAreSorted(order) {
					t.Fatalf("%s: static-bound probes out of index order: %v", where, order)
				}
			}
		}
	}
}

// TestProbeUnits is the planned-probe executor's property test: whatever
// the bounds (0, ties, +Inf), k, worker count, collector type and planner
// state, every unit is probed or skipped exactly once, answers equal the
// unplanned fan-out's, and the trace's skips equal the planner's.
func TestProbeUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, k := range []int{1, 5} {
		// The collector starts seeded, as after an approximate phase, so
		// some units are skippable before any probe.
		seed := []sqItem{{id: -1, distSq: 3}, {id: -2, distSq: 6}}
		checkExec(t, fmt.Sprintf("knn k=%d", k), rng,
			func() *Collector {
				c := NewCollector(k)
				for _, s := range seed {
					c.AddSq(s.id, s.ts, s.distSq)
				}
				return c
			})
	}
	checkExec(t, "range", rng, func() *Collector { return NewRangeCollector(2) })
}

// The warm serial executor path — bound, sort, skip, probe, note — must not
// allocate: it runs on every planned query of every index.
func TestProbeUnitsSerialDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	units := randExecUnits(rand.New(rand.NewSource(103)), 8)
	pl := &Planner{}
	ctx := &SearchCtx{Planner: pl}
	bound := func(i int) float64 { return units[i].boundSq }
	col := NewCollector(5)
	probe := func(i, _ int, col *Collector) error {
		for _, c := range units[i].cands {
			col.AddSq(c.id, c.ts, c.distSq)
		}
		return nil
	}
	rcol := NewRangeCollector(2)
	run := func() {
		if err := ProbeUnits(ctx, "unit", ctx.PlanUnits(len(units)), col, bound, probe); err != nil {
			t.Fatal(err)
		}
		if err := ProbeUnits(ctx, "unit", ctx.PlanUnits(len(units)), rcol, bound, probe); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: afterwards every candidate is a duplicate or a loser
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("warm serial executor allocates %v per run, want 0", allocs)
	}
	if pl.Skips() == 0 {
		t.Fatal("fixture skipped no unit: the skip path went unmeasured")
	}
}
