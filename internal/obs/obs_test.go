package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers a counter, gauge, and histogram from
// many goroutines; run under -race this doubles as the data-race proof.
func TestConcurrentCounters(t *testing.T) {
	const workers = 8
	const perWorker = 5000
	var c Counter
	var g Gauge
	h := NewHistogram([]float64{1, 10, 100})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %g, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Sum of 0..199 repeated: workers * (perWorker/200) * (199*200/2)
	want := float64(workers) * float64(perWorker/200) * float64(199*200/2)
	if got := h.Sum(); got != want {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
}

// TestExpositionGolden pins the exact Prometheus text rendering:
// family ordering, HELP/TYPE blocks, label merging, cumulative
// histogram buckets, and collector-emitted samples.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	exact := r.Counter("demo_queries_total", "Queries served.", "mode", "exact")
	approx := r.Counter("demo_queries_total", "Queries served.", "mode", "approx")
	gauge := r.Gauge("demo_temperature", "A gauge.")
	h := r.Histogram("demo_latency_seconds", "Latency.", []float64{0.1, 1}, "mode", "exact")
	r.Collect(func(e *Emit) {
		e.Gauge("demo_build_series", "Series per build.", 42, "build", "build-1")
	})
	exact.Add(3)
	approx.Inc()
	gauge.Set(2.5)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP demo_build_series Series per build.
# TYPE demo_build_series gauge
demo_build_series{build="build-1"} 42
# HELP demo_latency_seconds Latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{mode="exact",le="0.1"} 1
demo_latency_seconds_bucket{mode="exact",le="1"} 2
demo_latency_seconds_bucket{mode="exact",le="+Inf"} 3
demo_latency_seconds_sum{mode="exact"} 5.55
demo_latency_seconds_count{mode="exact"} 3
# HELP demo_queries_total Queries served.
# TYPE demo_queries_total counter
demo_queries_total{mode="exact"} 3
demo_queries_total{mode="approx"} 1
# HELP demo_temperature A gauge.
# TYPE demo_temperature gauge
demo_temperature 2.5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestZeroAllocHotPath pins the instrumented probe paths at 0 allocs/op
// — the contract that lets metrics and the nil-trace checks sit on the
// gated benchmark paths.
func TestZeroAllocHotPath(t *testing.T) {
	var c Counter
	var g Gauge
	h := NewHistogram(LatencyBuckets())
	sl := NewSlowLog(8)
	var tr *QueryTrace // nil: the untraced hot path
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1.5)
		h.Observe(0.001)
		_ = sl.Slow(time.Millisecond)
		tr.NoteUnit("run", 3, 1.25, false)
		tr.NoteSkips("run", 7)
		tr.NoteCands(10, 5, 2, 3)
		sp := tr.Start("scan")
		sp.End()
	}); n != 0 {
		t.Fatalf("instrumented hot path allocates %v allocs/op, want 0", n)
	}
}

// TestQueryTrace exercises the traced path: unit detail, aggregates,
// truncation, candidate tallies, phases, and the
// snapshot's derived skip total.
func TestQueryTrace(t *testing.T) {
	tr := NewQueryTrace()
	tr.NoteUnit("run", 0, 2.5, false)
	tr.NoteUnit("run", 1, 9.0, true)
	tr.NoteSkips("run", 3)
	tr.NoteProbes("leaf", 5)
	tr.NoteSkips("leaf", 2)
	tr.NoteCands(100, 40, 10, 50)
	sp := tr.Start("scan")
	time.Sleep(time.Millisecond)
	sp.End()

	s := tr.Snapshot()
	if s.PlannedSkips != 6 { // 1 unit + 3 bulk + 2 leaf
		t.Fatalf("planned skips = %d, want 6", s.PlannedSkips)
	}
	if len(s.Units) != 2 || s.Units[1].Skipped != true || s.Units[1].BoundSq != 9.0 {
		t.Fatalf("unit detail wrong: %+v", s.Units)
	}
	kinds := map[string]KindCount{}
	for _, k := range s.Kinds {
		kinds[k.Kind] = k
	}
	if k := kinds["run"]; k.Probed != 1 || k.Skipped != 4 {
		t.Fatalf("run aggregate = %+v", k)
	}
	if k := kinds["leaf"]; k.Probed != 5 || k.Skipped != 2 {
		t.Fatalf("leaf aggregate = %+v", k)
	}
	if s.Candidates.Seen != 100 || s.Candidates.Verified != 40 ||
		s.Candidates.Abandoned != 10 || s.Candidates.Pruned != 50 {
		t.Fatalf("candidates = %+v", s.Candidates)
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != "scan" || s.Phases[0].Micros < 500 {
		t.Fatalf("phases = %+v", s.Phases)
	}

	// Detail caps; aggregates keep counting.
	big := NewQueryTrace()
	for i := 0; i < maxUnitDetail+10; i++ {
		big.NoteUnit("run", i, 0, false)
	}
	bs := big.Snapshot()
	if len(bs.Units) != maxUnitDetail || bs.UnitsTruncated != 10 {
		t.Fatalf("cap: %d units, %d truncated", len(bs.Units), bs.UnitsTruncated)
	}
	if bs.Kinds[0].Probed != maxUnitDetail+10 {
		t.Fatalf("cap aggregate = %+v", bs.Kinds[0])
	}

	// Nil trace snapshots to nil.
	var nilTr *QueryTrace
	if nilTr.Snapshot() != nil {
		t.Fatal("nil trace must snapshot to nil")
	}
}

// TestSlowLog checks thresholding, the ring's newest-first eviction
// order, and the lifetime total.
func TestSlowLog(t *testing.T) {
	sl := NewSlowLog(2)
	if sl.Slow(time.Hour) {
		t.Fatal("disabled log must never be slow")
	}
	sl.SetThreshold(10 * time.Millisecond)
	if sl.Slow(9 * time.Millisecond) {
		t.Fatal("below threshold")
	}
	if !sl.Slow(10 * time.Millisecond) {
		t.Fatal("at threshold must be slow")
	}
	for i := 1; i <= 3; i++ {
		sl.Record(SlowEntry{Kind: "query", K: i, DurationMicros: int64(i) * 1000})
	}
	if sl.Total() != 3 {
		t.Fatalf("total = %d, want 3", sl.Total())
	}
	got := sl.Entries()
	if len(got) != 2 || got[0].K != 3 || got[1].K != 2 {
		t.Fatalf("entries = %+v, want K=3 then K=2", got)
	}
	for _, e := range got {
		if e.UnixNanos == 0 {
			t.Fatal("entry time must be stamped")
		}
	}

	// Nil receiver is inert.
	var nilSL *SlowLog
	nilSL.SetThreshold(time.Second)
	if nilSL.Slow(time.Hour) || nilSL.Total() != 0 || nilSL.Entries() != nil {
		t.Fatal("nil slow log must be inert")
	}
	nilSL.Record(SlowEntry{})
}

// TestHistogramQuantile sanity-checks the upper-bound estimator.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %g, want 1", q)
	}
	if q := h.Quantile(0.99); q != 4 {
		t.Fatalf("p99 = %g, want 4", q)
	}
}
