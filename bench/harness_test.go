package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{2000, 1980}, // plain p99
		{1000, 990},
		{999, 989}, // p99 would be rank 990, nine beyond: step back
		{500, 490}, // the highest rank with ten beyond
		{30, 20},
		{21, 11}, // clamps at the median's rank
		{12, 6},
		{1, 1},
	} {
		if got := tailRank(c.n, 0.99); got != c.want {
			t.Errorf("tailRank(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = float64(500 - i) // descending: percentile sorts
	}
	v, reported := percentile(samples, 0.99)
	if v != 490 || reported != 0.98 {
		t.Errorf("percentile of 1..500 = %v at %v, want 490 at 0.98", v, reported)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	// quartiles 2.9375 and 3.1625 around the median 3.025
	vals := []float64{3.1, 2.9, 3.0, 3.3, 2.8, 3.05, 3.2, 2.95, 3.15, 3.0}
	if got, want := quartileSpread(vals), (3.1625-2.9375)/3.025; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestReplayCalibratesAndTakesThePerOperationMedian(t *testing.T) {
	at := func(wallMS, slow float64) timed {
		return timed{time.Duration(wallMS * float64(time.Millisecond)), slow}
	}
	// Two operations, 10 ms and 4 ms on a quiet core. The second pass ran on
	// a core 1.5 times slower and the yardstick saw it; in the third a stall
	// the yardstick did not see hit the first operation.
	rp := replay{
		{at(10, 1), at(4, 1)},
		{at(15, 1.5), at(6, 1.5)},
		{at(30, 1), at(4, 1)},
	}
	perOp := rp.perOp()
	if len(perOp) != 2 || math.Abs(perOp[0]-10) > 1e-9 || math.Abs(perOp[1]-4) > 1e-9 {
		t.Errorf("perOp = %v, want [10 4]", perOp)
	}
	if got := rp.rawMedian(); got != 8 { // of 4 4 6 10 15 30
		t.Errorf("rawMedian = %v, want 8", got)
	}
	if got := rp.boxSlowdown(); got != 1 {
		t.Errorf("boxSlowdown = %v, want 1", got)
	}
	res := newResult(wlStatic, false)
	res.setQueries(rp)
	if got, want := res.Metrics["query_qps"], 1e3*2/14.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("query_qps = %v, want %v", got, want)
	}
	if got := res.Metrics["query_p50_ms"]; math.Abs(got-7) > 1e-9 {
		t.Errorf("query_p50_ms = %v, want 7", got)
	}
}

func TestLongOperationSettlesAgainstTheReadingsAroundIt(t *testing.T) {
	t0 := time.Unix(100, 0)
	y := &yardLog{}
	for _, r := range []struct {
		at   time.Duration
		slow float64
	}{{-3 * time.Second, 9}, {-500 * time.Millisecond, 1.2}, {-time.Millisecond, 1.4}, {2*time.Second + time.Millisecond, 1.3}, {2900 * time.Millisecond, 1.1}, {4 * time.Second, 9}} {
		y.at, y.slow = append(y.at, t0.Add(r.at)), append(y.slow, r.slow)
	}
	got := y.settle(longOp{t0, t0.Add(2 * time.Second)})
	if got.wall != 2*time.Second || got.slow != 1.25 { // the readings within a second: 1.1 1.2 1.3 1.4
		t.Errorf("settle = %+v, want 2 s at 1.25", got)
	}
	if math.Abs(got.seconds()-1.6) > 1e-12 {
		t.Errorf("calibrated %v s, want 1.6", got.seconds())
	}
	// A live reading is positive and finite, and timeLong brackets its
	// operation with readings.
	live := &yardLog{}
	op, err := live.timeLong(func() error { return nil })
	if s := live.settle(op); err != nil || len(live.at) != 2*yardBracket || s.slow <= 0 || math.IsInf(s.slow, 0) || math.IsNaN(s.slow) {
		t.Errorf("timeLong: %d readings, settled %+v, err %v", len(live.at), s, err)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "call", Start: 30, End: 60}, // overlaps span 2: ran concurrently
		{ID: 4, Parent: 2, Name: "decode", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 50, "call": 25 + 30, "decode": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilIsFreeAndParentsResolve(t *testing.T) {
	var none *tracer
	if allocs := testing.AllocsPerRun(100, func() { none.end(none.begin(0, "x", 1)) }); allocs != 0 {
		t.Errorf("untraced begin/end allocates %v times", allocs)
	}
	tr := newTracer()
	root := tr.begin(0, "root", 0)
	child := tr.begin(root, "child", 7)
	tr.end(child)
	tr.end(root)
	for _, s := range tr.spans {
		if s.End < s.Start || (s.Parent != 0 && int(s.Parent) > len(tr.spans)) {
			t.Errorf("bad span %+v", s)
		}
	}
	if tr.spans[1].Parent != root || tr.spans[1].Req != 7 {
		t.Errorf("child span = %+v", tr.spans[1])
	}
}

// fakeClock advances only when slept on or when an operation takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopPacesAndTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	service := []time.Duration{2, 2, 25, 2, 2} // ms; the third operation stalls
	res := openLoop(clk, 1, 10*time.Millisecond, len(service), func(_, i int) error {
		clk.now = clk.now.Add(service[i] * time.Millisecond)
		return nil
	})
	ms := func(ns []int64) []int64 {
		out := make([]int64, len(ns))
		for i, v := range ns {
			out[i] = v / 1e6
		}
		return out
	}
	// Operations 3 and 4 were due at 30 and 40 ms but the stall held the
	// only worker until 45 ms: they are sent late and timed from due time.
	if got, want := ms(res.Lag), []int64{0, 0, 0, 15, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("lag = %v, want %v", got, want)
	}
	if got, want := ms(res.Lat), []int64{2, 2, 25, 17, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("latency from due time = %v, want %v", got, want)
	}
	if res.Wall != 49*time.Millisecond || res.Failed != 0 {
		t.Errorf("wall %v failed %d", res.Wall, res.Failed)
	}
}

func TestClosedLoopStopsAtBudgetCapAndStopSignal(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	step := func(_, _ int) error { clk.now = clk.now.Add(time.Millisecond); return nil }
	if r := closedLoop(clk, 1, 10*time.Millisecond, 0, step); len(r.Lat) != 10 {
		t.Errorf("budget of 10 ms at 1 ms each ran %d operations", len(r.Lat))
	}
	if r := closedLoop(clk, 1, 0, 7, step); len(r.Lat) != 7 {
		t.Errorf("cap of 7 ran %d operations", len(r.Lat))
	}
	r := closedLoop(clk, 1, 0, 0, func(_, i int) error {
		if i == 3 {
			return errStop
		}
		return step(0, i)
	})
	if len(r.Lat) != 3 || r.Failed != 0 {
		t.Errorf("stopped loop: %d done, %d failed", len(r.Lat), r.Failed)
	}
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	a, b, c := &env{seed: 7}, &env{seed: 7}, &env{seed: 8}
	wa, wb, wc := randomWalks(a.rng(1), 16, 32), randomWalks(b.rng(1), 16, 32), randomWalks(c.rng(1), 16, 32)
	if !reflect.DeepEqual(wa, wb) {
		t.Error("the same seed gave different random walks")
	}
	if reflect.DeepEqual(wa, wc) {
		t.Error("different seeds gave the same random walks")
	}
	if reflect.DeepEqual(wa, randomWalks(a.rng(2), 16, 32)) {
		t.Error("two input streams of one seed coincide")
	}
	sa := gen.Seismic(gen.SeismicConfig{Batches: 3, BatchSize: 4, Len: 16, QuakeProb: 0.5, Seed: a.rng(1).Int63()})
	sb := gen.Seismic(gen.SeismicConfig{Batches: 3, BatchSize: 4, Len: 16, QuakeProb: 0.5, Seed: b.rng(1).Int63()})
	if !reflect.DeepEqual(sa, sb) {
		t.Error("the same seed gave different arrivals")
	}
}

func TestOracleChecks(t *testing.T) {
	data := [][]float64{{0, 1, 2, 3}, {3, 2, 1, 0}, {0, 2, 1, 3}, {1, 1, 2, 5}}
	all := scan(znormAll(data), nil, []float64{0, 1, 2, 3.5}, nil)
	if all[0].ID != 0 || all[len(all)-1].ID != 1 {
		t.Fatalf("scan order %+v", all)
	}
	if err := checkKNN(all[:2], all, 2); err != nil {
		t.Errorf("the oracle's own answer fails: %v", err)
	}
	if err := checkKNN([]neighbor{all[0], all[2]}, all, 2); err == nil {
		t.Error("a wrong second neighbour passes")
	}
	if err := checkKNN(all[:1], all, 2); err == nil {
		t.Error("a short answer passes")
	}
	eps := (all[1].Dist + all[2].Dist) / 2
	if err := checkRange(all[:2], all, eps); err != nil {
		t.Errorf("the oracle's own range answer fails: %v", err)
	}
	if err := checkRange(all[:1], all, eps); err == nil {
		t.Error("a range answer missing a series passes")
	}
	if f, of := recallAt(all[:3], []neighbor{all[2], all[3]}); f != 1 || of != 3 {
		t.Errorf("recall %d of %d", f, of)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "query_qps", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "io_cost_per_query", Better: "lower", Bound: 0.10, Exact: []string{wlStatic}}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name  string
		d     metricDef
		a, b  []float64
		seeds bool
		want  string
	}{
		{"within bound", lower, steady, []float64{10.5, 10.6, 10.4, 10.5, 10.5}, true, verdictOK},
		{"worse beyond bound", lower, steady, []float64{11.5, 11.6, 11.4, 11.5, 11.5}, true, verdictRegressed},
		{"better is never a regression", lower, steady, []float64{5, 5, 5, 5, 5}, true, verdictOK},
		{"higher is better", higher, steady, []float64{8, 8, 8, 8, 8}, true, verdictRegressed},
		{"spread wider than bound", lower, []float64{6, 14, 10, 7, 13}, []float64{11.5, 11.6, 11.4, 11.5, 11.5}, true, verdictUnresolved},
		{"exact count, same seeds, any change", exact, []float64{100, 100}, []float64{100.5, 100.5}, true, verdictRegressed},
		{"exact count, same seeds, identical", exact, []float64{100, 100}, []float64{100, 100}, true, verdictOK},
		{"exact count, other seeds, its bound", exact, []float64{100, 100}, []float64{104, 104}, false, verdictOK},
		{"nothing to compare", lower, steady, nil, true, verdictMissing},
	} {
		if got, _, _ := judge(c.d, wlStatic, c.a, c.b, c.seeds); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesOtherFingerprints(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cores int, p50 float64) string {
		e := &env{seed: 1, seconds: referenceSeconds}
		fp := takeFingerprint(e)
		fp.Cores = cores
		res := newResult(wlStatic, false)
		res.set("query_p50_ms", p50)
		path := dir + "/" + name
		for i := 0; i < 3; i++ {
			if err := appendRecord(path, fp, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b, other := write("a.json", 2, 10), write("b.json", 2, 14), write("c.json", 4, 10)
	var out bytes.Buffer
	if code := runCompare(&out, a, b); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a vs b: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, a, a); code != 0 {
		t.Errorf("a vs a: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, a, other); code != 2 || !strings.Contains(out.String(), "refusing") {
		t.Errorf("other machine: exit %d\n%s", code, out.String())
	}
}

// TestBenchmarkJSONAgreesWithTheHarness keeps the contract file and the
// metric lists in step.
func TestBenchmarkJSONAgreesWithTheHarness(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, the harness is sized for %d", doc.RunSeconds, referenceSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness has %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	strip := func(in []metricDef) []metricDef {
		out := append([]metricDef(nil), in...)
		for i := range out {
			out[i].Exact = nil
		}
		return out
	}
	if !reflect.DeepEqual(e2e, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\n json    %+v\n harness %+v", e2e, strip(endToEnd))
	}
	if !reflect.DeepEqual(layers, strip(perLayer)) {
		t.Errorf("per_layer differs:\n json    %+v\n harness %+v", layers, strip(perLayer))
	}
}

func TestContractLineHasEveryMetricOfItsMode(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := newResult(wlStream, traced)
		for _, d := range res.defs() {
			res.set(d.Name, 1.5)
		}
		res.ops(3, 0)
		var line struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted != 3 || len(line.Metrics) != len(res.defs()) {
			t.Errorf("traced=%v: %+v", traced, line)
		}
	}
	// A traced run reports a layer it does not exercise as 0; an untraced
	// run leaves a metric whose phase failed out.
	if got := newResult(wlStream, true).contractLine(); !strings.Contains(got, `"wal.sync_ns":{"value":0`) {
		t.Errorf("traced line lacks the zero: %s", got)
	}
	if got := newResult(wlStream, false).missing(); !strings.Contains(got, "query_p50_ms") {
		t.Errorf("missing() = %q", got)
	}
}
