package coconut

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/clsm"
)

func randomWalks(n, length int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, length)
		v := 0.0
		for j := range s {
			v += rng.NormFloat64()
			s[j] = v
		}
		out[i] = s
	}
	return out
}

func znorm(s []float64) []float64 {
	mean, std := 0.0, 0.0
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	for _, v := range s {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(s)))
	out := make([]float64, len(s))
	if std < 1e-12 {
		return out
	}
	for i, v := range s {
		out[i] = (v - mean) / std
	}
	return out
}

func trueNN(q []float64, data [][]float64) (int, float64) {
	zq := znorm(q)
	best, bestD := -1, math.Inf(1)
	for i, s := range data {
		zs := znorm(s)
		acc := 0.0
		for j := range zq {
			d := zq[j] - zs[j]
			acc += d * d
		}
		if d := math.Sqrt(acc); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func TestBuildTreeAndSearch(t *testing.T) {
	data := randomWalks(500, 128, 1)
	tr, err := BuildTree(data, Options{SeriesLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 500 {
		t.Fatalf("count = %d", tr.Count())
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		q := randomWalks(1, 128, rng.Int63())[0]
		wantID, wantD := trueNN(q, data)
		got, err := tr.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].ID != wantID || math.Abs(got[0].Dist-wantD) > 1e-9 {
			t.Fatalf("trial %d: got %+v, want id %d dist %v", trial, got, wantID, wantD)
		}
	}
}

func TestTreeSearchApprox(t *testing.T) {
	data := randomWalks(500, 128, 3)
	tr, err := BuildTree(data, Options{SeriesLen: 128, Materialized: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.SearchApprox(data[42], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 42 || got[0].Dist > 1e-9 {
		t.Fatalf("self approx = %+v", got)
	}
}

func TestTreeInsert(t *testing.T) {
	data := randomWalks(200, 64, 4)
	tr, err := BuildTree(data, Options{SeriesLen: 64, FillFactor: 0.5, Materialized: true})
	if err != nil {
		t.Fatal(err)
	}
	extra := randomWalks(20, 64, 5)
	for _, s := range extra {
		if err := tr.Insert(s, 7); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != 220 {
		t.Fatalf("count = %d", tr.Count())
	}
	got, err := tr.Search(extra[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Dist > 1e-9 || got[0].TS != 7 {
		t.Fatalf("inserted not found: %+v", got)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := BuildTree(nil, Options{}); err == nil {
		t.Fatal("missing SeriesLen should fail")
	}
	if _, err := BuildTree(nil, Options{SeriesLen: 64, Segments: 99}); err == nil {
		t.Fatal("bad segments should fail")
	}
	tr, err := BuildTree(randomWalks(5, 64, 6), Options{SeriesLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(make([]float64, 3), 0); err == nil {
		t.Fatal("wrong-length insert should fail")
	}
}

func TestLSMLifecycle(t *testing.T) {
	l, err := NewLSM(Options{SeriesLen: 64, BufferEntries: 50, GrowthFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := randomWalks(400, 64, 7)
	for i, s := range data {
		if err := l.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Count() != 400 {
		t.Fatalf("count = %d", l.Count())
	}
	if l.Runs() == 0 {
		t.Fatal("expected on-disk runs")
	}
	wantID, wantD := trueNN(data[100], data)
	got, err := l.Search(data[100], 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != wantID || math.Abs(got[0].Dist-wantD) > 1e-9 {
		t.Fatalf("got %+v", got)
	}
	// Windowed search respects the window.
	win, err := l.SearchWindow(data[100], 1, 200, 399)
	if err != nil {
		t.Fatal(err)
	}
	if len(win) != 1 || win[0].TS < 200 {
		t.Fatalf("windowed = %+v", win)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SearchApprox(data[0], 3); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSchemes(t *testing.T) {
	data := randomWalks(600, 64, 8)
	for _, kind := range []SchemeKind{PP, TP, BTP} {
		s, err := NewStream(kind, Options{SeriesLen: 64, BufferEntries: 100})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i, ser := range data {
			id, err := s.Ingest(ser, int64(i))
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if id != i {
				t.Fatalf("%s: id %d != %d", kind, id, i)
			}
		}
		if s.Count() != 600 {
			t.Fatalf("%s: count %d", kind, s.Count())
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		// Window [300,599]: the best answer must respect it and match brute
		// force over that range.
		q := data[450]
		got, err := s.SearchWindow(q, 1, 300, 599)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(got) != 1 || got[0].ID != 450 || got[0].Dist > 1e-9 {
			t.Fatalf("%s: windowed self-query = %+v", kind, got)
		}
		if _, err := s.SearchApprox(q, 2, 0, 599); err != nil {
			t.Fatalf("%s approx: %v", kind, err)
		}
		if _, err := s.Search(q, 1); err != nil {
			t.Fatalf("%s full search: %v", kind, err)
		}
	}
}

func TestStreamPartitionShapes(t *testing.T) {
	data := randomWalks(1000, 64, 9)
	counts := map[SchemeKind]int{}
	for _, kind := range []SchemeKind{PP, TP, BTP} {
		s, _ := NewStream(kind, Options{SeriesLen: 64, BufferEntries: 100})
		for i, ser := range data {
			s.Ingest(ser, int64(i))
		}
		counts[kind] = s.Partitions()
	}
	if counts[PP] != 1 {
		t.Errorf("PP partitions = %d, want 1", counts[PP])
	}
	if counts[TP] != 10 {
		t.Errorf("TP partitions = %d, want 10", counts[TP])
	}
	if counts[BTP] >= counts[TP] {
		t.Errorf("BTP partitions %d not below TP %d", counts[BTP], counts[TP])
	}
}

func TestStreamUnknownScheme(t *testing.T) {
	if _, err := NewStream("XX", Options{SeriesLen: 64}); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}

func TestRecommendFacade(t *testing.T) {
	r := Recommend(Scenario{Streaming: true, SmallWindows: true, MemoryBudgetFrac: 0.1})
	if r.Variant() != "CLSM+BTP" {
		t.Fatalf("variant = %s", r.Variant())
	}
	if len(r.Rationale) == 0 {
		t.Fatal("no rationale")
	}
}

func TestStatsAccounting(t *testing.T) {
	// Large enough that streaming dominates the constant seek overheads.
	data := randomWalks(5000, 128, 10)
	tr, _ := BuildTree(data, Options{SeriesLen: 128, Materialized: true})
	st := tr.Stats()
	if st.Pages == 0 || st.SeqWrites == 0 {
		t.Fatalf("stats = %+v", st)
	}
	seqDominates := float64(st.SeqReads+st.SeqWrites) > 5*float64(st.RandReads+st.RandWrites)
	if !seqDominates {
		t.Errorf("bulk load should be sequential: %+v", st)
	}
	if st.Cost(10) <= 0 {
		t.Fatal("cost must be positive")
	}
}

func TestNameReporting(t *testing.T) {
	s, _ := NewStream(BTP, Options{SeriesLen: 64})
	if s.Name() != "CLSM+BTP" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestSaveOpenTree(t *testing.T) {
	data := randomWalks(400, 64, 20)
	for _, mat := range []bool{false, true} {
		tr, err := BuildTree(data, Options{SeriesLen: 64, Materialized: mat})
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/tree.ccnut"
		if err := tr.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := OpenTree(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() != 400 {
			t.Fatalf("mat=%v: reopened count = %d", mat, got.Count())
		}
		q := data[123]
		want, _ := tr.Search(q, 3)
		have, err := got.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i].ID != have[i].ID || math.Abs(want[i].Dist-have[i].Dist) > 1e-12 {
				t.Fatalf("mat=%v result %d: %+v vs %+v", mat, i, want[i], have[i])
			}
		}
		// The reopened tree still accepts inserts and finds them.
		extra := randomWalks(1, 64, 21)[0]
		if err := got.Insert(extra, 9); err != nil {
			t.Fatal(err)
		}
		res, err := got.Search(extra, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Dist > 1e-9 || res[0].TS != 9 {
			t.Fatalf("mat=%v: inserted after reopen not found: %+v", mat, res)
		}
	}
}

func TestOpenTreeErrors(t *testing.T) {
	if _, err := OpenTree(t.TempDir() + "/missing.ccnut"); err == nil {
		t.Fatal("missing file should fail")
	}
	bad := t.TempDir() + "/bad.ccnut"
	if err := osWriteFile(bad, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTree(bad); err == nil {
		t.Fatal("corrupt file should fail")
	}
}

func osWriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

func TestSearchRange(t *testing.T) {
	data := randomWalks(400, 64, 30)
	tr, err := BuildTree(data, Options{SeriesLen: 64, Materialized: true})
	if err != nil {
		t.Fatal(err)
	}
	// Self query at tiny eps finds exactly itself.
	got, err := tr.SearchRange(data[7], 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 7 {
		t.Fatalf("self range = %+v", got)
	}
	// Wide eps returns many, sorted, all within eps.
	got, err = tr.SearchRange(data[7], 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("wide range returned %d", len(got))
	}
	for i, m := range got {
		if m.Dist > 12 {
			t.Fatalf("result %d outside eps: %+v", i, m)
		}
		if i > 0 && m.Dist < got[i-1].Dist {
			t.Fatal("not sorted")
		}
	}
	// LSM agrees with the tree.
	l, _ := NewLSM(Options{SeriesLen: 64, Materialized: true, BufferEntries: 64})
	for i, s := range data {
		l.Insert(s, int64(i))
	}
	lres, err := l.SearchRange(data[7], 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(lres) != len(got) {
		t.Fatalf("LSM range %d results, tree %d", len(lres), len(got))
	}
}

func TestSaveOpenLSM(t *testing.T) {
	data := randomWalks(500, 64, 40)
	l, err := NewLSM(Options{SeriesLen: 64, BufferEntries: 64, GrowthFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := l.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/lsm.ccnut"
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenLSM(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 500 {
		t.Fatalf("count = %d", got.Count())
	}
	want, _ := l.Search(data[77], 2)
	have, err := got.Search(data[77], 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].ID != have[i].ID || math.Abs(want[i].Dist-have[i].Dist) > 1e-12 {
			t.Fatalf("result %d: %+v vs %+v", i, want[i], have[i])
		}
	}
	// Keeps ingesting after reopen.
	extra := randomWalks(1, 64, 41)[0]
	if err := got.Insert(extra, 1000); err != nil {
		t.Fatal(err)
	}
	res, err := got.Search(extra, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Dist > 1e-9 || res[0].TS != 1000 {
		t.Fatalf("post-reopen insert not found: %+v", res)
	}
}

// TestSearchRangeRefusesNaNAndNegativeEps: a NaN or a negative eps is no
// distance, and every handle refuses it, naming eps; 0 and +Inf answer as
// documented — the exact matches, and every series.
func TestSearchRangeRefusesNaNAndNegativeEps(t *testing.T) {
	data := randomWalks(300, 64, 31)
	opts := Options{SeriesLen: 64, Materialized: true, BufferEntries: 64}
	tr, err := BuildTree(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	l, err := NewLSM(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, s := range data {
		if err := l.Insert(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := BuildShardedTree(data, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for name, idx := range map[string]interface {
		SearchRange(q []float64, eps float64) ([]Match, error)
	}{"Tree": tr, "LSM": l, "Sharded": sh} {
		for _, eps := range []float64{math.NaN(), -1, math.Inf(-1), -1e-300} {
			if _, err := idx.SearchRange(data[7], eps); err == nil || !strings.Contains(err.Error(), "eps") {
				t.Errorf("%s eps=%v: %v, want an error naming eps", name, eps, err)
			}
		}
		if got, err := idx.SearchRange(data[7], 0); err != nil || len(got) != 1 || got[0].ID != 7 {
			t.Errorf("%s eps=0: %+v, %v; want series 7 alone", name, got, err)
		}
		if got, err := idx.SearchRange(data[7], math.Inf(1)); err != nil || len(got) != len(data) {
			t.Errorf("%s eps=+Inf: %d results, %v; want all %d", name, len(got), err, len(data))
		}
	}
}

// TestStreamPPIsItsBaseIndex: a PP stream is a plain CLSM build, ingesting
// in arrival order — one partition, named for its index, nothing to seal,
// saved as the LSM it is — where a TP stream has no snapshot.
func TestStreamPPIsItsBaseIndex(t *testing.T) {
	s, err := NewStream(PP, Options{SeriesLen: 64, BufferEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.b.Index.(*clsm.LSM); !ok {
		t.Fatalf("a PP stream's index is %T, want its CLSM", s.b.Index)
	}
	if s.Name() != "CLSM+PP" || s.Partitions() != 1 {
		t.Fatalf("name %q, %d partitions; want CLSM+PP and 1", s.Name(), s.Partitions())
	}
	for i, ser := range randomWalks(50, 64, 2) {
		if id, err := s.Ingest(ser, int64(i)); err != nil || id != i {
			t.Fatalf("ingest %d: id %d, %v", i, id, err)
		}
	}
	if s.Count() != 50 || s.Partitions() != 1 {
		t.Fatalf("count %d, %d partitions; want 50 and 1", s.Count(), s.Partitions())
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/pp.ccnut"
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLSM(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Count() != 50 {
		t.Fatalf("the saved PP stream reopens as an LSM of %d series, want 50", l.Count())
	}
	tp, err := NewStream(TP, Options{SeriesLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if err := tp.SaveFile(t.TempDir() + "/tp.ccnut"); err == nil {
		t.Fatal("a TP stream was saved")
	}
}

// TestNewStreamRefusesDurability: a stream keeps no write-ahead log and runs
// no background compaction, and says so rather than dropping either setting.
func TestNewStreamRefusesDurability(t *testing.T) {
	for _, kind := range []SchemeKind{PP, TP, BTP} {
		for name, opts := range map[string]Options{
			"WALDir":            {SeriesLen: 64, WALDir: t.TempDir()},
			"CompactionWorkers": {SeriesLen: 64, CompactionWorkers: 2},
		} {
			if s, err := NewStream(kind, opts); err == nil || !strings.Contains(err.Error(), name) {
				if s != nil {
					s.Close()
				}
				t.Errorf("%s with %s: %v, want an error naming %s", kind, name, err, name)
			}
		}
	}
}
