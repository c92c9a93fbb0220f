package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/simd"
)

// durableBuild runs a server with a WAL root and builds a CLSMFull index on
// it whose level merges run on two background workers.
func durableBuild(t *testing.T) (*httptest.Server, BuildResponse) {
	t.Helper()
	s := New()
	s.SetWALRoot(t.TempDir())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 300, Len: 64, Seed: 2}, &d)
	var b BuildResponse
	req := BuildRequest{Dataset: d.ID, Variant: "CLSMFull", Segments: 8, Bits: 8, CompactionWorkers: 2}
	if code := postJSON(t, ts.URL+"/api/build", req, &b); code != http.StatusCreated {
		t.Fatalf("build status %d", code)
	}
	return ts, b
}

func randRaw(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

func TestInsertEndpointRoundTrip(t *testing.T) {
	ts, b := durableBuild(t)

	rng := rand.New(rand.NewSource(7))
	batch := make([][]float64, 50)
	for i := range batch {
		batch[i] = randRaw(rng, 64)
	}
	var ir InsertResponse
	code := postJSON(t, ts.URL+"/api/insert", InsertRequest{Build: b.ID, Series: batch, TS: 9}, &ir)
	if code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	if ir.Inserted != 50 || ir.Count != 350 || !ir.Synced {
		t.Fatalf("insert response: %+v", ir)
	}
	// The ingested series are immediately searchable: query with one of
	// them, exact, expecting distance ~0 at the new ID range.
	var qr QueryResponse
	code = postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: batch[0], K: 1, Exact: true}, &qr)
	if code != http.StatusOK || len(qr.Results) != 1 {
		t.Fatalf("query status %d results %v", code, qr.Results)
	}
	if qr.Results[0].ID < 300 || qr.Results[0].Dist > 1e-9 {
		t.Fatalf("inserted series not found: %+v", qr.Results[0])
	}

	// Stats now expose the WAL and compaction sections.
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/api/stats?build="+b.ID, &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if !st.WAL.Enabled || st.WAL.Appends != 350 {
		t.Fatalf("wal stats: %+v", st.WAL)
	}
	if !st.Compaction.Enabled || !st.Compaction.Background || st.Compaction.Flushes == 0 {
		t.Fatalf("compaction stats: %+v", st.Compaction)
	}
}

func TestInsertValidation(t *testing.T) {
	ts := newTestServer(t)
	_, b := buildOn(t, ts, "CLSMFull")
	q := make([]float64, 64)

	if code := postJSON(t, ts.URL+"/api/insert", InsertRequest{Build: "nope", Series: [][]float64{q}}, nil); code != http.StatusNotFound {
		t.Fatalf("missing build: %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/insert", InsertRequest{Build: b.ID}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/insert", InsertRequest{Build: b.ID, Series: [][]float64{q[:10]}}, nil); code != http.StatusBadRequest {
		t.Fatalf("wrong length: %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/insert", InsertRequest{Build: b.ID, Series: [][]float64{q}, Timestamps: []int64{1, 2}}, nil); code != http.StatusBadRequest {
		t.Fatalf("timestamps mismatch: %d", code)
	}
	// A non-materialized build appends the series to its raw series file
	// first: the insert is searchable at once, at distance 0 from itself.
	_, nb := buildOn(t, ts, "CLSM")
	ins := randRaw(rand.New(rand.NewSource(8)), 64)
	var ir InsertResponse
	if code := postJSON(t, ts.URL+"/api/insert", InsertRequest{Build: nb.ID, Series: [][]float64{ins}}, &ir); code != http.StatusOK {
		t.Fatalf("non-materialized insert: %d", code)
	}
	var qr QueryResponse
	if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: nb.ID, Series: ins, K: 1, Exact: true}, &qr); code != http.StatusOK || len(qr.Results) != 1 {
		t.Fatalf("query status %d results %v", code, qr.Results)
	}
	if got := qr.Results[0]; got.ID != ir.Count-1 || got.Dist > 1e-9 {
		t.Fatalf("inserted series %d not found: %+v", ir.Count-1, got)
	}
	// Durability without a WAL root is a client error.
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 100, Len: 64, Seed: 3}, &d)
	code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CLSM", Segments: 8, Bits: 8, Durability: "sync"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("durability without -wal: %d", code)
	}
}

// TestDurabilityRefusedWithoutALog: only an unsharded CLSM build keeps a
// write-ahead log, so a build that would keep none is refused a durability
// it names, even on a server with a WAL root, rather than built to answer
// its inserts "synced" with no log behind them. No durability, or "off",
// builds as before.
func TestDurabilityRefusedWithoutALog(t *testing.T) {
	s := New()
	s.SetWALRoot(t.TempDir())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 200, Len: 64, Seed: 4}, &d)
	build := func(req BuildRequest) (int, string) {
		req.Dataset, req.Segments, req.Bits = d.ID, 8, 8
		var e struct {
			Error string `json:"error"`
		}
		return postJSON(t, ts.URL+"/api/build", req, &e), e.Error
	}
	for _, c := range []struct {
		name string
		req  BuildRequest
	}{
		{"sharded CLSMFull", BuildRequest{Variant: "CLSMFull", Shards: 2}},
		{"cluster CLSM", BuildRequest{Variant: "CLSM", ClusterShards: 2, NodeShards: []int{0}}},
		{"CTreeFull", BuildRequest{Variant: "CTreeFull"}},
	} {
		for _, dur := range []string{"batched", "sync"} {
			req := c.req
			req.Durability = dur
			if code, msg := build(req); code != http.StatusBadRequest || !strings.Contains(msg, "keeps no write-ahead log") {
				t.Errorf("%s, durability %q: status %d, error %q; want 400 naming the missing log", c.name, dur, code, msg)
			}
		}
		for _, dur := range []string{"", "off"} {
			req := c.req
			req.Durability = dur
			if code, msg := build(req); code != http.StatusCreated {
				t.Errorf("%s, durability %q: status %d (%s), want 201", c.name, dur, code, msg)
			}
		}
	}
	if code, msg := build(BuildRequest{Variant: "CLSMFull", Durability: "batched"}); code != http.StatusCreated {
		t.Fatalf("unsharded CLSMFull, durability batched: status %d (%s)", code, msg)
	}
}

func TestConcurrentInsertsAndQueries(t *testing.T) {
	ts, b := durableBuild(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5; i++ {
				batch := [][]float64{randRaw(rng, 64), randRaw(rng, 64)}
				var ir InsertResponse
				if code := postJSON(t, ts.URL+"/api/insert", InsertRequest{Build: b.ID, Series: batch}, &ir); code != http.StatusOK {
					errs <- fmt.Sprintf("insert status %d", code)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 8; i++ {
				var qr QueryResponse
				if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: randRaw(rng, 64), K: 3, Exact: true}, &qr); code != http.StatusOK {
					errs <- fmt.Sprintf("query status %d", code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/api/stats?build="+b.ID, &st)
	if st.WAL.Appends != 300+20 {
		t.Fatalf("wal appends = %d, want 320", st.WAL.Appends)
	}
}

// statsBody is GET /api/stats of a durable CLSMFull build with a small cache
// and inline merges, after 50 inserts and one exact query. The %s is the
// process's distance kernel.
const statsBody = `{"build":"build-3","variant":"CLSMFull","shards":1,"backend":"sim","kernel":"%s","series_len":64,` +
	`"aggregate":{"seq_reads":13,"rand_reads":3,"seq_writes":42,"rand_writes":2,"cache_hits":1,"cache_misses":16,"hit_ratio":0.058823529411764705,"cost":105},` +
	`"per_shard":[{"seq_reads":13,"rand_reads":3,"seq_writes":42,"rand_writes":2,"cache_hits":1,"cache_misses":16,"hit_ratio":0.058823529411764705,"cost":105}],` +
	`"cache":{"enabled":true,"capacity_bytes":65536,"capacity_frames":16,"hits":1,"misses":16,"hit_ratio":0.058823529411764705,"evictions":0},` +
	`"planner":{"planned_skips":27},` +
	`"wal":{"enabled":true,"segments":1,"first_lsn":0,"next_lsn":350,"appends":350,"syncs":350,"rotations":0,"truncated_segments":0,"bytes_appended":193550},` +
	`"compaction":{"enabled":true,"background":false,"flushes":1,"merges":0,"levels":1,"runs":1,"manifest_version":1,"retained_manifests":1,"reclaimed_runs":0,"pending":false,"durable_lsn":299}}`

// TestStatsBodyPinned: the /api/stats body of a durable CLSM build keeps
// its bytes: field names, order and values.
func TestStatsBodyPinned(t *testing.T) {
	s := New()
	s.SetWALRoot(t.TempDir())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 300, Len: 64, Seed: 2}, &d)
	var b BuildResponse
	req := BuildRequest{Dataset: d.ID, Variant: "CLSMFull", Segments: 8, Bits: 8, Durability: "sync", CacheBytes: 1 << 16}
	if code := postJSON(t, ts.URL+"/api/build", req, &b); code != http.StatusCreated {
		t.Fatalf("build status %d", code)
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([][]float64, 50)
	for i := range batch {
		batch[i] = randRaw(rng, 64)
	}
	postJSON(t, ts.URL+"/api/insert", InsertRequest{Build: b.ID, Series: batch, TS: 9}, nil)
	postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: batch[0], K: 3, Exact: true}, nil)
	resp, err := http.Get(ts.URL + "/api/stats?build=" + b.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(string(raw)), fmt.Sprintf(statsBody, simd.Active()); got != want {
		t.Fatalf("stats body:\n got %s\nwant %s", got, want)
	}
}
