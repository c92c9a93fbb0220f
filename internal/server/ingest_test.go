package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/assemble"
)

// newDurableTestServer runs a server with a WAL root and background
// compaction enabled by default.
func newDurableTestServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	s := New()
	s.SetWALRoot(t.TempDir())
	s.SetDefaults(assemble.Spec{CompactionWorkers: workers})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
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
	ts := newDurableTestServer(t, 2)
	_, b := buildOn(t, ts, "CLSMFull")

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
	// Non-materialized builds keep raw series in a sealed file: refuse.
	_, nb := buildOn(t, ts, "CLSM")
	if code := postJSON(t, ts.URL+"/api/insert", InsertRequest{Build: nb.ID, Series: [][]float64{q}}, nil); code != http.StatusBadRequest {
		t.Fatalf("non-materialized insert: %d", code)
	}
	// Durability without a WAL root is a client error.
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 100, Len: 64, Seed: 3}, &d)
	code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CLSM", Segments: 8, Bits: 8, Durability: "sync"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("durability without -wal: %d", code)
	}
}

func TestConcurrentInsertsAndQueries(t *testing.T) {
	ts := newDurableTestServer(t, 2)
	_, b := buildOn(t, ts, "CLSMFull")
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
