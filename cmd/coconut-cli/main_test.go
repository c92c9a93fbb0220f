package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
)

// TestInsertSplitsLargestBatch: the largest insert the CLI accepts, 65 536
// series, reaches a node in requests within the server's caps, and every
// series lands.
func TestInsertSplitsLargestBatch(t *testing.T) {
	var (
		mu      sync.Mutex
		posts   int
		largest int64
	)
	inner := server.New().Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/insert" {
			mu.Lock()
			posts++
			largest = max(largest, r.ContentLength)
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var d server.DatasetResponse
	if err := call("POST", ts.URL+"/api/datasets", server.DatasetRequest{Kind: "randomwalk", N: 64, Len: 16, Seed: 3}, &d); err != nil {
		t.Fatal(err)
	}
	var b server.BuildResponse
	if err := call("POST", ts.URL+"/api/build", server.BuildRequest{Dataset: d.ID, Variant: "ADS+", Segments: 8, Bits: 8}, &b); err != nil {
		t.Fatal(err)
	}
	if err := insertCmd(ts.URL, []string{"-build", b.ID, "-n", "65536", "-len", "16"}); err != nil {
		t.Fatal(err)
	}
	if want := 65536 * 16 / server.MaxRequestValues; posts != want || largest > server.MaxRequestBytes {
		t.Fatalf("%d requests (want %d), the largest %d bytes (cap %d)", posts, want, largest, server.MaxRequestBytes)
	}
	out, err := insertBatch(ts.URL, b.ID, [][]float64{make([]float64, 16)}, 0)
	if err != nil || out.Inserted != 1 || out.Count != 64+65536+1 {
		t.Fatalf("one more series: %+v (%v), want count %d", out, err, 64+65536+1)
	}
}

// TestSeriesLengthFromBuild: query, explain and insert without -len
// generate series of the build's length, here 128 points, and the server
// answers each.
func TestSeriesLengthFromBuild(t *testing.T) {
	ts := httptest.NewServer(server.New().Handler())
	defer ts.Close()
	var d server.DatasetResponse
	if err := call("POST", ts.URL+"/api/datasets", server.DatasetRequest{Kind: "randomwalk", N: 64, Len: 128, Seed: 3}, &d); err != nil {
		t.Fatal(err)
	}
	var b server.BuildResponse
	if err := call("POST", ts.URL+"/api/build", server.BuildRequest{Dataset: d.ID, Variant: "CTree"}, &b); err != nil {
		t.Fatal(err)
	}
	if err := query(ts.URL, []string{"-build", b.ID}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := explainCmd(ts.URL, []string{"-build", b.ID, "-no-heatmap"}); err != nil {
		t.Fatalf("explain: %v", err)
	}
	if err := insertCmd(ts.URL, []string{"-build", b.ID, "-n", "3"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := query(ts.URL, []string{"-build", b.ID, "-len", "64"}); err == nil || !strings.Contains(err.Error(), "server 400") {
		t.Fatalf("query of 64 points against a 128-point build: %v, want a 400", err)
	}
}
