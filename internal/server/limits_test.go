package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// blanks reads as an endless run of JSON whitespace.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// paddedBody is a JSON request of exactly n bytes: head, blanks, then the
// closing brace, so that a decoder reads every byte before the value ends.
func paddedBody(head string, n int) io.Reader {
	return io.MultiReader(strings.NewReader(head), io.LimitReader(blanks{}, int64(n-len(head)-1)), strings.NewReader("}"))
}

// TestRequestBodyCap: every JSON endpoint of a node refuses a body one byte
// over MaxRequestBytes with 413 and a JSON error, and a request padded to
// exactly the cap decodes and is served.
func TestRequestBodyCap(t *testing.T) {
	h := New().Handler()
	serve := func(path string, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec
	}
	for _, path := range []string{"/api/datasets", "/api/build", "/api/query", "/api/query/batch", "/api/insert",
		"/api/recommend", "/api/cluster/search", "/api/cluster/insert"} {
		rec := serve(path, paddedBody("{", MaxRequestBytes+1))
		var e errorResponse
		if err := json.NewDecoder(rec.Body).Decode(&e); rec.Code != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
			t.Errorf("%s, a body over the cap: status %d, error %q (%v)", path, rec.Code, e.Error, err)
		}
	}
	rec := serve("/api/datasets", paddedBody(`{"kind":"randomwalk","n":4,"len":8`, MaxRequestBytes))
	var d DatasetResponse
	if err := json.NewDecoder(rec.Body).Decode(&d); rec.Code != http.StatusCreated || err != nil || d.Count != 4 {
		t.Fatalf("a dataset request at the cap: status %d, %+v (%v)", rec.Code, d, err)
	}
}

// TestBatchValuesCap: a batch within MaxBatch whose series hold more than
// MaxRequestValues values in all is refused with 413 and a JSON error on
// every batch endpoint of a node, though its body is well under the cap.
func TestBatchValuesCap(t *testing.T) {
	ts := newTestServer(t)
	_, b := buildOn(t, ts, "CTreeFull")
	cb := clusterNode(t, ts, 2, []int{0, 1})
	over := func(length int) [][]float64 {
		batch := make([][]float64, MaxRequestValues/length+1)
		for i := range batch {
			batch[i] = make([]float64, length)
		}
		return batch
	}
	entries := make([]ClusterEntry, MaxRequestValues/32+1)
	for i := range entries {
		entries[i] = ClusterEntry{ID: 200 + int64(i), Series: make([]float64, 32)}
	}
	for path, req := range map[string]any{
		"/api/insert":         InsertRequest{Build: b.ID, Series: over(64)},
		"/api/query/batch":    BatchQueryRequest{Build: b.ID, Queries: over(64)},
		"/api/cluster/insert": ClusterInsertRequest{Build: cb, Entries: entries},
	} {
		var e errorResponse
		if code := postJSON(t, ts.URL+path, req, &e); code != http.StatusRequestEntityTooLarge || e.Error == "" {
			t.Errorf("%s over the values cap: status %d, error %q", path, code, e.Error)
		}
	}
}
