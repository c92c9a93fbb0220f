package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
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

// TestRouterRequestBodyCap: every JSON endpoint of the router refuses a body
// one byte over server.MaxRequestBytes with 413 and a JSON error, as a node
// does, and a request padded to exactly the cap decodes and is served.
func TestRouterRequestBodyCap(t *testing.T) {
	owned := [][]int{{0, 1}}
	r, err := New(topologyOf(2, []*testNode{startNode(t, 2, owned[0], nil)}, owned), Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := r.Handler()
	serve := func(path string, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec
	}
	for _, path := range []string{"/api/query", "/api/query/batch", "/api/insert", "/api/cluster/drain"} {
		rec := serve(path, paddedBody("{", server.MaxRequestBytes+1))
		var e map[string]string
		if err := json.NewDecoder(rec.Body).Decode(&e); rec.Code != http.StatusRequestEntityTooLarge || err != nil || e["error"] == "" {
			t.Errorf("%s, a body over the cap: status %d, %v (%v)", path, rec.Code, e, err)
		}
	}
	rec := serve("/api/cluster/drain", paddedBody(`{"node":"a"`, server.MaxRequestBytes))
	var d map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&d); rec.Code != http.StatusOK || err != nil || d["draining"] != true {
		t.Fatalf("a drain request at the cap: status %d, %v (%v)", rec.Code, d, err)
	}
}

// TestRouterInsertAtCapKeepsReplica: a router insert padded to exactly
// server.MaxRequestBytes, holding server.MaxBatch series of 8 points, so
// server.MaxRequestValues values, at their widest JSON and with the widest
// timestamps, reaches the node holding every shard once the router has
// re-encoded it with an id per entry, and the node does not go stale.
func TestRouterInsertAtCapKeepsReplica(t *testing.T) {
	const length = server.MaxRequestValues / server.MaxBatch
	ts := httptest.NewServer(server.New().Handler())
	t.Cleanup(ts.Close)
	var d server.DatasetResponse
	if code := postJSON(t, ts.URL+"/api/datasets",
		server.DatasetRequest{Kind: "randomwalk", N: testN, Len: length, Seed: testSeed}, &d); code != 201 {
		t.Fatalf("dataset status %d", code)
	}
	var b server.BuildResponse
	if code := postJSON(t, ts.URL+"/api/build", server.BuildRequest{
		Dataset: d.ID, Variant: "ADS+", Segments: length, Bits: 8, ClusterShards: 2, NodeShards: []int{0, 1},
	}, &b); code != 201 {
		t.Fatalf("cluster build status %d", code)
	}
	topo := Topology{Shards: 2, SeriesLen: length, Nodes: []Node{{Name: "a", URL: ts.URL, Build: b.ID, Shards: []int{0, 1}}}}
	r, err := New(topo, Options{Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const v = -1.2345678901234567e-6
	wide, _ := json.Marshal(v)
	if len(wide) != 25 {
		t.Fatalf("%v encodes in %d bytes, want the widest, 25", v, len(wide))
	}
	row := "[" + strings.Repeat(string(wide)+",", length-1) + string(wide) + "]"
	var head strings.Builder
	head.WriteString(`{"series":[`)
	for i := 0; i < server.MaxBatch; i++ {
		if i > 0 {
			head.WriteByte(',')
		}
		head.WriteString(row)
	}
	head.WriteString(`],"timestamps":[`)
	for i := 0; i < server.MaxBatch; i++ {
		if i > 0 {
			head.WriteByte(',')
		}
		head.WriteString(strconv.FormatInt(math.MinInt64+int64(i), 10))
	}
	head.WriteString("]")

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/insert", paddedBody(head.String(), server.MaxRequestBytes)))
	var out server.InsertResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil || out.Count != testN+server.MaxBatch {
		t.Fatalf("an insert at the cap: status %d, %s (%v), want count %d", rec.Code, rec.Body.Bytes(), err, testN+server.MaxBatch)
	}
	for _, st := range r.NodeStatuses() {
		if st.Stale || st.Fails != 0 {
			t.Errorf("node %s after an insert at the cap: stale %v, %d fails (%s)", st.Name, st.Stale, st.Fails, st.LastErr)
		}
	}
}

// TestRouterInsertWideAtCapKeepsReplica: a router insert padded to exactly
// server.MaxRequestBytes, holding server.MaxBatch series of 8 points whose
// numbers are spelled wider than 25 bytes with whitespace inside their
// arrays, reaches the node holding every shard once the router has
// compacted its literals and added an id per entry: no 413, and the node
// does not go stale.
func TestRouterInsertWideAtCapKeepsReplica(t *testing.T) {
	const length = server.MaxRequestValues / server.MaxBatch
	ts := httptest.NewServer(server.New().Handler())
	t.Cleanup(ts.Close)
	var d server.DatasetResponse
	if code := postJSON(t, ts.URL+"/api/datasets",
		server.DatasetRequest{Kind: "randomwalk", N: testN, Len: length, Seed: testSeed}, &d); code != 201 {
		t.Fatalf("dataset status %d", code)
	}
	var b server.BuildResponse
	if code := postJSON(t, ts.URL+"/api/build", server.BuildRequest{
		Dataset: d.ID, Variant: "ADS+", Segments: length, Bits: 8, ClusterShards: 2, NodeShards: []int{0, 1},
	}, &b); code != 201 {
		t.Fatalf("cluster build status %d", code)
	}
	topo := Topology{Shards: 2, SeriesLen: length, Nodes: []Node{{Name: "a", URL: ts.URL, Build: b.ID, Shards: []int{0, 1}}}}
	r, err := New(topo, Options{Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Both spell -1.2345678901234567e-6, which encoding/json writes in 25
	// bytes, in 42: forwarded as spelled, even without the whitespace, the
	// node's body would be over the cap.
	wide := []string{"-0.0000012345678901234567" + strings.Repeat("0", 17), "-1.2345678901234567" + strings.Repeat("0", 19) + "E-06"}
	var row strings.Builder
	row.WriteString("[\n")
	for i := 0; i < length; i++ {
		if i > 0 {
			row.WriteString(", ")
		}
		row.WriteString(wide[i%2])
	}
	row.WriteString("]")
	var head strings.Builder
	head.WriteString(`{"series":[`)
	for i := 0; i < server.MaxBatch; i++ {
		if i > 0 {
			head.WriteByte(',')
		}
		head.WriteString(row.String())
	}
	head.WriteString(`],"timestamps":[`)
	for i := 0; i < server.MaxBatch; i++ {
		if i > 0 {
			head.WriteByte(',')
		}
		head.WriteString(strconv.FormatInt(math.MinInt64+int64(i), 10))
	}
	head.WriteString("]")
	if head.Len() >= server.MaxRequestBytes || head.Len() < server.MaxRequestBytes-server.MaxRequestBytes/16 {
		t.Fatalf("the request head is %d bytes, want just under the cap, %d", head.Len(), server.MaxRequestBytes)
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/insert", paddedBody(head.String(), server.MaxRequestBytes)))
	var out server.InsertResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil || out.Count != testN+server.MaxBatch {
		t.Fatalf("a wide insert at the cap: status %d, %s (%v), want count %d", rec.Code, rec.Body.Bytes(), err, testN+server.MaxBatch)
	}
	for _, st := range r.NodeStatuses() {
		if st.Stale || st.Fails != 0 {
			t.Errorf("node %s after a wide insert at the cap: stale %v, %d fails (%s)", st.Name, st.Stale, st.Fails, st.LastErr)
		}
	}
}
