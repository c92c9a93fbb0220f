package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// clusterNode creates a server with a seeded dataset and a cluster build
// owning the given shards, returning the test server and build ID.
func clusterNode(t *testing.T, ts *httptest.Server, nshards int, owned []int) string {
	t.Helper()
	var d DatasetResponse
	if code := postJSON(t, ts.URL+"/api/datasets",
		DatasetRequest{Kind: "randomwalk", N: 200, Len: 32, Seed: 5}, &d); code != 201 {
		t.Fatalf("dataset status %d", code)
	}
	var b BuildResponse
	code := postJSON(t, ts.URL+"/api/build", BuildRequest{
		Dataset: d.ID, Variant: "CTreeFull", ClusterShards: nshards, NodeShards: owned,
	}, &b)
	if code != 201 {
		t.Fatalf("cluster build status %d", code)
	}
	if b.ClusterShards != nshards || len(b.NodeShards) != len(owned) {
		t.Fatalf("build response cluster fields = %d/%v, want %d/%v",
			b.ClusterShards, b.NodeShards, nshards, owned)
	}
	return b.ID
}

// probeSeries returns a deterministic query of the node dataset's length.
func probeSeries(n int) []float64 {
	s := make([]float64, n)
	v := 0.0
	for i := range s {
		v += math.Sin(float64(i)*0.7) * 0.5
		s[i] = v
	}
	return s
}

func TestClusterInfoEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id := clusterNode(t, ts, 4, []int{1, 3})
	var info ClusterInfoResponse
	if code := getJSON(t, ts.URL+"/api/cluster/info?build="+id, &info); code != 200 {
		t.Fatalf("info status %d", code)
	}
	if info.ClusterShards != 4 || len(info.NodeShards) != 2 || info.SeriesLen != 32 {
		t.Fatalf("info = %+v", info)
	}
	if info.MaxID < 0 || info.Count <= 0 {
		t.Fatalf("info count/maxID = %d/%d", info.Count, info.MaxID)
	}
	// A non-cluster build is rejected.
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "randomwalk", N: 50, Len: 32, Seed: 5}, &d)
	var plain BuildResponse
	postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTree"}, &plain)
	var e errorResponse
	if code := getJSON(t, ts.URL+"/api/cluster/info?build="+plain.ID, &e); code != 400 {
		t.Fatalf("plain build info status %d (%s)", code, e.Error)
	}
	if code := getJSON(t, ts.URL+"/api/cluster/info?build=nope", &e); code != 404 {
		t.Fatalf("missing build info status %d", code)
	}
}

// TestClusterSearchMatchesQuery checks the node's scatter-gather endpoint
// against its own public query endpoint: merging the per-shard squared sums
// and sorting by (dist, id) must reproduce /api/query exactly.
func TestClusterSearchMatchesQuery(t *testing.T) {
	ts := newTestServer(t)
	id := clusterNode(t, ts, 4, []int{0, 1, 2, 3})
	q := probeSeries(32)

	var want QueryResponse
	if code := postJSON(t, ts.URL+"/api/query",
		QueryRequest{Build: id, Series: q, K: 5, Exact: true}, &want); code != 200 {
		t.Fatalf("query status %d", code)
	}
	var got ClusterSearchResponse
	if code := postJSON(t, ts.URL+"/api/cluster/search",
		ClusterSearchRequest{Build: id, Series: q, K: 5, Mode: "exact"}, &got); code != 200 {
		t.Fatalf("cluster search status %d", code)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d cluster results, %d query results", len(got.Results), len(want.Results))
	}
	// Cluster results are unsorted collector contents; sort-merge them the
	// router's way and compare distances bit-for-bit.
	byID := make(map[int64]float64, len(got.Results))
	for _, r := range got.Results {
		byID[r.ID] = r.DistSq
	}
	for _, w := range want.Results {
		dsq, ok := byID[w.ID]
		if !ok {
			t.Fatalf("id %d missing from cluster results", w.ID)
		}
		if math.Float64bits(math.Sqrt(dsq)) != math.Float64bits(w.Dist) {
			t.Fatalf("id %d: sqrt(dist_sq) %x != dist %x", w.ID,
				math.Float64bits(math.Sqrt(dsq)), math.Float64bits(w.Dist))
		}
	}

	// Probing the node's shards one at a time and merging covers the same
	// candidate set.
	seen := make(map[int64]bool)
	for si := 0; si < 4; si++ {
		var part ClusterSearchResponse
		if code := postJSON(t, ts.URL+"/api/cluster/search",
			ClusterSearchRequest{Build: id, Series: q, K: 5, Shards: []int{si}}, &part); code != 200 {
			t.Fatalf("shard %d search status %d", si, code)
		}
		for _, r := range part.Results {
			seen[r.ID] = true
		}
	}
	for _, w := range want.Results {
		if !seen[w.ID] {
			t.Fatalf("id %d not in any per-shard top-k", w.ID)
		}
	}
}

func TestClusterSearchValidation(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	id := clusterNode(t, ts, 4, []int{0, 1})
	q := probeSeries(32)
	var e errorResponse
	// Unowned shard fails loudly instead of answering incompletely.
	if code := postJSON(t, ts.URL+"/api/cluster/search",
		ClusterSearchRequest{Build: id, Series: q, K: 3, Shards: []int{2}}, &e); code != 400 {
		t.Fatalf("unowned shard status %d", code)
	}
	if !strings.Contains(e.Error, "does not own") {
		t.Fatalf("unowned shard error = %q", e.Error)
	}
	// Refusals answer 400 with the node's own texts: a node's query and a
	// cluster search share the length, window and k checks.
	bound := int64(5)
	for _, row := range []struct {
		name string
		req  ClusterSearchRequest
		want string
	}{
		{"range without eps", ClusterSearchRequest{Build: id, Series: q, Mode: "range"}, "range mode needs eps > 0, got 0"},
		{"bad mode", ClusterSearchRequest{Build: id, Series: q, Mode: "wat"}, `unknown mode "wat" (want exact, approx, or range)`},
		{"short series", ClusterSearchRequest{Build: id, Series: q[:10], K: 3}, "query length 10, want 32"},
		{"min_ts without max_ts", ClusterSearchRequest{Build: id, Series: q, K: 3, MinTS: &bound}, "min_ts and max_ts are required together"},
	} {
		e = errorResponse{}
		if code := postJSON(t, ts.URL+"/api/cluster/search", row.req, &e); code != 400 || e.Error != row.want {
			t.Fatalf("%s: status %d error %q, want 400 %q", row.name, code, e.Error, row.want)
		}
	}
	// A page of an owned shard that cannot be read is the node's failure,
	// not the request's.
	b, _ := s.lookupBuild(id)
	disk := b.built.Parts[0].Disk
	for _, name := range disk.Files() {
		if err := disk.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if code := postJSON(t, ts.URL+"/api/cluster/search",
		ClusterSearchRequest{Build: id, Series: q, K: 3, Shards: []int{0}}, &e); code != 500 {
		t.Fatalf("failed page read status %d (%s)", code, e.Error)
	}
	if code := postJSON(t, ts.URL+"/api/cluster/search",
		ClusterSearchRequest{Build: id, Series: q, K: 3, Shards: []int{2}}, &e); code != 400 {
		t.Fatalf("unowned shard status %d after the failed read", code)
	}
}

func TestClusterInsertEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id := clusterNode(t, ts, 2, []int{0, 1})
	var info ClusterInfoResponse
	getJSON(t, ts.URL+"/api/cluster/info?build="+id, &info)

	s := probeSeries(32)
	next := info.MaxID + 1
	var ins ClusterInsertResponse
	if code := postJSON(t, ts.URL+"/api/cluster/insert", ClusterInsertRequest{
		Build: id,
		Entries: []ClusterEntry{
			{ID: next, TS: 100, Series: s},
			{ID: next + 1, TS: 101, Series: s},
		},
	}, &ins); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	if ins.Applied != 2 || ins.MaxID != next+1 {
		t.Fatalf("insert response = %+v", ins)
	}

	// A gap in a shard's ID sequence is rejected before anything applies:
	// skip one whole ID (whichever shard it lands in misses it).
	var e errorResponse
	if code := postJSON(t, ts.URL+"/api/cluster/insert", ClusterInsertRequest{
		Build:   id,
		Entries: []ClusterEntry{{ID: next + 3, TS: 102, Series: s}},
	}, &e); code != 400 {
		t.Fatalf("gap insert status %d (%s)", code, e.Error)
	}
	if !strings.Contains(e.Error, "missed a write") && !strings.Contains(e.Error, "not ascending") {
		t.Fatalf("gap insert error = %q", e.Error)
	}

	// The inserted series are findable through the cluster search path.
	var got ClusterSearchResponse
	if code := postJSON(t, ts.URL+"/api/cluster/search",
		ClusterSearchRequest{Build: id, Series: s, K: 1, Mode: "exact"}, &got); code != 200 {
		t.Fatalf("post-insert search status %d", code)
	}
	if len(got.Results) != 1 || (got.Results[0].ID != next && got.Results[0].ID != next+1) {
		t.Fatalf("post-insert nearest = %+v, want one of ids %d/%d", got.Results, next, next+1)
	}
}

// TestClusterInsertChecksWholeBatch: a replica batch is checked whole
// before any entry applies. One whose third entry skips an ID is a 400
// naming that entry, and leaves the node's count as it was; the corrected
// batch then applies.
func TestClusterInsertChecksWholeBatch(t *testing.T) {
	ts := newTestServer(t)
	id := clusterNode(t, ts, 2, []int{0, 1})
	var before ClusterInfoResponse
	getJSON(t, ts.URL+"/api/cluster/info?build="+id, &before)

	s := probeSeries(32)
	next := before.MaxID + 1
	entries := []ClusterEntry{{ID: next, Series: s}, {ID: next + 1, Series: s}, {ID: next + 3, Series: s}, {ID: next + 4, Series: s}}
	var e errorResponse
	if code := postJSON(t, ts.URL+"/api/cluster/insert", ClusterInsertRequest{Build: id, Entries: entries}, &e); code != http.StatusBadRequest {
		t.Fatalf("a batch skipping an ID: status %d (%s)", code, e.Error)
	}
	if want := fmt.Sprintf("entry 2 (id %d)", next+3); !strings.Contains(e.Error, want) || !strings.Contains(e.Error, "missed a write") {
		t.Fatalf("a batch skipping an ID: error %q, want it to name %q", e.Error, want)
	}
	var after ClusterInfoResponse
	getJSON(t, ts.URL+"/api/cluster/info?build="+id, &after)
	if after.Count != before.Count || after.MaxID != before.MaxID {
		t.Fatalf("a refused batch applied: count %d → %d, max id %d → %d", before.Count, after.Count, before.MaxID, after.MaxID)
	}

	entries[2].ID, entries[3].ID = next+2, next+3
	var ins ClusterInsertResponse
	if code := postJSON(t, ts.URL+"/api/cluster/insert", ClusterInsertRequest{Build: id, Entries: entries}, &ins); code != http.StatusOK {
		t.Fatalf("the corrected batch: status %d", code)
	}
	if ins.Applied != len(entries) || ins.Count != before.Count+int64(len(entries)) || ins.MaxID != next+3 {
		t.Fatalf("the corrected batch: %+v", ins)
	}
}

func TestClusterBuildRequestValidation(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "randomwalk", N: 50, Len: 32, Seed: 5}, &d)
	for _, tc := range []struct {
		name string
		req  BuildRequest
	}{
		{"node shards without cluster", BuildRequest{Dataset: d.ID, Variant: "CTree", NodeShards: []int{0}}},
		{"cluster without node shards", BuildRequest{Dataset: d.ID, Variant: "CTree", ClusterShards: 2}},
		{"shard out of range", BuildRequest{Dataset: d.ID, Variant: "CTree", ClusterShards: 2, NodeShards: []int{2}}},
		{"duplicate shard", BuildRequest{Dataset: d.ID, Variant: "CTree", ClusterShards: 2, NodeShards: []int{0, 0}}},
		{"conflict with shards", BuildRequest{Dataset: d.ID, Variant: "CTree", ClusterShards: 2, NodeShards: []int{0}, Shards: 2}},
	} {
		var e errorResponse
		if code := postJSON(t, ts.URL+"/api/build", tc.req, &e); code != 400 {
			t.Errorf("%s: status %d (%s)", tc.name, code, e.Error)
		}
	}
}
