package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndVariants(t *testing.T) {
	ts := newTestServer(t)
	var health map[string]string
	if code := getJSON(t, ts.URL+"/api/health", &health); code != 200 {
		t.Fatalf("health status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}
	var vs struct {
		Variants []string `json:"variants"`
	}
	if code := getJSON(t, ts.URL+"/api/variants", &vs); code != 200 {
		t.Fatalf("variants status %d", code)
	}
	if len(vs.Variants) != 6 {
		t.Fatalf("variants = %v", vs.Variants)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	code := postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 200, Len: 64, Seed: 1}, &d)
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	if d.Count != 200 || d.Len != 64 || d.ID == "" {
		t.Fatalf("dataset = %+v", d)
	}
	var list struct {
		Datasets []DatasetResponse `json:"datasets"`
	}
	getJSON(t, ts.URL+"/api/datasets", &list)
	if len(list.Datasets) != 1 || list.Datasets[0].ID != d.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestDatasetValidation(t *testing.T) {
	ts := newTestServer(t)
	var e errorResponse
	if code := postJSON(t, ts.URL+"/api/datasets", DatasetRequest{N: 0, Len: 64}, &e); code != http.StatusBadRequest {
		t.Fatalf("zero n status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/datasets", DatasetRequest{N: 10, Len: 0}, &e); code != http.StatusBadRequest {
		t.Fatalf("zero len status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "nope", N: 10, Len: 64}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad kind status %d", code)
	}
	// n and len each in range, but 2^34 values (128 GiB) together: refused
	// before a single one is generated.
	for _, req := range []DatasetRequest{{N: 1 << 20, Len: 1 << 14}, {Kind: "randomwalk", N: 1<<12 + 1, Len: 1 << 14}} {
		if code := postJSON(t, ts.URL+"/api/datasets", req, &e); code != http.StatusBadRequest {
			t.Fatalf("%d x %d dataset status %d", req.N, req.Len, code)
		}
	}
	// The shortest series every kind generates, with every series carrying
	// its event: a dataset, not a panic the client sees as a dropped
	// connection.
	for _, kind := range []string{"astronomy", "randomwalk", "finance", "ecg"} {
		var d DatasetResponse
		if code := postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: kind, N: 4, Len: 1, FracEvent: 1}, &d); code != http.StatusCreated || d.Count != 4 {
			t.Fatalf("%s of length 1: status %d, %+v", kind, code, d)
		}
	}
}

func buildOn(t *testing.T, ts *httptest.Server, variant string) (DatasetResponse, BuildResponse) {
	t.Helper()
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 300, Len: 64, Seed: 2}, &d)
	var b BuildResponse
	code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: variant, Segments: 8, Bits: 8}, &b)
	if code != http.StatusCreated {
		t.Fatalf("build status %d", code)
	}
	return d, b
}

func TestBuildAllVariants(t *testing.T) {
	ts := newTestServer(t)
	for _, v := range []string{"CTree", "CTreeFull", "CLSM", "ADS+"} {
		_, b := buildOn(t, ts, v)
		if b.Variant != v || b.Count != 300 {
			t.Fatalf("%s: build = %+v", v, b)
		}
		if b.BuildCost <= 0 || b.IndexPages <= 0 {
			t.Fatalf("%s: missing accounting: %+v", v, b)
		}
	}
}

// TestBuildIgnoresCompress: the compress field older clients send is
// accepted and ignored. Every build writes fixed-size pages, so a key-only
// build asked to compress writes what one not asked writes, and says so.
func TestBuildIgnoresCompress(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 600, Len: 64, Seed: 4}, &d)
	var plain, asked BuildResponse
	for _, b := range []struct {
		compress bool
		resp     *BuildResponse
	}{{false, &plain}, {true, &asked}} {
		req := BuildRequest{Dataset: d.ID, Variant: "CLSM", Segments: 8, Bits: 8, Compress: b.compress}
		if code := postJSON(t, ts.URL+"/api/build", req, b.resp); code != http.StatusCreated {
			t.Fatalf("compress=%v: build status %d", b.compress, code)
		}
	}
	if asked.Compress || asked.IndexPages != plain.IndexPages || asked.SeqIO != plain.SeqIO || asked.RandIO != plain.RandIO {
		t.Fatalf("a build asked to compress: %+v; one not asked: %+v", asked, plain)
	}
}

// TestBuildSettingsFromRequest: a build's settings come from its request
// alone, and 0 means what Spec's zero means. A request that leaves
// parallelism, shards, cache_bytes and compaction_workers unset, one that
// writes Spec's zeros out, and one that sends the older wire's opt-outs
// (cache_bytes -1, compaction_workers -1, shards 1, parallelism 0 or 1)
// build the same index and give byte-identical exact answers.
func TestBuildSettingsFromRequest(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 500, Len: 64, Seed: 5}, &d)
	queries := gen.TemplateQueries(gen.TemplateSupernova, 64, 4, 0.5, 9)
	rows := []struct {
		name   string
		fields map[string]any
	}{
		{"unset", nil},
		{"spec zeros", map[string]any{"parallelism": 0, "shards": 0, "cache_bytes": 0, "compaction_workers": 0}},
		{"old opt-outs", map[string]any{"parallelism": 0, "shards": 1, "cache_bytes": -1, "compaction_workers": -1}},
		{"serial", map[string]any{"parallelism": 1}},
	}
	for _, variant := range []string{"CTree", "CLSM"} {
		var want BuildResponse
		var wantAnswers []byte
		for i, row := range rows {
			req := map[string]any{"dataset": d.ID, "variant": variant, "segments": 8, "bits": 8}
			for k, v := range row.fields {
				req[k] = v
			}
			var b BuildResponse
			if code := postJSON(t, ts.URL+"/api/build", req, &b); code != http.StatusCreated {
				t.Fatalf("%s %s: build status %d", variant, row.name, code)
			}
			var answers []QueryResult
			for _, q := range queries {
				var qr QueryResponse
				if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 5, Exact: true}, &qr); code != http.StatusOK {
					t.Fatalf("%s %s: query status %d", variant, row.name, code)
				}
				answers = append(answers, qr.Results...)
			}
			got, _ := json.Marshal(answers)
			if i == 0 {
				want, wantAnswers = b, got
				continue
			}
			if b.Count != want.Count || b.IndexPages != want.IndexPages || b.Shards != want.Shards || b.Backend != want.Backend {
				t.Fatalf("%s %s: build %+v, unset gives %+v", variant, row.name, b, want)
			}
			if !bytes.Equal(got, wantAnswers) {
				t.Fatalf("%s %s: answers differ from unset:\n%s\n%s", variant, row.name, got, wantAnswers)
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	ts := newTestServer(t)
	var e errorResponse
	if code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: "missing", Variant: "CTree"}, &e); code != http.StatusNotFound {
		t.Fatalf("missing dataset status %d", code)
	}
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{N: 10, Len: 64}, &d)
	if code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "bogus"}, &e); code != http.StatusBadRequest {
		t.Fatalf("bogus variant status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTree", Durability: "bogus"}, &e); code != http.StatusBadRequest {
		t.Fatalf("bogus durability status %d", code)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	_, b := buildOn(t, ts, "CTreeFull")
	q := make([]float64, 64)
	for i := range q {
		q[i] = float64(i % 7)
	}
	var resp QueryResponse
	code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 3, Exact: true}, &resp)
	if code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %+v", resp.Results)
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Dist < resp.Results[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
	if resp.SeqIO+resp.RandIO == 0 {
		t.Fatal("query reported no I/O")
	}
}

func TestQueryValidation(t *testing.T) {
	ts := newTestServer(t)
	_, b := buildOn(t, ts, "CTree")
	var e errorResponse
	if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: "missing", Series: make([]float64, 64)}, &e); code != http.StatusNotFound {
		t.Fatalf("missing build status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: make([]float64, 5)}, &e); code != http.StatusBadRequest {
		t.Fatalf("wrong length status %d", code)
	}
}

func TestWindowedQuery(t *testing.T) {
	ts := newTestServer(t)
	_, b := buildOn(t, ts, "CTreeFull")
	minTS, maxTS := int64(5), int64(10)
	var resp QueryResponse
	// Build stamps everything TS=0, so a [5,10] window excludes all.
	code := postJSON(t, ts.URL+"/api/query", QueryRequest{
		Build: b.ID, Series: make([]float64, 64), K: 1, Exact: true, MinTS: &minTS, MaxTS: &maxTS,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("window should exclude everything, got %+v", resp.Results)
	}
	// One bound alone is no window: refused, not answered unwindowed.
	var e errorResponse
	for _, req := range []QueryRequest{{MinTS: &minTS}, {MaxTS: &maxTS}} {
		req.Build, req.Series, req.K, req.Exact = b.ID, make([]float64, 64), 1, true
		if code := postJSON(t, ts.URL+"/api/query", req, &e); code != http.StatusBadRequest {
			t.Fatalf("half window %+v: status %d", req, code)
		}
	}
}

func TestRecommendEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var r RecommendResponse
	code := postJSON(t, ts.URL+"/api/recommend", RecommendRequest{Streaming: true, SmallWindows: true, MemoryBudgetFrac: 0.1}, &r)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if r.Variant != "CLSM+BTP" {
		t.Fatalf("variant = %q", r.Variant)
	}
	if len(r.Rationale) == 0 {
		t.Fatal("no rationale")
	}
	code = postJSON(t, ts.URL+"/api/recommend", RecommendRequest{ExpectedQueries: 1000, MemoryBudgetFrac: 0.2}, &r)
	if code != http.StatusOK || r.Variant != "CTreeFull" {
		t.Fatalf("static many-queries: %d %q", code, r.Variant)
	}
}

func TestHeatmapEndpoint(t *testing.T) {
	ts := newTestServer(t)
	_, b := buildOn(t, ts, "CTreeFull")
	// Issue a query so the tracer has something.
	postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: make([]float64, 64), K: 1, Exact: true}, nil)
	var h HeatmapResponse
	code := getJSON(t, fmt.Sprintf("%s/api/heatmap?build=%s", ts.URL, b.ID), &h)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(h.Maps) == 0 || len(h.ASCII) == 0 {
		t.Fatalf("empty heatmap: %+v", h)
	}
	if h.Jumps.Accesses == 0 {
		t.Fatal("no traced accesses")
	}
	if code := getJSON(t, ts.URL+"/api/heatmap?build=missing", nil); code != http.StatusNotFound {
		t.Fatalf("missing build status %d", code)
	}
}

func TestMethodEnforcement(t *testing.T) {
	ts := newTestServer(t)
	if code := getJSON(t, ts.URL+"/api/build", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET build status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/variants", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST variants status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/heatmap", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST heatmap status %d", code)
	}
}

func TestDatasetKinds(t *testing.T) {
	ts := newTestServer(t)
	for _, kind := range []string{"astronomy", "randomwalk", "finance", "ecg"} {
		var d DatasetResponse
		code := postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: kind, N: 50, Len: 64, FracEvent: 0.1, Seed: 1}, &d)
		if code != http.StatusCreated {
			t.Fatalf("%s: status %d", kind, code)
		}
		if d.Count != 50 {
			t.Fatalf("%s: count %d", kind, d.Count)
		}
	}
}

func TestShardedBuildAndQuery(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 400, Len: 64, Seed: 3}, &d)

	var plain, sharded BuildResponse
	if code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTreeFull", Segments: 8, Bits: 8}, &plain); code != http.StatusCreated {
		t.Fatalf("plain build status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTreeFull", Segments: 8, Bits: 8, Shards: 4}, &sharded); code != http.StatusCreated {
		t.Fatalf("sharded build status %d", code)
	}
	if sharded.Shards != 4 || plain.Shards != 1 {
		t.Fatalf("shards reported %d and %d, want 4 and 1", sharded.Shards, plain.Shards)
	}
	if sharded.Count != plain.Count {
		t.Fatalf("sharded count %d, plain %d", sharded.Count, plain.Count)
	}

	// Same queries against both builds must return identical answers.
	q := make([]float64, 64)
	for i := range q {
		q[i] = float64((i * 13) % 11)
	}
	var rp, rs QueryResponse
	postJSON(t, ts.URL+"/api/query", QueryRequest{Build: plain.ID, Series: q, K: 3, Exact: true}, &rp)
	postJSON(t, ts.URL+"/api/query", QueryRequest{Build: sharded.ID, Series: q, K: 3, Exact: true}, &rs)
	if len(rp.Results) != 3 || len(rs.Results) != 3 {
		t.Fatalf("results %d and %d, want 3", len(rp.Results), len(rs.Results))
	}
	for i := range rp.Results {
		if rp.Results[i] != rs.Results[i] {
			t.Fatalf("result %d diverges: plain %+v sharded %+v", i, rp.Results[i], rs.Results[i])
		}
	}
	if code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTree", Shards: 1000}, nil); code != http.StatusBadRequest {
		t.Fatalf("absurd shard count status %d", code)
	}

	// The sharded heat map must keep shard files distinct: every shard's
	// disk reuses the same constant file names, so the tracer namespaces
	// them per shard.
	var h HeatmapResponse
	if code := getJSON(t, ts.URL+"/api/heatmap?build="+sharded.ID, &h); code != http.StatusOK {
		t.Fatalf("sharded heatmap status %d", code)
	}
	prefixes := map[string]bool{}
	for _, m := range h.Maps {
		if !strings.HasPrefix(m.File, "shard") {
			t.Fatalf("sharded heatmap file %q lacks a shard prefix", m.File)
		}
		prefixes[strings.SplitN(m.File, "/", 2)[0]] = true
	}
	if len(prefixes) < 2 {
		t.Fatalf("sharded heatmap shows %d shard namespaces, want several: %v", len(prefixes), prefixes)
	}
}

func TestBatchQueryEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 400, Len: 64, Seed: 4}, &d)
	var b BuildResponse
	if code := postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTreeFull", Segments: 8, Bits: 8, Shards: 3, Parallelism: 2}, &b); code != http.StatusCreated {
		t.Fatalf("build status %d", code)
	}
	queries := make([][]float64, 5)
	for i := range queries {
		queries[i] = make([]float64, 64)
		for j := range queries[i] {
			queries[i][j] = float64((i + j*j) % 17)
		}
	}
	var batch BatchQueryResponse
	if code := postJSON(t, ts.URL+"/api/query/batch", BatchQueryRequest{Build: b.ID, Queries: queries, K: 3, Exact: true}, &batch); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if batch.Queries != 5 || len(batch.Results) != 5 {
		t.Fatalf("batch reported %d/%d result sets, want 5", batch.Queries, len(batch.Results))
	}
	// Each batched answer must match the corresponding single query.
	for i, q := range queries {
		var single QueryResponse
		postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 3, Exact: true}, &single)
		if len(single.Results) != len(batch.Results[i]) {
			t.Fatalf("query %d: single %d results, batch %d", i, len(single.Results), len(batch.Results[i]))
		}
		for j := range single.Results {
			if single.Results[j] != batch.Results[i][j] {
				t.Fatalf("query %d result %d: single %+v batch %+v", i, j, single.Results[j], batch.Results[i][j])
			}
		}
	}
	// Approximate batches take the fallback loop and still answer.
	if code := postJSON(t, ts.URL+"/api/query/batch", BatchQueryRequest{Build: b.ID, Queries: queries, K: 2}, &batch); code != http.StatusOK {
		t.Fatalf("approx batch status %d", code)
	}
	var e errorResponse
	if code := postJSON(t, ts.URL+"/api/query/batch", BatchQueryRequest{Build: b.ID, Queries: nil, K: 1}, &e); code != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/query/batch", BatchQueryRequest{Build: "missing", Queries: queries}, &e); code != http.StatusNotFound {
		t.Fatalf("missing build status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/query/batch", BatchQueryRequest{Build: b.ID, Queries: [][]float64{make([]float64, 3)}}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad length status %d", code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 400, Len: 64, Seed: 5}, &d)
	var b BuildResponse
	postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CLSMFull", Segments: 8, Bits: 8, Shards: 4}, &b)

	q := make([]float64, 64)
	postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true}, nil)

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/api/stats?build="+b.ID, &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats shards %d with %d per-shard entries, want 4", st.Shards, len(st.PerShard))
	}
	var sum DiskStats
	for _, s := range st.PerShard {
		sum.SeqReads += s.SeqReads
		sum.RandReads += s.RandReads
		sum.SeqWrites += s.SeqWrites
		sum.RandWrites += s.RandWrites
	}
	agg := st.Aggregate
	agg.Cost, sum.Cost = 0, 0
	if agg != sum {
		t.Fatalf("aggregate %+v is not the sum of shards %+v", st.Aggregate, sum)
	}
	if st.Aggregate.SeqReads+st.Aggregate.RandReads == 0 {
		t.Fatal("stats report no reads after a query")
	}
	// Unsharded builds report a single per-shard entry equal to the aggregate.
	var plain BuildResponse
	postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTree", Segments: 8, Bits: 8}, &plain)
	if code := getJSON(t, ts.URL+"/api/stats?build="+plain.ID, &st); code != http.StatusOK {
		t.Fatalf("plain stats status %d", code)
	}
	if st.Shards != 1 || len(st.PerShard) != 1 {
		t.Fatalf("plain stats shards %d/%d entries", st.Shards, len(st.PerShard))
	}
	if code := getJSON(t, ts.URL+"/api/stats?build=missing", nil); code != http.StatusNotFound {
		t.Fatalf("missing build status %d", code)
	}
}

// TestConcurrentQueries issues many parallel queries against one build;
// with the registry behind an RWMutex the searches themselves run
// concurrently, and under -race this pins the handler paths as data-race
// free.
func TestConcurrentQueries(t *testing.T) {
	ts := newTestServer(t)
	_, b := buildOn(t, ts, "CTreeFull")
	q := make([]float64, 64)
	for i := range q {
		q[i] = float64(i % 5)
	}
	var want QueryResponse
	postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 3, Exact: true}, &want)

	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				buf, _ := json.Marshal(QueryRequest{Build: b.ID, Series: q, K: 3, Exact: true})
				resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				var got QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				for j := range want.Results {
					if got.Results[j] != want.Results[j] {
						errs <- fmt.Errorf("concurrent result %d diverges: %+v vs %+v", j, got.Results[j], want.Results[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCachedBuildStats builds with a buffer pool and checks the stats
// endpoint's cache section plus per-shard hit/miss accounting.
func TestCachedBuildStats(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 400, Len: 64, Seed: 6}, &d)
	var b BuildResponse
	code := postJSON(t, ts.URL+"/api/build", BuildRequest{
		Dataset: d.ID, Variant: "CTree", Segments: 8, Bits: 8, Shards: 2, CacheBytes: 8 << 20,
	}, &b)
	if code != http.StatusCreated {
		t.Fatalf("cached build status %d", code)
	}
	q := make([]float64, 64)
	for i := range q {
		q[i] = float64(i % 7)
	}
	// Two identical exact queries: the second is served warm.
	for i := 0; i < 2; i++ {
		if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true}, nil); code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/api/stats?build="+b.ID, &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if !st.Cache.Enabled {
		t.Fatalf("cache section disabled: %+v", st.Cache)
	}
	if st.Cache.CapacityBytes != 8<<20 {
		t.Fatalf("cache capacity %d, want %d", st.Cache.CapacityBytes, 8<<20)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("no cache hits after a warm query: %+v", st.Cache)
	}
	if st.Aggregate.CacheHits != st.Cache.Hits || st.Aggregate.CacheMisses != st.Cache.Misses {
		t.Fatalf("aggregate cache counters %d/%d diverge from cache section %d/%d",
			st.Aggregate.CacheHits, st.Aggregate.CacheMisses, st.Cache.Hits, st.Cache.Misses)
	}
	var perHits int64
	for _, s := range st.PerShard {
		perHits += s.CacheHits
	}
	if perHits != st.Cache.Hits {
		t.Fatalf("per-shard hits %d != cache hits %d", perHits, st.Cache.Hits)
	}
	if st.Cache.HitRatio <= 0 || st.Cache.HitRatio > 1 {
		t.Fatalf("hit ratio %v out of (0,1]", st.Cache.HitRatio)
	}
	// An uncached build reports a disabled cache section.
	var plain BuildResponse
	postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTree", Segments: 8, Bits: 8}, &plain)
	if code := getJSON(t, ts.URL+"/api/stats?build="+plain.ID, &st); code != http.StatusOK {
		t.Fatalf("plain stats status %d", code)
	}
	if st.Cache.Enabled {
		t.Fatalf("uncached build reports an enabled cache: %+v", st.Cache)
	}
	// Oversized cache requests are rejected with a clear error.
	if code := postJSON(t, ts.URL+"/api/build", BuildRequest{
		Dataset: d.ID, Variant: "CTree", Segments: 8, Bits: 8, CacheBytes: 1 << 40,
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized cache_bytes accepted with status %d", code)
	}
}

func TestPlannerBuildAndStats(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 400, Len: 64, Seed: 7}, &d)
	var b BuildResponse
	code := postJSON(t, ts.URL+"/api/build", BuildRequest{
		Dataset: d.ID, Variant: "CTree", Segments: 8, Bits: 8, MemBudget: 16 << 10,
	}, &b)
	if code != http.StatusCreated {
		t.Fatalf("planned build status %d", code)
	}
	// A member of the dataset: its exact search rules out most leaves.
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 400, Len: 64, Seed: 7})
	q := ds.Values[123]
	var qr QueryResponse
	if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true}, &qr); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/api/stats?build="+b.ID, &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Planner.PlannedSkips != qr.PlannedSkips {
		t.Fatalf("stats report %d planned skips, the one query reported %d", st.Planner.PlannedSkips, qr.PlannedSkips)
	}
	// Batch responses aggregate the planner deltas too.
	var br BatchQueryResponse
	if code := postJSON(t, ts.URL+"/api/query/batch", BatchQueryRequest{
		Build: b.ID, Queries: [][]float64{q, q}, K: 2, Exact: true,
	}, &br); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if br.PlannedSkips != 2*qr.PlannedSkips {
		t.Fatalf("batch of the query twice reports %d planned skips, want 2x%d", br.PlannedSkips, qr.PlannedSkips)
	}
	// A disable_planner field is accepted and ignored, like any field the
	// build request does not have: the build, and its first query's answers,
	// skips and I/O, are those of the build without it.
	var ignored BuildResponse
	if code := postJSON(t, ts.URL+"/api/build", map[string]any{
		"dataset": d.ID, "variant": "CTree", "segments": 8, "bits": 8, "mem_budget": 16 << 10, "disable_planner": true,
	}, &ignored); code != http.StatusCreated {
		t.Fatalf("disable_planner build status %d", code)
	}
	var got QueryResponse
	if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: ignored.ID, Series: q, K: 2, Exact: true}, &got); code != http.StatusOK {
		t.Fatalf("disable_planner query status %d", code)
	}
	if !reflect.DeepEqual(qr, got) || got.PlannedSkips == 0 {
		t.Fatalf("disable_planner build answered otherwise:\nwithout: %+v\nwith:    %+v", qr, got)
	}
	b.ID, b.BuildMilli, ignored.ID, ignored.BuildMilli = "", 0, "", 0
	if !reflect.DeepEqual(b, ignored) {
		t.Fatalf("disable_planner build differs:\nwithout: %+v\nwith:    %+v", b, ignored)
	}
}
