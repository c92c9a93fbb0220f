package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/server"
)

const (
	testN    = 240
	testLen  = 32
	testSeed = 9
)

// testNode is one in-process index node: a real coconut-server behind an
// httptest listener, holding a cluster build of the shared seeded dataset.
type testNode struct {
	ts    *httptest.Server
	build string
	// searchCalls counts /api/cluster/search requests, for drain and
	// routing assertions.
	searchCalls func() int
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

// startNode spins up a node server with the shared dataset and a cluster
// build owning the given shards. middleware (optional) wraps the handler.
func startNode(t *testing.T, nshards int, owned []int, middleware func(http.Handler) http.Handler) *testNode {
	t.Helper()
	s := server.New()
	var mu sync.Mutex
	searches := 0
	inner := s.Handler()
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/cluster/search" {
			mu.Lock()
			searches++
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	})
	var h http.Handler = counted
	if middleware != nil {
		h = middleware(counted)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	var d server.DatasetResponse
	if code := postJSON(t, ts.URL+"/api/datasets",
		server.DatasetRequest{Kind: "randomwalk", N: testN, Len: testLen, Seed: testSeed}, &d); code != 201 {
		t.Fatalf("dataset status %d", code)
	}
	var b server.BuildResponse
	if code := postJSON(t, ts.URL+"/api/build", server.BuildRequest{
		Dataset: d.ID, Variant: "CTreeFull", ClusterShards: nshards, NodeShards: owned,
	}, &b); code != 201 {
		t.Fatalf("cluster build status %d", code)
	}
	return &testNode{ts: ts, build: b.ID, searchCalls: func() int {
		mu.Lock()
		defer mu.Unlock()
		return searches
	}}
}

// startBaseline spins up a single unsharded server over the same dataset —
// the byte-identity reference.
func startBaseline(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	s := server.New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var d server.DatasetResponse
	postJSON(t, ts.URL+"/api/datasets",
		server.DatasetRequest{Kind: "randomwalk", N: testN, Len: testLen, Seed: testSeed}, &d)
	var b server.BuildResponse
	if code := postJSON(t, ts.URL+"/api/build",
		server.BuildRequest{Dataset: d.ID, Variant: "CTreeFull"}, &b); code != 201 {
		t.Fatalf("baseline build status %d", code)
	}
	return ts, b.ID
}

// topologyOf builds a Topology from test nodes.
func topologyOf(nshards int, nodes []*testNode, shards [][]int) Topology {
	t := Topology{Shards: nshards, SeriesLen: testLen}
	for i, n := range nodes {
		t.Nodes = append(t.Nodes, Node{
			Name: string(rune('a' + i)), URL: n.ts.URL, Build: n.build, Shards: shards[i],
		})
	}
	return t
}

func testQueries(n int) [][]float64 {
	rng := rand.New(rand.NewSource(testSeed + 1))
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64(gen.RandomWalk(rng, testLen))
	}
	return out
}

func queryHTTP(t *testing.T, url, build string, q []float64, k int, exact bool, eps float64) server.QueryResponse {
	t.Helper()
	var resp server.QueryResponse
	code := postJSON(t, url+"/api/query",
		server.QueryRequest{Build: build, Series: q, K: k, Exact: exact, Eps: eps}, &resp)
	if code != 200 {
		t.Fatalf("query status %d", code)
	}
	return resp
}

func sameHTTPResults(t *testing.T, label string, got, want []server.QueryResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.TS != w.TS || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
			t.Fatalf("%s result %d: got (id %d, ts %d, dist %x), want (id %d, ts %d, dist %x)",
				label, i, g.ID, g.TS, math.Float64bits(g.Dist), w.ID, w.TS, math.Float64bits(w.Dist))
		}
	}
}

// TestRouterEquivalenceTopologies is the distributed-equivalence suite: a
// router over {1, 2, 4} nodes must answer exact, range, windowed, and batch
// queries byte-identically to a single unsharded node, through the router's
// public HTTP API.
func TestRouterEquivalenceTopologies(t *testing.T) {
	qs := testQueries(6)
	const nsh = 4
	for _, tc := range []struct {
		name   string
		shards [][]int
	}{
		{"1node", [][]int{{0, 1, 2, 3}}},
		{"2nodes", [][]int{{0, 1}, {2, 3}}},
		{"4nodes", [][]int{{0}, {1}, {2}, {3}}},
		{"2nodes-replicated", [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each topology gets a fresh baseline: the insert sub-check
			// mutates it, so sharing one would skew later subtests.
			baseTS, baseBuild := startBaseline(t)
			nodes := make([]*testNode, len(tc.shards))
			for i, owned := range tc.shards {
				nodes[i] = startNode(t, nsh, owned, nil)
			}
			r, err := New(topologyOf(nsh, nodes, tc.shards), Options{Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Count() != testN {
				t.Fatalf("router count %d, want %d", r.Count(), testN)
			}
			rts := httptest.NewServer(r.Handler())
			defer rts.Close()

			for _, q := range qs {
				want := queryHTTP(t, baseTS.URL, baseBuild, q, 5, true, 0)
				got := queryHTTP(t, rts.URL, "", q, 5, true, 0)
				sameHTTPResults(t, "exact", got.Results, want.Results)

				eps := want.Results[len(want.Results)-1].Dist * 1.2
				wantR := queryHTTP(t, baseTS.URL, baseBuild, q, 0, false, eps)
				gotR := queryHTTP(t, rts.URL, "", q, 0, false, eps)
				sameHTTPResults(t, "range", gotR.Results, wantR.Results)
			}

			// Batch: identical to the per-query answers.
			var wantB, gotB server.BatchQueryResponse
			if code := postJSON(t, baseTS.URL+"/api/query/batch",
				server.BatchQueryRequest{Build: baseBuild, Queries: qs, K: 5, Exact: true}, &wantB); code != 200 {
				t.Fatalf("baseline batch status %d", code)
			}
			if code := postJSON(t, rts.URL+"/api/query/batch",
				server.BatchQueryRequest{Queries: qs, K: 5, Exact: true}, &gotB); code != 200 {
				t.Fatalf("router batch status %d", code)
			}
			for i := range qs {
				sameHTTPResults(t, "batch", gotB.Results[i], wantB.Results[i])
			}

			// Inserts with explicit timestamps, then identity again —
			// including a window clipped to the inserted range.
			extra := testQueries(10)
			tss := make([]int64, len(extra))
			for i := range tss {
				tss[i] = 700 + int64(i)
			}
			var ins server.InsertResponse
			if code := postJSON(t, rts.URL+"/api/insert",
				server.InsertRequest{Series: extra, Timestamps: tss}, &ins); code != 200 {
				t.Fatalf("router insert status %d", code)
			}
			if ins.Count != testN+int64(len(extra)) {
				t.Fatalf("router count %d after insert, want %d", ins.Count, testN+len(extra))
			}
			if code := postJSON(t, baseTS.URL+"/api/insert",
				server.InsertRequest{Build: baseBuild, Series: extra, Timestamps: tss}, nil); code != 200 {
				t.Fatalf("baseline insert status %d", code)
			}
			minTS, maxTS := int64(700), int64(800)
			for _, q := range qs[:3] {
				var want, got server.QueryResponse
				postJSON(t, baseTS.URL+"/api/query",
					server.QueryRequest{Build: baseBuild, Series: q, K: 5, Exact: true, MinTS: &minTS, MaxTS: &maxTS}, &want)
				postJSON(t, rts.URL+"/api/query",
					server.QueryRequest{Series: q, K: 5, Exact: true, MinTS: &minTS, MaxTS: &maxTS}, &got)
				sameHTTPResults(t, "windowed post-insert", got.Results, want.Results)
				for _, res := range got.Results {
					if res.TS < minTS || res.TS > maxTS {
						t.Fatalf("windowed result ts %d outside [%d, %d]", res.TS, minTS, maxTS)
					}
				}
				want = queryHTTP(t, baseTS.URL, baseBuild, q, 5, true, 0)
				got = queryHTTP(t, rts.URL, "", q, 5, true, 0)
				sameHTTPResults(t, "post-insert exact", got.Results, want.Results)
			}
			contractRows(t, baseTS.URL, baseBuild, rts.URL)
		})
	}
}

// contractRows sends each row of the request contract, a subtest, to the
// baseline node (with its build) and to the router, in order, and requires
// the same status from both, byte-identical results on an answer and the
// same body on a refusal. The inserts change what later rows see on both sides alike.
// Input a node refuses is refused before any fan-out, so the router counts
// no failed query or insert.
func contractRows(t *testing.T, nodeURL, build, routerURL string) {
	extra := testQueries(16)[10:]
	short := extra[0][:testLen-1]
	zero, nine := int64(0), int64(9)
	for _, row := range []struct {
		name, path string
		req        func(build string) any
		status     int
	}{
		{"unstamped insert", "/api/insert", func(b string) any {
			return server.InsertRequest{Build: b, Series: extra[:2]}
		}, http.StatusOK},
		{"exact query after an unstamped insert", "/api/query", func(b string) any {
			return server.QueryRequest{Build: b, Series: extra[0], K: 3, Exact: true}
		}, http.StatusOK},
		{"windowed query at [0, 0]", "/api/query", func(b string) any {
			return server.QueryRequest{Build: b, Series: extra[1], K: 5, Exact: true, MinTS: &zero, MaxTS: &zero}
		}, http.StatusOK},
		{"stamped insert", "/api/insert", func(b string) any {
			return server.InsertRequest{Build: b, Series: extra[2:4], TS: 7}
		}, http.StatusOK},
		{"per-series timestamps insert", "/api/insert", func(b string) any {
			return server.InsertRequest{Build: b, Series: extra[4:6], Timestamps: []int64{8, 9}}
		}, http.StatusOK},
		{"windowed query over the stamps", "/api/query", func(b string) any {
			seven := int64(7)
			return server.QueryRequest{Build: b, Series: extra[3], K: 10, Exact: true, MinTS: &seven, MaxTS: &nine}
		}, http.StatusOK},
		{"short query", "/api/query", func(b string) any {
			return server.QueryRequest{Build: b, Series: short, K: 3, Exact: true}
		}, http.StatusBadRequest},
		{"short batch query", "/api/query/batch", func(b string) any {
			return server.BatchQueryRequest{Build: b, Queries: [][]float64{extra[0], short}, K: 3, Exact: true}
		}, http.StatusBadRequest},
		{"short insert series", "/api/insert", func(b string) any {
			return server.InsertRequest{Build: b, Series: [][]float64{extra[0], short}}
		}, http.StatusBadRequest},
		{"timestamps of the wrong length", "/api/insert", func(b string) any {
			return server.InsertRequest{Build: b, Series: extra[:2], Timestamps: []int64{1}}
		}, http.StatusBadRequest},
		{"min_ts alone", "/api/query", func(b string) any {
			return server.QueryRequest{Build: b, Series: extra[0], K: 3, Exact: true, MinTS: &zero}
		}, http.StatusBadRequest},
		{"max_ts alone", "/api/query", func(b string) any {
			return server.QueryRequest{Build: b, Series: extra[0], K: 3, Exact: true, MaxTS: &nine}
		}, http.StatusBadRequest},
		{"empty batch", "/api/query/batch", func(b string) any {
			return server.BatchQueryRequest{Build: b, Queries: [][]float64{}, K: 3, Exact: true}
		}, http.StatusBadRequest},
		{"exact query after every row", "/api/query", func(b string) any {
			return server.QueryRequest{Build: b, Series: extra[5], K: 8, Exact: true}
		}, http.StatusOK},
	} {
		t.Run(row.name, func(t *testing.T) {
			nodeCode, nodeBody := postRaw(t, nodeURL+row.path, row.req(build))
			routerCode, routerBody := postRaw(t, routerURL+row.path, row.req(""))
			if nodeCode != row.status || routerCode != row.status {
				t.Fatalf("node %d %s, router %d %s, want %d", nodeCode, nodeBody, routerCode, routerBody, row.status)
			}
			if row.status != http.StatusOK {
				if !bytes.Equal(routerBody, nodeBody) {
					t.Fatalf("router refused with %s, node with %s", routerBody, nodeBody)
				}
				return
			}
			var nodeOut, routerOut struct {
				Results json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(nodeBody, &nodeOut); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(routerBody, &routerOut); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(routerOut.Results, nodeOut.Results) {
				t.Fatalf("router results %s, node results %s", routerOut.Results, nodeOut.Results)
			}
		})
	}
	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exposition, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"coconut_router_query_errors_total 0\n", "coconut_router_insert_errors_total 0\n"} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("router /metrics lacks %q after the contract rows", strings.TrimSpace(want))
		}
	}
}

// postRaw posts body as JSON and returns the status and the raw response.
func postRaw(t *testing.T, url string, body any) (int, []byte) {
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
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestOversizedK sends k = 2^36 — a number no index holds that many series
// for — through every endpoint that takes k off the wire: a node's
// /api/query and /api/query/batch, /api/cluster/search, and the router. Each
// must answer exactly as it answers k = the series it holds (a k-NN over n
// series returns n), and none may size an allocation by k: the whole
// exchange stays under a fixed allocation bound. (Before the clamp the first
// request asked the runtime for a 2^36-entry map: fatal, not an error.)
func TestOversizedK(t *testing.T) {
	huge := int(int64(1) << 36)
	baseTS, baseBuild := startBaseline(t)
	const nsh = 4
	owned := [][]int{{0, 1}, {2, 3}}
	nodes := []*testNode{startNode(t, nsh, owned[0], nil), startNode(t, nsh, owned[1], nil)}
	r, err := New(topologyOf(nsh, nodes, owned), Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()
	qs := testQueries(2)

	// exchange runs every k-taking request with k and returns what came back.
	exchange := func(k int) (out []any) {
		for _, exact := range []bool{true, false} {
			for _, ts := range []struct{ url, build string }{{baseTS.URL, baseBuild}, {rts.URL, ""}} {
				resp := queryHTTP(t, ts.url, ts.build, qs[0], k, exact, 0)
				var batch server.BatchQueryResponse
				if code := postJSON(t, ts.url+"/api/query/batch",
					server.BatchQueryRequest{Build: ts.build, Queries: qs, K: k, Exact: exact}, &batch); code != 200 {
					t.Fatalf("batch k=%d status %d", k, code)
				}
				if exact && (len(resp.Results) != testN || len(batch.Results[1]) != testN) {
					t.Fatalf("exact k=%d over %d series: %d results, %d in the batch", k, testN, len(resp.Results), len(batch.Results[1]))
				}
				out = append(out, resp.Results, batch.Results)
			}
			rs, _, err := r.Search(qs[1], k, exact, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rs)
		}
		for _, mode := range []string{"exact", "approx"} {
			total := 0
			for _, n := range nodes {
				var resp server.ClusterSearchResponse
				if code := postJSON(t, n.ts.URL+"/api/cluster/search",
					server.ClusterSearchRequest{Build: n.build, Series: qs[0], K: k, Mode: mode}, &resp); code != 200 {
					t.Fatalf("cluster search k=%d status %d", k, code)
				}
				total += len(resp.Results)
				out = append(out, resp.Results)
			}
			if mode == "exact" && total != testN {
				t.Fatalf("cluster search k=%d: the nodes returned %d of %d series", k, total, testN)
			}
		}
		return out
	}
	want := exchange(testN)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := exchange(huge)
	runtime.ReadMemStats(&after)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k=%d answers differ from k=%d over %d series", huge, testN, testN)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("k=%d requests allocated %d MiB", huge, grew>>20)
	}
}

// TestRouterReplicaFailover kills one of two full replicas mid-stream: the
// router retries onto the survivor and answers stay byte-identical; the
// dead node's state records the failures.
func TestRouterReplicaFailover(t *testing.T) {
	baseTS, baseBuild := startBaseline(t)
	shards := [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}}
	a := startNode(t, 4, shards[0], nil)
	b := startNode(t, 4, shards[1], nil)
	r, err := New(topologyOf(4, []*testNode{a, b}, shards), Options{
		Timeout: 2 * time.Second, Retries: 2, Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	qs := testQueries(6)
	// Healthy run first.
	for _, q := range qs[:2] {
		want := queryHTTP(t, baseTS.URL, baseBuild, q, 5, true, 0)
		got, _, err := r.Search(q, 5, true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameIndexResults(t, "pre-failover", got, want.Results)
	}

	a.ts.Close() // node dies
	for _, q := range qs {
		want := queryHTTP(t, baseTS.URL, baseBuild, q, 5, true, 0)
		got, _, err := r.Search(q, 5, true, nil, nil)
		if err != nil {
			t.Fatalf("post-failover search: %v", err)
		}
		sameIndexResults(t, "post-failover", got, want.Results)
	}
	var aFails int64
	for _, st := range r.NodeStatuses() {
		if st.Name == "a" {
			aFails = st.Fails
		}
	}
	if aFails == 0 {
		t.Fatal("dead node recorded no failures")
	}

	// With the only other replica gone too, queries fail loudly.
	b.ts.Close()
	if _, _, err := r.Search(qs[0], 5, true, nil, nil); err == nil {
		t.Fatal("search with all replicas dead should fail")
	}
}

func sameIndexResults(t *testing.T, label string, got []index.Result, want []server.QueryResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.TS != w.TS || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
			t.Fatalf("%s result %d: got (id %d, ts %d, dist %x), want (id %d, ts %d, dist %x)",
				label, i, g.ID, g.TS, math.Float64bits(g.Dist), w.ID, w.TS, math.Float64bits(w.Dist))
		}
	}
}

// TestRouterHedgedRequests blocks one replica's search path entirely: only
// hedging onto the other replica lets queries finish fast. Answers stay
// byte-identical and at least one hedge fires across the run.
func TestRouterHedgedRequests(t *testing.T) {
	baseTS, baseBuild := startBaseline(t)
	shards := [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}}
	block := make(chan struct{})
	blocked := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/cluster/search" {
				<-block
			}
			next.ServeHTTP(w, r)
		})
	}
	a := startNode(t, 4, shards[0], blocked)
	t.Cleanup(func() { close(block) }) // registered after ts.Close -> runs first
	b := startNode(t, 4, shards[1], nil)
	r, err := New(topologyOf(4, []*testNode{a, b}, shards), Options{
		Timeout: 30 * time.Second, HedgeAfter: 20 * time.Millisecond, Retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var hedges int64
	start := time.Now()
	for _, q := range testQueries(4) {
		want := queryHTTP(t, baseTS.URL, baseBuild, q, 5, true, 0)
		got, stats, err := r.Search(q, 5, true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameIndexResults(t, "hedged", got, want.Results)
		hedges += stats.Hedges
	}
	if hedges == 0 {
		t.Fatal("no hedges fired although one replica is blocked")
	}
	// Without hedging these queries would sit on the blocked replica until
	// the 30s timeout; well under that proves the hedge path answered.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hedged queries took %s", elapsed)
	}
}

// TestRouterDrain checks graceful drain: a draining node gets no new
// queries (in-flight ones finish), a drained sole owner makes its shards
// unavailable, and undraining restores routing.
func TestRouterDrain(t *testing.T) {
	shards := [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}}
	slow := make(chan struct{}, 16)
	delayed := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/cluster/search" {
				select {
				case <-slow:
					time.Sleep(120 * time.Millisecond)
				default:
				}
			}
			next.ServeHTTP(w, r)
		})
	}
	a := startNode(t, 4, shards[0], delayed)
	b := startNode(t, 4, shards[1], nil)
	r, err := New(topologyOf(4, []*testNode{a, b}, shards), Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	qs := testQueries(8)

	// In-flight queries finish across a drain: make node a slow, start a
	// query, drain a mid-flight, and require the answer.
	for i := 0; i < 8; i++ {
		slow <- struct{}{}
	}
	type res struct {
		n   int
		err error
	}
	done := make(chan res, 1)
	go func() {
		rs, _, err := r.Search(qs[0], 5, true, nil, nil)
		done <- res{len(rs), err}
	}()
	time.Sleep(30 * time.Millisecond)
	if err := r.Drain("a"); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got.err != nil || got.n == 0 {
		t.Fatalf("in-flight query across drain: %d results, err %v", got.n, got.err)
	}
	for len(slow) > 0 {
		<-slow
	}

	// While a drains, every query routes to b only.
	aBefore := a.searchCalls()
	for _, q := range qs {
		if _, _, err := r.Search(q, 5, true, nil, nil); err != nil {
			t.Fatalf("query during drain: %v", err)
		}
	}
	if got := a.searchCalls(); got != aBefore {
		t.Fatalf("draining node received %d new searches", got-aBefore)
	}
	var drained bool
	for _, st := range r.NodeStatuses() {
		if st.Name == "a" {
			drained = st.Draining
		}
	}
	if !drained {
		t.Fatal("status does not show node a draining")
	}

	// Draining the other replica too leaves shards uncovered: loud failure.
	if err := r.Drain("b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Search(qs[0], 5, true, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "no replica available") {
		t.Fatalf("search with all replicas draining: err = %v", err)
	}

	// Undrain restores service and routing to a.
	if err := r.Undrain("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Undrain("b"); err != nil {
		t.Fatal(err)
	}
	aBefore = a.searchCalls()
	for _, q := range qs {
		if _, _, err := r.Search(q, 5, true, nil, nil); err != nil {
			t.Fatalf("query after undrain: %v", err)
		}
	}
	if a.searchCalls() == aBefore {
		t.Fatal("undrained node got no traffic")
	}
}

// TestRouterInsertStaleReplica kills one replica and inserts: the write
// succeeds on the survivor, the dead replica is marked stale and leaves
// read rotation, and the count still advances.
func TestRouterInsertStaleReplica(t *testing.T) {
	baseTS, baseBuild := startBaseline(t)
	shards := [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}}
	a := startNode(t, 4, shards[0], nil)
	b := startNode(t, 4, shards[1], nil)
	r, err := New(topologyOf(4, []*testNode{a, b}, shards), Options{
		Timeout: 2 * time.Second, Retries: 1, Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	b.ts.Close()
	extra := testQueries(6)
	tss := make([]int64, len(extra))
	for i := range tss {
		tss[i] = 900 + int64(i)
	}
	count, err := r.Insert(extra, tss)
	if err != nil {
		t.Fatalf("insert with one dead replica: %v", err)
	}
	if count != testN+int64(len(extra)) {
		t.Fatalf("count %d, want %d", count, testN+len(extra))
	}
	var bStale bool
	for _, st := range r.NodeStatuses() {
		if st.Name == "b" {
			bStale = st.Stale
		}
	}
	if !bStale {
		t.Fatal("dead replica not marked stale")
	}

	// Queries keep working off the survivor and reflect the insert,
	// byte-identical to the baseline with the same data.
	if code := postJSON(t, baseTS.URL+"/api/insert",
		server.InsertRequest{Build: baseBuild, Series: extra, Timestamps: tss}, nil); code != 200 {
		t.Fatalf("baseline insert status %d", code)
	}
	for _, q := range testQueries(3) {
		want := queryHTTP(t, baseTS.URL, baseBuild, q, 5, true, 0)
		got, _, err := r.Search(q, 5, true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameIndexResults(t, "post-stale", got, want.Results)
	}

	// Losing the last replica of a shard is a reported data-loss error.
	a.ts.Close()
	if _, err := r.Insert(extra[:1], []int64{0}); err == nil ||
		!strings.Contains(err.Error(), "lost every replica") {
		t.Fatalf("insert with all replicas dead: err = %v", err)
	}
}

// TestRouterInsertBackpressure fills the admission window: the overflow
// batch is rejected with ErrBusy (HTTP 429 on the wire) and admitted work
// is unaffected.
func TestRouterInsertBackpressure(t *testing.T) {
	shards := [][]int{{0, 1, 2, 3}}
	gate := make(chan struct{})
	arrived := make(chan struct{})
	var once sync.Once
	slowInsert := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/cluster/insert" {
				once.Do(func() { close(arrived) })
				<-gate
			}
			next.ServeHTTP(w, r)
		})
	}
	a := startNode(t, 4, shards[0], slowInsert)
	t.Cleanup(func() { close(gate) })
	r, err := New(topologyOf(4, []*testNode{a}, shards), Options{
		Timeout: 30 * time.Second, MaxInflightInserts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	extra := testQueries(2)
	done := make(chan error, 1)
	go func() {
		_, err := r.Insert(extra[:1], []int64{0})
		done <- err
	}()
	// Only try to overflow once the first batch provably occupies the
	// admission window (its HTTP write has reached the node).
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("first insert never reached the node")
	}
	if _, err := r.Insert(extra[1:], []int64{0}); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow insert: err = %v, want ErrBusy", err)
	}
	gate <- struct{}{} // let the first batch through
	if err := <-done; err != nil {
		t.Fatalf("admitted insert: %v", err)
	}
	// With the window free again, inserts are admitted (gate stays open
	// enough: feed one token per request).
	go func() { gate <- struct{}{} }()
	if _, err := r.Insert(extra[1:], []int64{0}); err != nil {
		t.Fatalf("post-backpressure insert: %v", err)
	}
}

// TestRouterStartupStrictness: a router must refuse to serve over a
// topology it cannot verify.
func TestRouterStartupStrictness(t *testing.T) {
	a := startNode(t, 4, []int{0, 1}, nil)
	// Topology claims a shard the node does not hold.
	topo := topologyOf(4, []*testNode{a}, [][]int{{0, 1, 2, 3}})
	if _, err := New(topo, Options{Timeout: time.Second}); err == nil ||
		!strings.Contains(err.Error(), "does not hold shard") {
		t.Fatalf("mismatched topology: err = %v", err)
	}
	// Unreachable node.
	topo = Topology{Shards: 2, SeriesLen: testLen, Nodes: []Node{
		{Name: "gone", URL: "http://127.0.0.1:1", Build: "b", Shards: []int{0, 1}},
	}}
	if _, err := New(topo, Options{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("unreachable node accepted")
	}
	// Wrong series length: topology is internally valid but disagrees
	// with what the node actually serves.
	b := startNode(t, 2, []int{0, 1}, nil)
	topo = topologyOf(2, []*testNode{b}, [][]int{{0, 1}})
	topo.SeriesLen = 64
	if _, err := New(topo, Options{Timeout: time.Second}); err == nil ||
		!strings.Contains(err.Error(), "series") {
		t.Fatalf("series length mismatch: err = %v", err)
	}
}

func TestTopologyValidate(t *testing.T) {
	valid := Topology{Shards: 2, SeriesLen: 32, Nodes: []Node{
		{Name: "a", URL: "http://x:1", Build: "b", Shards: []int{0}},
		{Name: "b", URL: "http://x:2", Build: "b", Shards: []int{1}},
	}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	if got := valid.MinReplication(); got != 1 {
		t.Fatalf("MinReplication = %d, want 1", got)
	}
	for _, tc := range []struct {
		name   string
		mut    func(*Topology)
		substr string
	}{
		{"no shards", func(tp *Topology) { tp.Shards = 0 }, "shards"},
		{"no nodes", func(tp *Topology) { tp.Nodes = nil }, "no nodes"},
		{"dup name", func(tp *Topology) { tp.Nodes[1].Name = "a" }, "duplicate"},
		{"bad url", func(tp *Topology) { tp.Nodes[0].URL = "::" }, "URL"},
		{"no build", func(tp *Topology) { tp.Nodes[0].Build = "" }, "build"},
		{"shard out of range", func(tp *Topology) { tp.Nodes[0].Shards = []int{5} }, "outside"},
		{"shard twice", func(tp *Topology) { tp.Nodes[0].Shards = []int{0, 0} }, "twice"},
		{"uncovered shard", func(tp *Topology) { tp.Nodes[1].Shards = []int{0} }, "covered by no node"},
		{"no series len", func(tp *Topology) { tp.SeriesLen = 0 }, "series_len"},
	} {
		tp := valid
		tp.Nodes = append([]Node(nil), valid.Nodes...)
		tc.mut(&tp)
		if err := tp.Validate(); err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.substr)
		}
	}
}

func TestLoadTopology(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.json")
	good := `{"shards": 1, "series_len": 32, "nodes": [{"name": "a", "url": "http://x:1", "build": "b", "shards": [0]}]}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Shards != 1 || len(topo.Nodes) != 1 {
		t.Fatalf("topology = %+v", topo)
	}
	if _, err := LoadTopology(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	os.WriteFile(path, []byte("{"), 0o644)
	if _, err := LoadTopology(path); err == nil {
		t.Fatal("bad JSON accepted")
	}
	os.WriteFile(path, []byte(`{"shards": 0, "series_len": 32, "nodes": []}`), 0o644)
	if _, err := LoadTopology(path); err == nil {
		t.Fatal("invalid topology accepted")
	}
}
