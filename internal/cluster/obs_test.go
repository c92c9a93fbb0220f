package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestRouterMetricsAndTrace drives queries through a 2-node router and
// checks the observability surface: /metrics exposes routed counters and
// per-node health, ?trace=1 attaches the router's fan-out trace while
// leaving untraced responses node-shaped, and /api/slowlog lists each
// query slower than the armed threshold.
func TestRouterMetricsAndTrace(t *testing.T) {
	n1 := startNode(t, 2, []int{0, 1}, nil)
	n2 := startNode(t, 2, []int{0, 1}, nil)
	topo := topologyOf(2, []*testNode{n1, n2}, [][]int{{0, 1}, {0, 1}})
	r, err := New(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.SetSlowQuery(time.Nanosecond)
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(rts.Close)

	q := testQueries(1)[0]
	reqBody, err := json.Marshal(server.QueryRequest{Series: q, K: 3, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	// Untraced query: the raw response body must carry no router_trace key
	// — untraced clients see exactly the single-node response shape.
	resp, err := http.Post(rts.URL+"/api/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "router_trace") {
		t.Fatalf("untraced response carries router_trace: %s", body)
	}
	// Traced query via ?trace=1.
	var traced struct {
		server.QueryResponse
		RouterTrace *RouterTrace `json:"router_trace"`
	}
	if code := postJSON(t, rts.URL+"/api/query?trace=1",
		server.QueryRequest{Series: q, K: 3, Exact: true}, &traced); code != http.StatusOK {
		t.Fatalf("traced query status %d", code)
	}
	if traced.RouterTrace == nil {
		t.Fatal("?trace=1 returned no router_trace")
	}
	if traced.RouterTrace.Calls < 1 {
		t.Fatalf("router trace records %d calls", traced.RouterTrace.Calls)
	}
	if traced.RouterTrace.Cost != traced.Cost {
		t.Fatalf("router trace cost %v != response cost %v", traced.RouterTrace.Cost, traced.Cost)
	}

	mresp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	text := string(mbody)
	for _, want := range []string{
		`coconut_router_queries_total{mode="exact"} 2`,
		`coconut_router_query_latency_seconds_count{mode="exact"} 2`,
		"coconut_router_traced_queries_total 1",
		"coconut_router_node_calls_total",
		`coconut_router_node_healthy{node="a"} 1`,
		`coconut_router_node_healthy{node="b"} 1`,
		"coconut_router_shards 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}

	sresp, err := http.Get(rts.URL + "/api/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sl struct {
		Total   int64           `json:"total"`
		Entries []obs.SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&sl); err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("slowlog status %d (%v)", sresp.StatusCode, err)
	}
	if sl.Total != 2 || len(sl.Entries) != 2 || sl.Entries[0].Kind != "query" || sl.Entries[0].Mode != "exact" || sl.Entries[0].Build != "" {
		t.Fatalf("router slow log after two exact queries: %+v", sl)
	}
}
