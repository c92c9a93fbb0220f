package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// TestInsertBodyMatchesMarshal: a replica write rendered from the literals
// of json.Marshal'd series is the body json.Marshal writes for the
// server.ClusterInsertRequest, byte for byte.
func TestInsertBodyMatchesMarshal(t *testing.T) {
	batch := append(testQueries(3), []float64{math.Copysign(0, -1), 5e-324, -1.2345678901234567e-6, math.MaxFloat64, 1e21})
	timestamps := []int64{7, math.MinInt64, 0, math.MaxInt64}
	series := make([][]byte, len(batch))
	for i, s := range batch {
		var err error
		if series[i], err = server.AppendSeries(nil, s); err != nil {
			t.Fatal(err)
		}
	}
	const base = 1 << 40
	entries := []int{0, 2, 3}
	want := server.ClusterInsertRequest{Build: `build-<"7">`}
	for _, i := range entries {
		want.Entries = append(want.Entries, server.ClusterEntry{ID: base + int64(i), TS: timestamps[i], Series: batch[i]})
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := insertBody(want.Build, base, entries, series, timestamps); !bytes.Equal(got, wantBody) {
		t.Fatalf("replica write\n%s\nwant json.Marshal's\n%s", got, wantBody)
	}
}

// insertCapture wraps a node: it records the entries of every
// /api/cluster/insert body the node receives, decoded as the node decodes
// them, then passes the request on.
type insertCapture struct {
	mu      sync.Mutex
	entries []server.ClusterEntry
	calls   int
}

func (c *insertCapture) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/cluster/insert" {
			body, _ := io.ReadAll(r.Body)
			var req server.ClusterInsertRequest
			server.DecodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &req)
			c.mu.Lock()
			c.calls++
			c.entries = append(c.entries, req.Entries...)
			c.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		next.ServeHTTP(w, r)
	})
}

// seen returns the replica writes received so far and their entries.
func (c *insertCapture) seen() (int, []server.ClusterEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.entries
}

// spelled writes the JSON array of s with each number spelled a different
// way: padded with zeros past 25 bytes, in upper-case exponent form, with
// whitespace around it, or as encoding/json writes it.
func spelled(s []float64) string {
	var b strings.Builder
	b.WriteString("[ ")
	for i, f := range s {
		if i > 0 {
			b.WriteString(" ,")
		}
		switch tok := strconv.FormatFloat(f, 'f', -1, 64); i % 4 {
		case 0:
			if !strings.Contains(tok, ".") {
				tok += "."
			}
			b.WriteString(tok + strings.Repeat("0", 26))
		case 1:
			b.WriteString(strconv.FormatFloat(f, 'E', -1, 64))
		case 2:
			b.WriteString("\n\t" + tok + "\r ")
		default:
			raw, _ := json.Marshal(f)
			b.Write(raw)
		}
	}
	b.WriteString(" ]")
	return b.String()
}

// TestRouterInsertSpellings: numbers a client spells as it likes (zeros
// past 25 bytes, 1.0, 1E2, -0, 1e-400, math.MaxFloat64's 309 digits,
// whitespace inside the arrays) reach the nodes through the router as the
// float bits a node decodes from the same body sent to its own /api/insert,
// and the router answers queries over them as that node does. A body with
// a number out of float64's range (1e400) is a 400 from the router with
// the node's error text, before any node is called.
func TestRouterInsertSpellings(t *testing.T) {
	baseTS, baseBuild := startBaseline(t)
	var capture insertCapture
	shards := [][]int{{0, 1, 2, 3}}
	a := startNode(t, 4, shards[0], capture.wrap)
	r, err := New(topologyOf(4, []*testNode{a}, shards), Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rt := httptest.NewServer(r.Handler())
	defer rt.Close()
	post := func(url, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

	maxFloat := strconv.FormatFloat(math.MaxFloat64, 'f', -1, 64)
	qs := testQueries(3)
	odd := "[1.0,1E2, -0 ,1e-400," + maxFloat + strings.Repeat(",-0.5", testLen-5) + "]"
	body := `{"build":"` + baseBuild + `","series":[` + spelled(qs[0]) + ",\n" + odd + "," + spelled(qs[1]) + `],"ts":5}`

	var direct server.InsertRequest
	if !server.DecodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), &direct) {
		t.Fatal("a node refuses the spelled body")
	}
	if code, raw := post(baseTS.URL+"/api/insert", body); code != http.StatusOK {
		t.Fatalf("direct insert: status %d, %s", code, raw)
	}
	if code, raw := post(rt.URL+"/api/insert", body); code != http.StatusOK {
		t.Fatalf("routed insert: status %d, %s", code, raw)
	}
	calls, entries := capture.seen()
	if len(entries) != len(direct.Series) {
		t.Fatalf("the node received %d entries, want %d", len(entries), len(direct.Series))
	}
	for i, e := range entries {
		if e.ID != testN+int64(i) || e.TS != 5 || len(e.Series) != testLen {
			t.Fatalf("entry %d: id %d, ts %d, %d values", i, e.ID, e.TS, len(e.Series))
		}
		for j, f := range e.Series {
			if math.Float64bits(f) != math.Float64bits(direct.Series[i][j]) {
				t.Fatalf("series %d value %d reached the node as %v (%x), a direct insert decodes %v (%x)",
					i, j, f, math.Float64bits(f), direct.Series[i][j], math.Float64bits(direct.Series[i][j]))
			}
		}
	}
	for _, q := range append(testQueries(2), qs[0], qs[1]) {
		want := queryHTTP(t, baseTS.URL, baseBuild, q, 5, true, 0)
		got := queryHTTP(t, rt.URL, "", q, 5, true, 0)
		sameHTTPResults(t, "after the spelled insert", got.Results, want.Results)
	}

	over := `{"series":[[1e400` + strings.Repeat(",0", testLen-1) + `]]}`
	code, raw := post(rt.URL+"/api/insert", over)
	wantCode, wantRaw := post(baseTS.URL+"/api/insert", over)
	if code != http.StatusBadRequest || code != wantCode || !bytes.Equal(raw, wantRaw) {
		t.Fatalf("1e400 through the router: %d %s; a node answers %d %s", code, raw, wantCode, wantRaw)
	}
	if after, _ := capture.seen(); after != calls || r.Count() != testN+int64(len(direct.Series)) {
		t.Fatalf("1e400 reached a node: %d replica writes, count %d", after-calls, r.Count())
	}
}

// TestRouterInsertRefusesNaN: Router.Insert refuses a NaN or an infinity
// with json.Marshal's error before any node is called; no replica goes
// stale and the count stays.
func TestRouterInsertRefusesNaN(t *testing.T) {
	var capture insertCapture
	shards := [][]int{{0, 1, 2, 3}}
	a := startNode(t, 4, shards[0], capture.wrap)
	r, err := New(topologyOf(4, []*testNode{a}, shards), Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		batch := testQueries(2)
		batch[1][3] = bad
		_, want := json.Marshal(batch[1])
		if _, err := r.Insert(batch, []int64{0, 0}); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("insert holding %v: err %v, want json.Marshal's %v", bad, err, want)
		}
	}
	if calls, _ := capture.seen(); calls != 0 || r.Count() != testN {
		t.Fatalf("refused inserts: %d replica writes, count %d", calls, r.Count())
	}
	for _, st := range r.NodeStatuses() {
		if st.Stale {
			t.Fatalf("node %s stale after refused inserts", st.Name)
		}
	}
}
