package cluster

// The router's public HTTP surface mirrors a single coconut-server's query
// and insert API (same request/response shapes; the build field is ignored
// — the topology names the builds), so clients talk to one address and need
// not know they face a cluster. Router-specific operations live under
// /api/cluster/: topology + node status, and graceful drain.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/server"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/health", r.handleHealth)
	mux.HandleFunc("/api/query", r.handleQuery)
	mux.HandleFunc("/api/query/batch", r.handleQueryBatch)
	mux.HandleFunc("/api/insert", r.handleInsert)
	mux.HandleFunc("/api/cluster/topology", r.handleTopology)
	mux.HandleFunc("/api/cluster/drain", r.handleDrain)
	mux.HandleFunc("/api/slowlog", r.handleSlowLog)
	mux.Handle("/metrics", r.metrics.reg.Handler())
	return mux
}

// handleSlowLog answers GET /api/slowlog: the most recent slow requests
// (newest first) and the active threshold.
func (r *Router) handleSlowLog(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_micros": r.slow.Threshold().Microseconds(),
		"total":            r.slow.Total(),
		"entries":          r.slow.Entries(),
	})
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	healthy := 0
	for _, st := range r.NodeStatuses() {
		if st.Healthy && !st.Draining && !st.Stale {
			healthy++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"service": "coconut router",
		"nodes":   len(r.nodes),
		"serving": healthy,
		"count":   r.Count(),
	})
}

// handleQuery answers POST /api/query with the coconut-server request
// shape. Exact and range answers are byte-identical to a single node
// holding the whole dataset; the build field is ignored.
func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var qr server.QueryRequest
	if err := json.NewDecoder(req.Body).Decode(&qr); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if (qr.MinTS == nil) != (qr.MaxTS == nil) {
		writeError(w, http.StatusBadRequest, "min_ts and max_ts are required together")
		return
	}
	mode := "approx"
	switch {
	case qr.Eps > 0:
		mode = "range"
	case qr.Exact:
		mode = "exact"
	}
	traced := qr.Trace || req.URL.Query().Get("trace") == "1"
	if traced {
		r.metrics.traced.Inc()
	}
	start := time.Now()
	var (
		rs    []index.Result
		stats Stats
		err   error
	)
	if qr.Eps > 0 {
		rs, stats, err = r.RangeSearch(qr.Series, qr.Eps, qr.MinTS, qr.MaxTS)
	} else {
		rs, stats, err = r.Search(qr.Series, qr.K, qr.Exact, qr.MinTS, qr.MaxTS)
	}
	elapsed := time.Since(start)
	r.observeQuery(mode, elapsed, stats, err)
	if err != nil {
		writeError(w, http.StatusBadGateway, "cluster query failed: %v", err)
		return
	}
	// The router's trace rides next to the node-shaped response body, so
	// untraced clients see exactly the single-node response shape.
	resp := struct {
		server.QueryResponse
		RouterTrace *RouterTrace `json:"router_trace,omitempty"`
	}{
		QueryResponse: server.QueryResponse{
			Cost:   stats.Cost,
			SeqIO:  stats.SeqIO,
			RandIO: stats.RandIO,
		},
	}
	if traced {
		resp.RouterTrace = &RouterTrace{
			Calls:      stats.Calls,
			Retries:    stats.Retries,
			Hedges:     stats.Hedges,
			Cost:       stats.Cost,
			SeqIO:      stats.SeqIO,
			RandIO:     stats.RandIO,
			WallMicros: elapsed.Microseconds(),
		}
	}
	for _, res := range rs {
		resp.Results = append(resp.Results, server.QueryResult{ID: res.ID, TS: res.TS, Dist: res.Dist})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQueryBatch answers POST /api/query/batch; per-query answers are
// byte-identical to the corresponding single /api/query call.
func (r *Router) handleQueryBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var qr server.BatchQueryRequest
	if err := json.NewDecoder(req.Body).Decode(&qr); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if len(qr.Queries) == 0 || len(qr.Queries) > 1<<16 {
		writeError(w, http.StatusBadRequest, "queries must number in (0, 65536], got %d", len(qr.Queries))
		return
	}
	start := time.Now()
	rss, stats, err := r.SearchBatch(qr.Queries, qr.K, qr.Exact)
	r.observeQuery("batch", time.Since(start), stats, err)
	if err != nil {
		writeError(w, http.StatusBadGateway, "cluster batch query failed: %v", err)
		return
	}
	resp := server.BatchQueryResponse{
		Results: make([][]server.QueryResult, len(rss)),
		Queries: len(rss),
		Cost:    stats.Cost,
		SeqIO:   stats.SeqIO,
		RandIO:  stats.RandIO,
	}
	for i, rs := range rss {
		out := make([]server.QueryResult, 0, len(rs))
		for _, res := range rs {
			out = append(out, server.QueryResult{ID: res.ID, TS: res.TS, Dist: res.Dist})
		}
		resp.Results[i] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleInsert answers POST /api/insert: the router assigns global IDs and
// writes every replica of each touched shard. Admission control surfaces as
// HTTP 429 — back off and resend.
func (r *Router) handleInsert(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var ir server.InsertRequest
	if err := json.NewDecoder(req.Body).Decode(&ir); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if len(ir.Series) == 0 || len(ir.Series) > 1<<16 {
		writeError(w, http.StatusBadRequest, "series must number in (0, 65536], got %d", len(ir.Series))
		return
	}
	ts := ir.Timestamps
	if ts == nil && ir.TS != 0 {
		ts = make([]int64, len(ir.Series))
		for i := range ts {
			ts[i] = ir.TS
		}
	}
	start := time.Now()
	count, err := r.Insert(ir.Series, ts)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, ErrBusy) {
			r.metrics.insertRejects.Inc()
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		r.metrics.insertErrors.Inc()
		writeError(w, http.StatusBadGateway, "cluster insert failed: %v", err)
		return
	}
	r.metrics.inserts.Inc()
	r.metrics.insertedRows.Add(int64(len(ir.Series)))
	r.metrics.insertLatency.Observe(elapsed.Seconds())
	if r.slow.Slow(elapsed) {
		r.slow.Record(obs.SlowEntry{
			DurationMicros: elapsed.Microseconds(),
			Kind:           "insert",
			Detail:         fmt.Sprintf("%d series", len(ir.Series)),
		})
	}
	writeJSON(w, http.StatusOK, server.InsertResponse{
		Inserted: len(ir.Series),
		Count:    count,
		Synced:   true,
	})
}

// TopologyResponse reports the placement map plus live node state.
type TopologyResponse struct {
	Shards    int          `json:"shards"`
	SeriesLen int          `json:"series_len"`
	Count     int64        `json:"count"`
	Nodes     []NodeStatus `json:"nodes"`
}

func (r *Router) handleTopology(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, TopologyResponse{
		Shards:    r.topo.Shards,
		SeriesLen: r.topo.SeriesLen,
		Count:     r.Count(),
		Nodes:     r.NodeStatuses(),
	})
}

// DrainRequest starts (or, with Undrain, reverses) a graceful drain of one
// node: no new queries route to it, in-flight queries finish, and replica
// writes keep flowing so the node stays consistent.
type DrainRequest struct {
	Node    string `json:"node"`
	Undrain bool   `json:"undrain,omitempty"`
}

func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var dr DrainRequest
	if err := json.NewDecoder(req.Body).Decode(&dr); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	var err error
	if dr.Undrain {
		err = r.Undrain(dr.Node)
	} else {
		err = r.Drain(dr.Node)
	}
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": dr.Node, "draining": !dr.Undrain})
}
