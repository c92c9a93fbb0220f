package cluster

// The router's public HTTP surface is a single coconut-server's query and
// insert API (same request/response shapes; the build field is ignored —
// the topology names the builds), so clients talk to one address and need
// not know they face a cluster. Requests are checked, stamped, rendered and
// counted by the node's own request code (server.QueryRequest.Check,
// server.InsertRequest.Stamps, server.Results, server.RequestMetrics); what
// is the router's own is the scatter-gather behind them, router_trace, 429
// admission and 502 for a node's failure. Router-specific operations live
// under /api/cluster/: topology + node status, and graceful drain.

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/index"
	"repro/internal/server"
)

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/health", r.handleHealth)
	mux.HandleFunc("/api/query", r.handleQuery)
	mux.HandleFunc("/api/query/batch", r.handleQueryBatch)
	mux.HandleFunc("/api/insert", r.handleInsert)
	mux.HandleFunc("/api/cluster/topology", r.handleTopology)
	mux.HandleFunc("/api/cluster/drain", r.handleDrain)
	mux.HandleFunc("/api/slowlog", r.metrics.HandleSlowLog)
	mux.Handle("/metrics", r.metrics.reg.Handler())
	return mux
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	healthy := 0
	for _, st := range r.NodeStatuses() {
		if st.Healthy && !st.Draining && !st.Stale {
			healthy++
		}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
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
		server.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var qr server.QueryRequest
	if !server.DecodeRequest(w, req, &qr) {
		return
	}
	mode, ok := qr.Check(w, req, r.topo.SeriesLen)
	if !ok {
		return
	}
	if qr.Trace {
		r.metrics.Traced()
	}
	start := time.Now()
	var (
		rs    []index.Result
		stats Stats
		err   error
	)
	if mode == server.ModeRange {
		rs, stats, err = r.RangeSearch(qr.Series, qr.Eps, qr.MinTS, qr.MaxTS)
	} else {
		rs, stats, err = r.Search(qr.Series, qr.K, qr.Exact, qr.MinTS, qr.MaxTS)
	}
	elapsed := time.Since(start)
	r.metrics.ObserveQuery(mode, "", elapsed, stats.Cost, err)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "cluster query failed: %v", err)
		return
	}
	// The router's trace rides next to the node-shaped response body, so
	// untraced clients see exactly the single-node response shape.
	resp := struct {
		server.QueryResponse
		RouterTrace *RouterTrace `json:"router_trace,omitempty"`
	}{
		QueryResponse: server.QueryResponse{
			Results: server.Results(rs),
			Cost:    stats.Cost,
			SeqIO:   stats.SeqIO,
			RandIO:  stats.RandIO,
		},
	}
	if qr.Trace {
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
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleQueryBatch answers POST /api/query/batch; per-query answers are
// byte-identical to the corresponding single /api/query call.
func (r *Router) handleQueryBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var qr server.BatchQueryRequest
	if !server.DecodeRequest(w, req, &qr) {
		return
	}
	if !qr.Check(w, r.topo.SeriesLen) {
		return
	}
	start := time.Now()
	rss, stats, err := r.SearchBatch(qr.Queries, qr.K, qr.Exact)
	r.metrics.ObserveQuery(server.ModeBatch, "", time.Since(start), stats.Cost, err)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "cluster batch query failed: %v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, server.BatchQueryResponse{
		Results: server.BatchResults(rss),
		Queries: len(rss),
		Cost:    stats.Cost,
		SeqIO:   stats.SeqIO,
		RandIO:  stats.RandIO,
	})
}

// handleInsert answers POST /api/insert: the router assigns global IDs and
// writes every replica of each touched shard. Admission control surfaces as
// HTTP 429 — back off and resend.
func (r *Router) handleInsert(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var ir server.InsertRequest
	if !server.DecodeRequest(w, req, &ir) {
		return
	}
	if !ir.Check(w, r.topo.SeriesLen) {
		return
	}
	start := time.Now()
	count, err := r.Insert(ir.Series, ir.Stamps())
	if errors.Is(err, ErrBusy) {
		r.metrics.insertRejects.Inc()
		server.WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	r.metrics.ObserveInsert("", len(ir.Series), time.Since(start), err)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "cluster insert failed: %v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, server.InsertResponse{
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
		server.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	server.WriteJSON(w, http.StatusOK, TopologyResponse{
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
		server.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var dr DrainRequest
	if !server.DecodeRequest(w, req, &dr) {
		return
	}
	var err error
	if dr.Undrain {
		err = r.Undrain(dr.Node)
	} else {
		err = r.Drain(dr.Node)
	}
	if err != nil {
		server.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"node": dr.Node, "draining": !dr.Undrain})
}
