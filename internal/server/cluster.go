package server

// This file is the index-node side of the distributed serving tier: the
// endpoints coconut-router scatter-gathers over. A cluster build (a
// BuildRequest with cluster_shards/node_shards) materializes a shard.Group
// — the node's subset of the cluster's hash-partitioned shards — and these
// endpoints expose exact per-shard answers with their accumulated squared
// sums intact, under global IDs, so the router-side merge reproduces the
// single-node collector selection bit-for-bit.

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/shard"
)

// ClusterResult is one candidate on the router-node wire: a global series
// ID and the exact accumulated squared distance — the very ordering key the
// single-node collector compares, so merging nodes' answers preserves even
// sub-ulp tie-breaks at the k boundary. JSON float64 encoding is
// shortest-round-trip, so the squared sum crosses the wire bit-exactly.
type ClusterResult struct {
	ID     int64   `json:"id"`
	TS     int64   `json:"ts"`
	DistSq float64 `json:"dist_sq"`
}

// ClusterSearchRequest asks a node for its shards' contribution to a
// cluster-wide query. Shards lists which of the node's shards to consult
// (the router's placement choice); nil or empty means every owned shard.
type ClusterSearchRequest struct {
	Build  string    `json:"build"`
	Series []float64 `json:"series"`
	K      int       `json:"k"`
	// Mode is "exact" (default), "approx", or "range" (Eps required).
	Mode   string  `json:"mode,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
	Shards []int   `json:"shards,omitempty"`
	MinTS  *int64  `json:"min_ts,omitempty"`
	MaxTS  *int64  `json:"max_ts,omitempty"`
}

// ClusterSearchResponse carries the node's per-shard contribution plus the
// I/O accounting the probes charged on this node.
type ClusterSearchResponse struct {
	Results []ClusterResult `json:"results"`
	Shards  []int           `json:"shards"` // shards actually consulted
	Cost    float64         `json:"cost"`
	SeqIO   int64           `json:"seq_io"`
	RandIO  int64           `json:"rand_io"`
}

// clusterBuild resolves a build ID to a cluster (shard.Group) build.
func (s *Server) clusterBuild(w http.ResponseWriter, id string) (*build, bool) {
	b, ok := s.lookupBuild(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "build %q not found", id)
		return nil, false
	}
	if b.built.Spec.ClusterShards == 0 {
		WriteError(w, http.StatusBadRequest, "build %q is not a cluster build (no cluster_shards)", id)
		return nil, false
	}
	return b, true
}

// handleClusterSearch answers POST /api/cluster/search: the node probes the
// requested shards serially and returns the collector's contents — global
// IDs with exact squared sums — for the router to merge. Requests naming a
// shard this node does not own fail loudly (400) rather than answering
// incompletely, so a router/topology mismatch can never silently drop
// candidates. Any other failed search — a page the node could not read —
// is the node's (500), as on /api/query.
func (s *Server) handleClusterSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ClusterSearchRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	b, ok := s.clusterBuild(w, req.Build)
	if !ok {
		return
	}
	if !checkQuery(w, req.Series, b.built.Config.SeriesLen, req.MinTS, req.MaxTS, &req.K) {
		return
	}
	q := windowed(index.NewQuery(series.Series(req.Series), b.built.Config), req.MinTS, req.MaxTS)
	g := b.built.Group
	shards := req.Shards
	if len(shards) == 0 {
		shards = g.Owned()
	}
	mode := req.Mode
	switch {
	case mode == "":
		mode = ModeExact
	case mode == ModeRange && req.Eps <= 0:
		WriteError(w, http.StatusBadRequest, "range mode needs eps > 0, got %g", req.Eps)
		return
	case mode != ModeExact && mode != ModeApprox && mode != ModeRange:
		WriteError(w, http.StatusBadRequest, "unknown mode %q (want exact, approx, or range)", req.Mode)
		return
	}
	// Router-driven probes count in the node's query metrics too: a scrape
	// of a cluster node reflects the load it actually served, and the
	// search's record goes straight into the build's running total.
	q.Tally = &b.built.Searched
	var col *index.Collector
	diff, _, err := s.search(b, mode, func() (err error) {
		switch pool := b.built.Workers(); mode {
		case ModeRange:
			col, err = g.RangeSearchShards(q, req.Eps, shards, pool, b.built.Planner)
		case ModeApprox:
			col, err = g.ApproxSearchShards(q, b.boundK(req.K), shards, pool, b.built.Planner)
		default:
			col, err = g.ExactSearchShards(q, b.boundK(req.K), shards, pool, b.built.Planner)
		}
		return err
	})
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, shard.ErrNotOwned) {
			status = http.StatusBadRequest
		}
		WriteError(w, status, "cluster search failed: %v", err)
		return
	}
	resp := ClusterSearchResponse{Results: []ClusterResult{}, Shards: shards}
	col.Each(func(id, ts int64, distSq float64) {
		resp.Results = append(resp.Results, ClusterResult{ID: id, TS: ts, DistSq: distSq})
	})
	resp.Cost = diff.Cost(s.cost)
	resp.SeqIO = diff.SeqReads + diff.SeqWrites
	resp.RandIO = diff.RandReads + diff.RandWrites
	WriteJSON(w, http.StatusOK, resp)
}

// ClusterEntry is one replica write: a router-assigned global ID, its
// timestamp, and the raw series.
type ClusterEntry struct {
	ID     int64     `json:"id"`
	TS     int64     `json:"ts"`
	Series []float64 `json:"series"`
}

// ClusterInsertRequest appends router-routed series to a cluster build.
// Every entry's ID must hash-place into a shard this node owns and extend
// that shard's ID sequence strictly ascending — a replica that missed an
// earlier write rejects the batch instead of silently diverging.
type ClusterInsertRequest struct {
	Build   string         `json:"build"`
	Entries []ClusterEntry `json:"entries"`
}

// ClusterInsertResponse reports how many entries landed. Applied < the
// batch size means the batch stopped at the first failing entry; the node's
// shards then hold a prefix, and the router marks this replica stale.
type ClusterInsertResponse struct {
	Applied int   `json:"applied"`
	Count   int64 `json:"count"` // node-local series count after the batch
	MaxID   int64 `json:"max_id"`
}

// handleClusterInsert answers POST /api/cluster/insert, the replica write
// path: entries apply in order under the build's write lock, serialized
// against queries like every insert.
func (s *Server) handleClusterInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ClusterInsertRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	b, ok := s.clusterBuild(w, req.Build)
	if !ok {
		return
	}
	values := 0
	for _, e := range req.Entries {
		values += len(e.Series)
	}
	if !BatchFits(w, "entries", len(req.Entries), values) {
		return
	}
	for i, e := range req.Entries {
		if len(e.Series) != b.built.Config.SeriesLen {
			WriteError(w, http.StatusBadRequest, "entry %d length %d, want %d", i, len(e.Series), b.built.Config.SeriesLen)
			return
		}
	}
	b.mu.Lock()
	applied := 0
	var err error
	for _, e := range req.Entries {
		if err = b.built.ClusterInsert(e.ID, series.Series(e.Series), e.TS); err != nil {
			err = fmt.Errorf("entry %d (id %d): %w", applied, e.ID, err)
			break
		}
		applied++
	}
	count := b.built.Group.Count()
	maxID := b.built.Group.MaxID()
	b.mu.Unlock()
	if err != nil {
		status := http.StatusBadRequest
		if applied > 0 {
			status = http.StatusInternalServerError
		}
		WriteError(w, status, "cluster insert failed after %d entries: %v", applied, err)
		return
	}
	WriteJSON(w, http.StatusOK, ClusterInsertResponse{Applied: applied, Count: count, MaxID: maxID})
}

// ClusterInfoResponse describes a node's cluster build: which shards it
// holds of how many, and how far its ID space extends. The router uses it
// for topology verification and health checking, and derives the
// cluster-wide series count from the maximum MaxID across nodes.
type ClusterInfoResponse struct {
	Build         string `json:"build"`
	Variant       string `json:"variant"`
	ClusterShards int    `json:"cluster_shards"`
	NodeShards    []int  `json:"node_shards"`
	SeriesLen     int    `json:"series_len"`
	Count         int64  `json:"count"`
	MaxID         int64  `json:"max_id"`
}

// handleClusterInfo answers GET /api/cluster/info?build=...
func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	b, ok := s.clusterBuild(w, r.URL.Query().Get("build"))
	if !ok {
		return
	}
	g := b.built.Group
	b.mu.RLock()
	defer b.mu.RUnlock()
	WriteJSON(w, http.StatusOK, ClusterInfoResponse{
		Build:         b.id,
		Variant:       b.built.Index.Name(),
		ClusterShards: g.NShards(),
		NodeShards:    g.Owned(),
		SeriesLen:     b.built.Config.SeriesLen,
		Count:         g.Count(),
		MaxID:         g.MaxID(),
	})
}
