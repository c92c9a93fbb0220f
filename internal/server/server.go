// Package server implements the algorithms server of Figure 1: the GUI
// client (here: any HTTP client, including cmd/coconut-cli) talks to it
// through REST web-service calls exchanging JSON. It exposes dataset
// generation, index construction across every variant, approximate/exact
// (optionally windowed) queries, the recommender, and the heat-map
// visualization of access patterns.
package server

import (
	"encoding/json"
	"fmt"
	mrand "math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/assemble"
	"repro/internal/clsm"
	"repro/internal/gen"
	"repro/internal/heatmap"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/recommender"
	"repro/internal/series"
	"repro/internal/simd"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Server is the algorithms server. Create with New and mount via Handler.
//
// Locking: mu is a read-write lock guarding only the registries (datasets,
// builds, seq). Query execution never runs under it — handlers take a read
// lock just long enough to resolve an ID, release it, and then search;
// completed indexes are safe for concurrent searches, so any number of
// queries proceed in parallel, and registrations (POST /api/datasets,
// /api/build) only contend on the brief map updates.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]*dataset
	builds   map[string]*build
	seq      int
	cost     storage.CostModel
	// walRoot, when set, gives every CLSM build a write-ahead log in its
	// own subdirectory; durability comes from the build request (default
	// batched group commit).
	walRoot string
	// storageRoot, when set, lets builds use the file-backed storage
	// backend: each build's pages live in its own subdirectory. Builds
	// default to the file backend when a root is set; requests may force
	// either backend per build.
	storageRoot string
	// metrics is the node's /metrics surface and slow-query ring (inert
	// until SetSlowQuery arms a threshold).
	metrics *serverMetrics
}

type dataset struct {
	id   string
	kind string
	ds   *series.Dataset
}

type build struct {
	id    string
	built *assemble.Built
	rec   *heatmap.Recorder
	// mu serializes live inserts (exclusive) against queries and stats
	// (shared): the CLSM write path is internally concurrent-safe, but
	// tree and ADS+ inserts are not, and the lock keeps the contract
	// uniform across variants.
	mu sync.RWMutex
}

// New creates an empty server.
func New() *Server {
	s := &Server{
		datasets: make(map[string]*dataset),
		builds:   make(map[string]*build),
		cost:     storage.DefaultCostModel,
	}
	s.metrics = newServerMetrics(s)
	return s
}

// SetWALRoot makes CLSM builds durable: each one keeps a segmented
// write-ahead log in its own subdirectory of dir, so inserts are logged
// before acknowledgement. Empty (the default) disables build WALs. Call
// before serving.
func (s *Server) SetWALRoot(dir string) { s.walRoot = dir }

// SetStorageRoot enables the file-backed storage backend: each build's
// index and raw pages live as page-aligned files in its own subdirectory
// of dir. With a root set, builds default to the file backend (a request
// may still pick "sim" per build); without one, every build uses the
// simulated disk and requests asking for "file" are rejected. Query
// results are byte-identical on either backend. Call before serving.
func (s *Server) SetStorageRoot(dir string) { s.storageRoot = dir }

// SetSlowQuery arms the slow-query log: queries and inserts slower than d
// are recorded in a bounded ring served at GET /api/slowlog. d <= 0
// disables it. Safe to call while serving.
func (s *Server) SetSlowQuery(d time.Duration) { s.metrics.SetSlowQuery(d) }

// Metrics exposes the server's metrics registry, so embedding callers can
// register their own series next to the node's.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Close shuts down every registered build: background merges drain,
// write-ahead logs sync and close, and file-backed storage flushes to
// disk. Call on server shutdown, after the HTTP listener has stopped
// accepting requests.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, b := range s.builds {
		b.mu.Lock()
		if cerr := b.built.Close(); err == nil {
			err = cerr
		}
		b.mu.Unlock()
	}
	return err
}

// lookupBuild resolves a build ID under a read lock, so concurrent queries
// never serialize on the registry mutex.
func (s *Server) lookupBuild(id string) (*build, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.builds[id]
	return b, ok
}

// Handler returns the HTTP handler exposing the REST API under /api/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/health", s.handleHealth)
	mux.HandleFunc("/api/variants", s.handleVariants)
	mux.HandleFunc("/api/datasets", s.handleDatasets)
	mux.HandleFunc("/api/build", s.handleBuild)
	mux.HandleFunc("/api/query", s.handleQuery)
	mux.HandleFunc("/api/query/batch", s.handleQueryBatch)
	mux.HandleFunc("/api/insert", s.handleInsert)
	mux.HandleFunc("/api/stats", s.handleStats)
	mux.HandleFunc("/api/cluster/search", s.handleClusterSearch)
	mux.HandleFunc("/api/cluster/insert", s.handleClusterInsert)
	mux.HandleFunc("/api/cluster/info", s.handleClusterInfo)
	mux.HandleFunc("/api/recommend", s.handleRecommend)
	mux.HandleFunc("/api/heatmap", s.handleHeatmap)
	mux.HandleFunc("/api/slowlog", s.metrics.HandleSlowLog)
	mux.Handle("/metrics", s.metrics.reg.Handler())
	return mux
}

// WriteJSON answers with status and v as the JSON body. Every handler's
// answer, the router's too, is written here.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

// WriteError answers with status and the body {"error": message}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// MaxBatch caps the series or queries one batch request carries.
const MaxBatch = 1 << 16

// MaxRequestValues caps the values one batch request's series hold in all,
// e.g. 32 series of the longest length a dataset may have (16 384 points),
// or 2 048 series of 256 points. A client with a larger batch splits it, as
// coconut-cli insert does.
const MaxRequestValues = 1 << 19

// MaxRequestBytes caps every JSON request body, on a node and on the router.
// It gives each of MaxRequestValues values 32 bytes, more than the 26 the
// widest float64 takes in JSON with its separator, and each of MaxBatch
// entries 128 bytes of framing. So a router insert that passes BatchFits
// still fits once the router re-encodes it into /api/cluster/insert bodies,
// whose entries each add an id, a ts and their keys (at most 66 bytes).
const MaxRequestBytes = MaxRequestValues*32 + MaxBatch*128

// BatchFits reports whether a batch of n series or queries, holding values
// values in all, is within MaxBatch and MaxRequestValues. If it is not, it
// answers 400 for the count or 413 for the values, each with a JSON error.
func BatchFits(w http.ResponseWriter, what string, n, values int) bool {
	switch {
	case n == 0 || n > MaxBatch:
		WriteError(w, http.StatusBadRequest, "%s must number in (0, %d], got %d", what, MaxBatch, n)
	case values > MaxRequestValues:
		WriteError(w, http.StatusRequestEntityTooLarge, "%s hold %d values, over %d", what, values, MaxRequestValues)
	default:
		return true
	}
	return false
}

// Values counts the values a batch of series holds.
func Values(batch [][]float64) int {
	n := 0
	for _, s := range batch {
		n += len(s)
	}
	return n
}

func (s *Server) nextID(prefix string) string {
	s.seq++
	return fmt.Sprintf("%s-%d", prefix, s.seq)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "service": "coconut-palm algorithms server"})
}

func (s *Server) handleVariants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"variants": assemble.Variants})
}

// DatasetRequest asks for a synthetic dataset.
type DatasetRequest struct {
	Kind      string  `json:"kind"` // "astronomy" (default), "randomwalk", "finance", "ecg"
	N         int     `json:"n"`
	Len       int     `json:"len"`
	FracEvent float64 `json:"frac_event"` // event/anomaly fraction (astronomy, finance, ecg)
	Seed      int64   `json:"seed"`
}

// maxDatasetValues caps what one dataset request generates: 2^26 float64
// values, 512 MiB, however n and len share them.
const maxDatasetValues = 1 << 26

// DatasetResponse describes a generated dataset.
type DatasetResponse struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Count int    `json:"count"`
	Len   int    `json:"len"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.RLock()
		defer s.mu.RUnlock()
		out := []DatasetResponse{}
		for _, d := range s.datasets {
			out = append(out, DatasetResponse{ID: d.id, Kind: d.kind, Count: d.ds.Count(), Len: d.ds.Len})
		}
		WriteJSON(w, http.StatusOK, map[string]any{"datasets": out})
	case http.MethodPost:
		var req DatasetRequest
		if !DecodeRequest(w, r, &req) {
			return
		}
		if req.N <= 0 || req.N > 1<<20 {
			WriteError(w, http.StatusBadRequest, "n must be in (0, 2^20], got %d", req.N)
			return
		}
		if req.Len <= 0 || req.Len > 1<<14 {
			WriteError(w, http.StatusBadRequest, "len must be in (0, 16384], got %d", req.Len)
			return
		}
		if req.N*req.Len > maxDatasetValues {
			WriteError(w, http.StatusBadRequest, "n x len must be at most 2^26 values (512 MiB), got %d x %d", req.N, req.Len)
			return
		}
		var ds *series.Dataset
		switch req.Kind {
		case "astronomy", "":
			ds, _ = gen.Astronomy(gen.AstronomyConfig{N: req.N, Len: req.Len, FracEvent: req.FracEvent, Seed: req.Seed})
			req.Kind = "astronomy"
		case "randomwalk":
			ds = series.NewDataset(req.Len)
			rng := newRand(req.Seed)
			for i := 0; i < req.N; i++ {
				ds.Append(gen.RandomWalk(rng, req.Len))
			}
		case "finance":
			ds, _ = gen.Finance(gen.FinanceConfig{N: req.N, Len: req.Len, CrashProb: req.FracEvent, Seed: req.Seed})
		case "ecg":
			ds, _ = gen.ECGDataset(gen.ECGConfig{N: req.N, Len: req.Len, ArrhythPct: req.FracEvent, Seed: req.Seed})
		default:
			WriteError(w, http.StatusBadRequest, "unknown dataset kind %q", req.Kind)
			return
		}
		s.mu.Lock()
		id := s.nextID("ds")
		s.datasets[id] = &dataset{id: id, kind: req.Kind, ds: ds}
		s.mu.Unlock()
		WriteJSON(w, http.StatusCreated, DatasetResponse{ID: id, Kind: req.Kind, Count: ds.Count(), Len: ds.Len})
	default:
		WriteError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// BuildRequest asks for an index build.
type BuildRequest struct {
	Dataset      string  `json:"dataset"`
	Variant      string  `json:"variant"`
	Segments     int     `json:"segments"`
	Bits         int     `json:"bits"`
	FillFactor   float64 `json:"fill_factor"`
	GrowthFactor int     `json:"growth_factor"`
	MemBudget    int     `json:"mem_budget"`
	// Parallelism bounds the worker goroutines each query against this
	// build may use (and construction's sort workers): unset, 0 or 1 is
	// serial, negative selects GOMAXPROCS. Answers are identical at every
	// setting.
	Parallelism int `json:"parallelism"`
	// Shards > 1 hash-partitions the build across that many independent
	// shards, each on its own disk, with queries fanned across them; unset,
	// 0 or 1 is unsharded. Answers are identical at every setting.
	Shards int `json:"shards"`
	// CacheBytes > 0 puts a buffer pool of that size between the build's
	// indexes and its disk(s); sharded builds share one pool. Unset, 0 or
	// negative is uncached. Answers are identical at every setting — only
	// I/O cost changes.
	CacheBytes int64 `json:"cache_bytes"`
	// Durability selects the WAL group-commit policy for CLSM builds when
	// the server runs with a WAL root (-wal): "" or "batched" groups
	// several inserts per fsync, "sync" fsyncs every insert, "off"
	// disables the WAL for this build. Ignored without a WAL root.
	Durability string `json:"durability"`
	// CompactionWorkers > 0 runs this build's level merges on a background
	// pool of that many workers; unset, 0 or negative merges inline. CLSM
	// variants only, unsharded.
	CompactionWorkers int `json:"compaction_workers"`
	// Storage selects the storage backend for this build: "sim" is the
	// simulated in-memory disk (the paper-faithful accounting), "file"
	// stores pages in real files under the server's storage root (-storage;
	// rejected without one). Unset picks the server default — "file" when a
	// storage root is configured, "sim" otherwise. Results are
	// byte-identical on either backend.
	Storage string `json:"storage"`
	// ClusterShards > 0 makes this an index-node build for the distributed
	// tier: the dataset is hash-partitioned into that many logical shards,
	// and only the NodeShards subset is materialized here (a shard.Group
	// the coconut-router scatter-gathers over via /api/cluster/search).
	// Mutually exclusive with Shards. Distributed answers merged across
	// nodes are byte-identical to a single-node build of the same dataset.
	ClusterShards int `json:"cluster_shards"`
	// NodeShards lists which logical shards this node holds, each in
	// [0, ClusterShards), no duplicates. Required with ClusterShards.
	NodeShards []int `json:"node_shards"`
	// Compress is accepted and ignored: every build writes fixed-size
	// pages. Older clients still send it.
	Compress bool `json:"compress"`
}

// BuildResponse reports construction accounting, the numbers the demo GUI
// visualizes when comparing construction speed and storage consumption.
type BuildResponse struct {
	ID         string  `json:"id"`
	Variant    string  `json:"variant"`
	Count      int64   `json:"count"`
	BuildCost  float64 `json:"build_cost"`
	SeqIO      int64   `json:"seq_io"`
	RandIO     int64   `json:"rand_io"`
	IndexPages int64   `json:"index_pages"`
	RawPages   int64   `json:"raw_pages"`
	BuildMilli int64   `json:"build_ms"`
	Shards     int     `json:"shards"`
	Backend    string  `json:"backend"`  // "sim" or "file"
	Compress   bool    `json:"compress"` // always false: no build writes packed pages
	// Kernel names the distance-kernel implementation the process selected
	// at startup ("avx2", "neon", or "scalar").
	Kernel string `json:"kernel"`
	// Cluster builds only: the cluster-wide logical shard count and the
	// subset this node materialized.
	ClusterShards int   `json:"cluster_shards,omitempty"`
	NodeShards    []int `json:"node_shards,omitempty"`
}

// specFor maps a build request over a dataset of series length seriesLen
// onto the one build description: each field means what Spec's field means,
// the older wire's opt-outs (negative cache_bytes or compaction_workers,
// shards 1) read as Spec's zero, the server's caps on outside input are
// enforced, and the result is validated. WALDir and StorageDir come back as
// the server's roots (or empty); the caller allots the build's own
// subdirectories.
func (s *Server) specFor(req BuildRequest, seriesLen int) (assemble.Spec, error) {
	spec := assemble.Spec{
		Variant: req.Variant, SeriesLen: seriesLen,
		Segments: req.Segments, Bits: req.Bits,
		FillFactor: req.FillFactor, GrowthFactor: req.GrowthFactor, MemBudget: req.MemBudget,
		Parallelism: req.Parallelism, Shards: req.Shards,
		CacheBytes: max(0, req.CacheBytes), CompactionWorkers: max(0, req.CompactionWorkers),
		ClusterShards: req.ClusterShards, NodeShards: req.NodeShards,
		WALDir: s.walRoot, StorageDir: s.storageRoot,
	}
	if spec.Shards < 0 || spec.Shards > 256 {
		return spec, fmt.Errorf("shards must be in [0, 256], got %d", spec.Shards)
	}
	if spec.Shards == 1 {
		spec.Shards = 0 // on the wire one shard is unsharded; to Spec it is a group of one
	}
	if spec.ClusterShards < 0 || spec.ClusterShards > 1024 {
		return spec, fmt.Errorf("cluster_shards must be in [0, 1024], got %d", spec.ClusterShards)
	}
	if spec.CacheBytes > 1<<32 {
		return spec, fmt.Errorf("cache_bytes must be in [0, %d], got %d", int64(1)<<32, spec.CacheBytes)
	}
	if spec.CompactionWorkers > 64 {
		return spec, fmt.Errorf("compaction_workers must be in [0, 64], got %d", spec.CompactionWorkers)
	}
	switch req.Storage {
	case "":
	case "sim":
		spec.StorageDir = ""
	case "file":
		if spec.StorageDir == "" {
			return spec, fmt.Errorf("storage %q needs the server to run with a storage root (-storage)", req.Storage)
		}
	default:
		return spec, fmt.Errorf("unknown storage %q (want sim or file)", req.Storage)
	}
	if req.Durability != "off" {
		spec.Durability = req.Durability // Validate refuses an unknown policy on any variant
	}
	// Durable ingest and background merges are requested for unsharded CLSM
	// builds only: any other build keeps no log, and is refused a durability
	// it would not have rather than acknowledge inserts as synced to none.
	if (req.Variant == "CLSM" || req.Variant == "CLSMFull") && !spec.Partitioned() {
		switch {
		case req.Durability == "off":
			spec.WALDir = ""
		case spec.WALDir == "" && req.Durability != "":
			return spec, fmt.Errorf("durability %q needs the server to run with a WAL root (-wal)", req.Durability)
		}
	} else {
		if req.Durability == "batched" || req.Durability == "sync" {
			return spec, fmt.Errorf("durability %q needs an unsharded CLSM or CLSMFull build: a %s build with shards=%d, cluster_shards=%d keeps no write-ahead log",
				req.Durability, req.Variant, req.Shards, req.ClusterShards)
		}
		spec.WALDir, spec.CompactionWorkers = "", 0
	}
	return spec, spec.Validate()
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req BuildRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	s.mu.RLock()
	d, ok := s.datasets[req.Dataset]
	s.mu.RUnlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "dataset %q not found", req.Dataset)
		return
	}
	spec, err := s.specFor(req, d.ds.Len)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	if spec.StorageDir != "" {
		spec.StorageDir = filepath.Join(spec.StorageDir, s.nextID("store"))
	}
	if spec.WALDir != "" {
		spec.WALDir = filepath.Join(spec.WALDir, s.nextID("wal"))
	}
	s.mu.Unlock()
	b, err := assemble.Build(spec, d.ds)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "build failed: %v", err)
		return
	}
	rec := heatmap.NewRecorder()
	b.SetTracer(rec)
	s.mu.Lock()
	id := s.nextID("build")
	s.builds[id] = &build{id: id, built: b, rec: rec}
	s.mu.Unlock()
	st := b.BuildStats
	resp := BuildResponse{
		ID:         id,
		Variant:    b.Index.Name(),
		Count:      b.Index.Count(),
		BuildCost:  b.BuildCost(s.cost),
		SeqIO:      st.SeqReads + st.SeqWrites,
		RandIO:     st.RandReads + st.RandWrites,
		IndexPages: b.IndexPages,
		RawPages:   b.RawPages,
		BuildMilli: b.BuildTime.Milliseconds(),
		Shards:     b.Shards(),
		Backend:    b.Disk.Kind(),
		Kernel:     simd.Active(),
	}
	if spec.ClusterShards > 0 {
		resp.ClusterShards, resp.NodeShards = b.Group.NShards(), b.Group.Owned()
	}
	WriteJSON(w, http.StatusCreated, resp)
}

// QueryRequest issues a similarity query against a build. Series is the
// drawn/selected query target (raw values; the server z-normalizes).
type QueryRequest struct {
	Build  string    `json:"build"`
	Series []float64 `json:"series"`
	K      int       `json:"k"`
	Exact  bool      `json:"exact"`
	// Eps > 0 switches to a range query: every series within Euclidean
	// distance eps of the query (K and Exact are then ignored; the index
	// must support range search).
	Eps   float64 `json:"eps,omitempty"`
	MinTS *int64  `json:"min_ts,omitempty"`
	MaxTS *int64  `json:"max_ts,omitempty"`
	// Trace asks the server to record this query's execution and return
	// the structured trace in the response (also enabled by ?trace=1 on
	// the URL). Traced queries return identical answers; they pay the
	// recording overhead, so leave it off in steady state.
	Trace bool `json:"trace,omitempty"`
}

// QueryResult is one neighbor.
type QueryResult struct {
	ID   int64   `json:"id"`
	TS   int64   `json:"ts"`
	Dist float64 `json:"dist"`
}

// QueryResponse reports answers plus the I/O cost the demo GUI charts.
// PlannedSkips counts the probe units (shards, runs, partitions, leaves,
// pages) this query skipped whole by a bound: its own count, which its
// trace's equals. Cost, SeqIO and RandIO are the build's disk delta over the
// search, so they include pages read by queries running at the same time.
type QueryResponse struct {
	Results      []QueryResult `json:"results"`
	Cost         float64       `json:"cost"`
	SeqIO        int64         `json:"seq_io"`
	RandIO       int64         `json:"rand_io"`
	PlannedSkips int64         `json:"planned_skips"`
	// Trace is present only on traced queries (request trace=true or
	// ?trace=1): the structured execution trace, with I/O filled from the
	// build's storage-stats delta for this query.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QueryRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	b, ok := s.lookupBuild(req.Build)
	if !ok {
		WriteError(w, http.StatusNotFound, "build %q not found", req.Build)
		return
	}
	mode, ok := req.Check(w, r, b.built.Config.SeriesLen)
	if !ok {
		return
	}
	q := windowed(index.NewQuery(series.Series(req.Series), b.built.Config), req.MinTS, req.MaxTS)
	q.Tally = new(obs.Tally)
	var tr *obs.QueryTrace
	if req.Trace {
		tr = obs.NewQueryTrace()
		q.Trace = tr
		s.metrics.Traced()
	}
	var rs []index.Result
	diff, elapsed, err := s.search(b, mode, func() (err error) {
		switch mode {
		case ModeRange:
			rs, err = b.built.RangeSearch(q, req.Eps)
		case ModeExact:
			rs, err = b.built.ExactSearch(q, b.boundK(req.K))
		default:
			rs, err = b.built.ApproxSearch(q, b.boundK(req.K))
		}
		return err
	})
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "query failed: %v", err)
		return
	}
	resp := QueryResponse{
		Results:      Results(rs),
		Cost:         diff.Cost(s.cost),
		SeqIO:        diff.SeqReads + diff.SeqWrites,
		RandIO:       diff.RandReads + diff.RandWrites,
		PlannedSkips: q.Tally.PlannedSkips(),
	}
	if tr != nil {
		resp.Trace = tr.Snapshot(q.Tally)
		resp.Trace.Mode = mode
		resp.Trace.K = req.K
		resp.Trace.Kernel = simd.Active()
		resp.Trace.WallMicros = elapsed.Microseconds()
		resp.Trace.IO = obs.IOSnapshot{
			SeqReads: diff.SeqReads, RandReads: diff.RandReads,
			SeqWrites: diff.SeqWrites, RandWrites: diff.RandWrites,
			CacheHits: diff.CacheHits, CacheMisses: diff.CacheMisses,
			Cost: diff.Cost(s.cost),
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// boundK clamps a requested k to the series the build holds: a k-NN over n
// series returns at most n, so no answer changes, and no search is sized by
// a number off the wire. Call under the build's read lock.
func (b *build) boundK(k int) int { return min(k, max(1, int(b.built.Index.Count()))) }

// search is the one search step of the query endpoints: under the build's
// read lock it times dispatch between two readings of the build's I/O
// counters, and returns their delta; a success is observed under mode, a
// failure counted and left to the caller to report with the status it maps
// to there.
func (s *Server) search(b *build, mode string, dispatch func() error) (diff storage.Stats, elapsed time.Duration, err error) {
	start := time.Now()
	b.mu.RLock()
	before := b.built.IOStats()
	err = dispatch()
	diff = b.built.IOStats().Sub(before)
	b.mu.RUnlock()
	elapsed = time.Since(start)
	cost := diff.Cost(s.cost)
	s.metrics.ObserveQuery(mode, b.id, elapsed, cost, err)
	if err == nil {
		s.metrics.queryIOCost[mode].Observe(cost)
	}
	return diff, elapsed, err
}

// BatchQueryRequest issues many similarity queries against a build in one
// round trip. All queries share k and the exact/approximate mode.
type BatchQueryRequest struct {
	Build   string      `json:"build"`
	Queries [][]float64 `json:"queries"`
	K       int         `json:"k"`
	Exact   bool        `json:"exact"`
}

// BatchQueryResponse reports per-query answers plus the batch's aggregate
// I/O cost (the build's disk delta, as QueryResponse's) and planned skips:
// the sum of its queries' own.
type BatchQueryResponse struct {
	Results      [][]QueryResult `json:"results"`
	Queries      int             `json:"queries"`
	Cost         float64         `json:"cost"`
	SeqIO        int64           `json:"seq_io"`
	RandIO       int64           `json:"rand_io"`
	PlannedSkips int64           `json:"planned_skips"`
}

// handleQueryBatch answers POST /api/query/batch: in exact mode many
// queries executed through the pipelined batch path (index.Batch — pooled
// per-worker search contexts, queries spread across the worker pool), in
// approximate mode a per-query loop. Each answer is byte-identical to the
// corresponding single /api/query call.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req BatchQueryRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	b, ok := s.lookupBuild(req.Build)
	if !ok {
		WriteError(w, http.StatusNotFound, "build %q not found", req.Build)
		return
	}
	if !req.Check(w, b.built.Config.SeriesLen) {
		return
	}
	var tally obs.Tally
	qs := make([]index.Query, len(req.Queries))
	for i, raw := range req.Queries {
		qs[i] = index.NewQuery(series.Series(raw), b.built.Config)
		qs[i].Tally = &tally
	}
	var rss [][]index.Result
	diff, _, err := s.search(b, ModeBatch, func() (err error) {
		k := b.boundK(req.K)
		if req.Exact {
			rss, err = b.built.SearchBatch(qs, k)
			return err
		}
		rss = make([][]index.Result, len(qs))
		for i, q := range qs {
			if rss[i], err = b.built.ApproxSearch(q, k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "batch query failed: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, BatchQueryResponse{
		Results:      BatchResults(rss),
		Queries:      len(rss),
		Cost:         diff.Cost(s.cost),
		SeqIO:        diff.SeqReads + diff.SeqWrites,
		RandIO:       diff.RandReads + diff.RandWrites,
		PlannedSkips: tally.PlannedSkips(),
	})
}

// InsertRequest appends series to an existing build — the live ingest
// path. All series share one timestamp unless Timestamps (same length)
// gives one each.
type InsertRequest struct {
	Build      string      `json:"build"`
	Series     [][]float64 `json:"series"`
	TS         int64       `json:"ts"`
	Timestamps []int64     `json:"timestamps,omitempty"`
}

// InsertResponse reports the batch ingest outcome, including the WAL's
// view when the build is durable (Synced reports whether every
// acknowledged insert has been fsynced — with batched durability the group
// commit is forced at the end of each request batch, so it is always true
// on success).
type InsertResponse struct {
	Inserted int   `json:"inserted"`
	Count    int64 `json:"count"`
	Synced   bool  `json:"synced"`
	Millis   int64 `json:"ms"`
}

// handleInsert answers POST /api/insert: batch ingest into a built index.
// Inserts take the build's write lock, so they serialize against queries;
// every variant accepts them, a non-materialized one appending each series
// to its raw series file first. On durable CLSM builds every insert is
// WAL-logged before the response acknowledges the batch.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req InsertRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	b, ok := s.lookupBuild(req.Build)
	if !ok {
		WriteError(w, http.StatusNotFound, "build %q not found", req.Build)
		return
	}
	if !req.Check(w, b.built.Config.SeriesLen) {
		return
	}
	stamps := req.Stamps()
	start := time.Now()
	b.mu.Lock()
	var err error
	inserted := 0
	for i, ser := range req.Series {
		if err = b.built.Ingest(series.Series(ser), stamps[i]); err != nil {
			break
		}
		inserted++
	}
	synced := false
	if err == nil && b.built.WAL != nil {
		// Acknowledge the batch only once the group commit has landed.
		if serr := b.built.WAL.Sync(); serr != nil {
			err = serr
		} else {
			synced = true
		}
	}
	count := b.built.Index.Count()
	b.mu.Unlock()
	elapsed := time.Since(start)
	s.metrics.ObserveInsert(b.id, inserted, elapsed, err)
	if err != nil {
		status := http.StatusBadRequest
		if inserted > 0 {
			status = http.StatusInternalServerError
		}
		WriteError(w, status, "insert failed after %d series: %v", inserted, err)
		return
	}
	WriteJSON(w, http.StatusOK, InsertResponse{
		Inserted: inserted,
		Count:    count,
		Synced:   synced || b.built.WAL == nil,
		Millis:   elapsed.Milliseconds(),
	})
}

// DiskStats is the JSON shape of one disk's accounting. The cache fields
// report the buffer pool fronting the disk and stay zero on uncached
// builds; cost charges only the accesses that reached the disk (hits are
// free, misses already appear as the reads they triggered).
type DiskStats struct {
	SeqReads    int64   `json:"seq_reads"`
	RandReads   int64   `json:"rand_reads"`
	SeqWrites   int64   `json:"seq_writes"`
	RandWrites  int64   `json:"rand_writes"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRatio    float64 `json:"hit_ratio"`
	Cost        float64 `json:"cost"`
}

// CacheStats is the /api/stats section describing a build's buffer pool.
type CacheStats struct {
	Enabled        bool    `json:"enabled"`
	CapacityBytes  int64   `json:"capacity_bytes"`
	CapacityFrames int64   `json:"capacity_frames"`
	Hits           int64   `json:"hits"`
	Misses         int64   `json:"misses"`
	HitRatio       float64 `json:"hit_ratio"`
	Evictions      int64   `json:"evictions"`
}

// WALStats is the /api/stats section describing a durable build's
// write-ahead log.
type WALStats struct {
	Enabled bool `json:"enabled"`
	wal.Stats
}

// CompactionStats is the /api/stats section describing a CLSM build's
// ingest/compaction machinery.
type CompactionStats struct {
	Enabled bool `json:"enabled"`
	clsm.CompactionStats
}

// PlannerStats is the /api/stats section describing a build's query
// planner: the units every query so far skipped, the sum of their own
// counts (assemble.Built.Searched).
type PlannerStats struct {
	PlannedSkips int64 `json:"planned_skips"`
}

// StatsResponse reports a build's series length and its I/O accounting
// since construction: aggregate over every disk backing the build, plus
// the per-shard breakdown (one entry, equal to the aggregate, for unsharded
// builds), the buffer pool, the query planner, and — for durable CLSM
// builds — the write-ahead log and compaction machinery.
type StatsResponse struct {
	Build      string          `json:"build"`
	Variant    string          `json:"variant"`
	Shards     int             `json:"shards"`
	Backend    string          `json:"backend"` // "sim" or "file"
	Kernel     string          `json:"kernel"`  // active distance-kernel implementation
	SeriesLen  int             `json:"series_len"`
	Aggregate  DiskStats       `json:"aggregate"`
	PerShard   []DiskStats     `json:"per_shard"`
	Cache      CacheStats      `json:"cache"`
	Planner    PlannerStats    `json:"planner"`
	WAL        WALStats        `json:"wal"`
	Compaction CompactionStats `json:"compaction"`
}

func (s *Server) diskStats(st storage.Stats) DiskStats {
	return DiskStats{
		SeqReads: st.SeqReads, RandReads: st.RandReads,
		SeqWrites: st.SeqWrites, RandWrites: st.RandWrites,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		HitRatio: st.HitRatio(),
		Cost:     st.Cost(s.cost),
	}
}

// handleStats answers GET /api/stats?build=...: the per-shard and
// aggregate I/O accounting of a build's disks.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := r.URL.Query().Get("build")
	b, ok := s.lookupBuild(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "build %q not found", id)
		return
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	agg := b.built.IOStats()
	resp := StatsResponse{
		Build:     id,
		Variant:   b.built.Index.Name(),
		Shards:    b.built.Shards(),
		Backend:   b.built.Disk.Kind(),
		Kernel:    simd.Active(),
		SeriesLen: b.built.Config.SeriesLen,
		Aggregate: s.diskStats(agg),
		Planner:   PlannerStats{PlannedSkips: b.built.Searched.PlannedSkips()},
	}
	if wst, ok := b.built.WALStats(); ok {
		resp.WAL = WALStats{Enabled: true, Stats: wst}
	}
	if cst, ok := b.built.CompactionStats(); ok {
		resp.Compaction = CompactionStats{Enabled: true, CompactionStats: cst}
	}
	if c := b.built.Cache; c != nil {
		resp.Cache = CacheStats{
			Enabled:        true,
			CapacityBytes:  c.CapacityBytes(),
			CapacityFrames: c.CapacityFrames(),
			Hits:           agg.CacheHits,
			Misses:         agg.CacheMisses,
			HitRatio:       agg.HitRatio(),
			Evictions:      c.Evictions(),
		}
	}
	if g := b.built.Group; g != nil {
		for _, st := range g.ShardStats() {
			resp.PerShard = append(resp.PerShard, s.diskStats(st))
		}
	} else {
		resp.PerShard = []DiskStats{resp.Aggregate}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// RecommendRequest mirrors recommender.Scenario.
type RecommendRequest struct {
	Streaming        bool    `json:"streaming"`
	ExpectedQueries  int     `json:"expected_queries"`
	UpdateRate       float64 `json:"update_rate"`
	MemoryBudgetFrac float64 `json:"memory_budget_frac"`
	StorageTight     bool    `json:"storage_tight"`
	SmallWindows     bool    `json:"small_windows"`
}

// RecommendResponse carries the advice and its rationale.
type RecommendResponse struct {
	Variant      string   `json:"variant"`
	FillFactor   float64  `json:"fill_factor,omitempty"`
	GrowthFactor int      `json:"growth_factor,omitempty"`
	Rationale    []string `json:"rationale"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req RecommendRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	rec := recommender.Recommend(recommender.Scenario{
		Streaming:        req.Streaming,
		ExpectedQueries:  req.ExpectedQueries,
		UpdateRate:       req.UpdateRate,
		MemoryBudgetFrac: req.MemoryBudgetFrac,
		StorageTight:     req.StorageTight,
		SmallWindows:     req.SmallWindows,
	})
	WriteJSON(w, http.StatusOK, RecommendResponse{
		Variant:      rec.Variant(),
		FillFactor:   rec.FillFactor,
		GrowthFactor: rec.GrowthFactor,
		Rationale:    rec.Rationale,
	})
}

// HeatmapResponse carries the access-pattern visualization of a build's
// disk since construction (builds install a tracer).
type HeatmapResponse struct {
	Maps  []heatmap.Map     `json:"maps"`
	Jumps heatmap.JumpStats `json:"jumps"`
	ASCII []string          `json:"ascii"`
}

func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := r.URL.Query().Get("build")
	b, ok := s.lookupBuild(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "build %q not found", id)
		return
	}
	buckets := 60
	maps := b.rec.RenderAll(buckets)
	resp := HeatmapResponse{Maps: maps, Jumps: b.rec.Jumps()}
	for _, m := range maps {
		resp.ASCII = append(resp.ASCII, m.ASCII())
	}
	WriteJSON(w, http.StatusOK, resp)
}

func newRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }
