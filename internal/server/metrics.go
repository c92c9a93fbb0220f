package server

import (
	"repro/internal/obs"
	"repro/internal/simd"
)

// serverMetrics is the node's /metrics surface: static counters and
// histograms updated on the request path, plus a scrape-time collector
// that derives per-build series (I/O, cache, planner, WAL, compaction,
// heat map) from the accounting every subsystem already keeps — scrapes
// read existing atomic counters, so the query hot path gains nothing.
type serverMetrics struct {
	reg *obs.Registry

	queryLatency  map[string]*obs.Histogram // by mode: approx, exact, range, batch
	queryIOCost   map[string]*obs.Histogram
	queries       map[string]*obs.Counter
	queryErrors   *obs.Counter
	insertLatency *obs.Histogram
	inserts       *obs.Counter
	insertedRows  *obs.Counter
	insertErrors  *obs.Counter
	traced        *obs.Counter
}

const (
	modeApprox = "approx"
	modeExact  = "exact"
	modeRange  = "range"
	modeBatch  = "batch"
)

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:          reg,
		queryLatency: make(map[string]*obs.Histogram, 4),
		queryIOCost:  make(map[string]*obs.Histogram, 4),
		queries:      make(map[string]*obs.Counter, 4),
	}
	for _, mode := range []string{modeApprox, modeExact, modeRange, modeBatch} {
		m.queries[mode] = reg.Counter("coconut_queries_total",
			"Queries served, by mode.", "mode", mode)
		m.queryLatency[mode] = reg.Histogram("coconut_query_latency_seconds",
			"Query wall time in seconds, by mode.", obs.LatencyBuckets(), "mode", mode)
		m.queryIOCost[mode] = reg.Histogram("coconut_query_io_cost",
			"Modelled I/O cost per query, by mode.", obs.IOBuckets(), "mode", mode)
	}
	m.queryErrors = reg.Counter("coconut_query_errors_total",
		"Queries that failed.")
	m.inserts = reg.Counter("coconut_inserts_total",
		"Insert batches accepted.")
	m.insertedRows = reg.Counter("coconut_inserted_series_total",
		"Series appended through the live-ingest path.")
	m.insertErrors = reg.Counter("coconut_insert_errors_total",
		"Insert batches that failed.")
	m.insertLatency = reg.Histogram("coconut_insert_latency_seconds",
		"Insert batch wall time in seconds.", obs.LatencyBuckets())
	m.traced = reg.Counter("coconut_traced_queries_total",
		"Queries that carried a trace recorder.")
	reg.Collect(s.collectBuilds)
	return m
}

// collectBuilds derives the per-build series at scrape time. It takes the
// registry read lock only long enough to snapshot the build list, then
// reads each build's already-maintained counters without the build lock —
// every accessor touched here is safe under concurrent queries and
// inserts (atomics or internally locked), and scrape-time tearing between
// related series is acceptable for monitoring.
func (s *Server) collectBuilds(e *obs.Emit) {
	s.mu.RLock()
	builds := make([]*build, 0, len(s.builds))
	for _, b := range s.builds {
		builds = append(builds, b)
	}
	s.mu.RUnlock()
	e.Gauge("coconut_builds", "Registered builds.", float64(len(builds)))
	e.Gauge("coconut_kernel_info", "Active distance-kernel set (value is always 1).",
		1, "kernel", simd.Active())
	for _, b := range builds {
		id := b.id
		st := b.built.IOStats()
		e.Gauge("coconut_build_series", "Series indexed in the build.",
			float64(b.built.Index.Count()), "build", id, "variant", b.built.Spec.Variant)
		e.Counter("coconut_build_io_cost", "Modelled I/O cost accrued since construction.",
			st.Cost(s.cost), "build", id)
		e.Counter("coconut_build_seq_io", "Sequential page accesses since construction.",
			float64(st.SeqReads+st.SeqWrites), "build", id)
		e.Counter("coconut_build_rand_io", "Random page accesses since construction.",
			float64(st.RandReads+st.RandWrites), "build", id)
		if c := b.built.Cache; c != nil {
			e.Counter("coconut_build_cache_hits", "Buffer-pool hits.",
				float64(st.CacheHits), "build", id)
			e.Counter("coconut_build_cache_misses", "Buffer-pool misses.",
				float64(st.CacheMisses), "build", id)
			e.Gauge("coconut_build_cache_hit_ratio", "Buffer-pool hit ratio since construction.",
				st.HitRatio(), "build", id)
			e.Counter("coconut_build_cache_evictions", "Buffer-pool evictions.",
				float64(c.Evictions()), "build", id)
		}
		e.Counter("coconut_build_planner_skips", "Probe units skipped by the planner.",
			float64(b.built.Planner.Skips()), "build", id)
		if wst, ok := b.built.WALStats(); ok {
			e.Counter("coconut_build_wal_appends", "WAL records appended.",
				float64(wst.Appends), "build", id)
			e.Counter("coconut_build_wal_syncs", "WAL fsync batches.",
				float64(wst.Syncs), "build", id)
			e.Counter("coconut_build_wal_bytes_appended", "WAL bytes appended.",
				float64(wst.BytesAppended), "build", id)
			e.Gauge("coconut_build_wal_segments", "Open WAL segments.",
				float64(wst.Segments), "build", id)
		}
		if cst, ok := b.built.CompactionStats(); ok {
			e.Counter("coconut_build_compaction_flushes", "Memtable flushes.",
				float64(cst.Flushes), "build", id)
			e.Counter("coconut_build_compaction_merges", "Level merges.",
				float64(cst.Merges), "build", id)
			e.Gauge("coconut_build_compaction_runs", "Live sorted runs.",
				float64(cst.Runs), "build", id)
			pending := 0.0
			if cst.Pending {
				pending = 1
			}
			e.Gauge("coconut_build_compaction_pending", "1 while a background merge is queued or running.",
				pending, "build", id)
		}
		if b.rec != nil {
			e.Counter("coconut_build_page_accesses", "Page accesses seen by the heat-map tracer.",
				float64(b.rec.Total()), "build", id)
			j := b.rec.Jumps()
			e.Gauge("coconut_build_access_seq_frac", "Fraction of traced accesses that were sequential.",
				j.SeqFrac, "build", id)
		}
	}
}
