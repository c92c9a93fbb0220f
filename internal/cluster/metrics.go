package cluster

import (
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// routerMetrics is the router's /metrics surface: the request-path
// families it shares with a node (server.RequestMetrics, under
// "coconut_router_") and admission rejects, plus a scrape-time collector
// deriving fan-out totals and per-node replica health from the state the
// router already maintains.
type routerMetrics struct {
	reg *obs.Registry
	*server.RequestMetrics
	insertRejects *obs.Counter
}

func newRouterMetrics(r *Router) *routerMetrics {
	reg := obs.NewRegistry()
	m := &routerMetrics{
		reg:            reg,
		RequestMetrics: server.NewRequestMetrics(reg, "coconut_router_"),
		insertRejects: reg.Counter("coconut_router_insert_rejects_total",
			"Insert batches rejected by admission control (HTTP 429)."),
	}
	reg.Collect(r.collectRouter)
	return m
}

// collectRouter derives the fan-out totals and per-node health series at
// scrape time from the router's existing atomics.
func (r *Router) collectRouter(e *obs.Emit) {
	e.Counter("coconut_router_node_calls_total",
		"Node requests issued across all fan-outs (retries and hedges included).",
		float64(r.calls.Load()))
	e.Counter("coconut_router_retries_total",
		"Node requests reissued to another replica after a failure.",
		float64(r.retries.Load()))
	e.Counter("coconut_router_hedges_total",
		"Duplicate node requests launched after HedgeAfter.",
		float64(r.hedges.Load()))
	e.Gauge("coconut_router_shards", "Logical shards in the topology.",
		float64(r.topo.Shards))
	e.Gauge("coconut_router_series", "Cluster-wide series count.",
		float64(r.count.Load()))
	for _, st := range r.nodes {
		name := st.node.Name
		b := func(v bool) float64 {
			if v {
				return 1
			}
			return 0
		}
		e.Gauge("coconut_router_node_healthy", "1 while the node passes health checks.",
			b(st.healthy.Load()), "node", name)
		e.Gauge("coconut_router_node_draining", "1 while the node is draining.",
			b(st.draining.Load()), "node", name)
		e.Gauge("coconut_router_node_stale", "1 once the node missed a replica write and left read rotation.",
			b(st.stale.Load()), "node", name)
		e.Gauge("coconut_router_node_fails", "Consecutive failed calls to the node.",
			float64(st.fails.Load()), "node", name)
	}
}

// RouterTrace is the router's side of a traced query: the fan-out
// accounting for this one request. Nodes' own traces stay on the nodes —
// query them directly with ?trace=1 to drill in.
type RouterTrace struct {
	Calls      int64   `json:"calls"`
	Retries    int64   `json:"retries"`
	Hedges     int64   `json:"hedges"`
	Cost       float64 `json:"cost"`
	SeqIO      int64   `json:"seq_io"`
	RandIO     int64   `json:"rand_io"`
	WallMicros int64   `json:"wall_micros"`
}

// SetSlowQuery arms the router's slow-query log: requests slower than d
// are recorded in a bounded ring served at GET /api/slowlog. d <= 0
// disables it. Safe to call while serving.
func (r *Router) SetSlowQuery(d time.Duration) { r.metrics.SetSlowQuery(d) }

// Metrics exposes the router's metrics registry.
func (r *Router) Metrics() *obs.Registry { return r.metrics.reg }
