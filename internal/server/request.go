package server

// This file holds the request semantics a node and the router share: the
// checks a query, batch or insert request passes before any work, each
// insert's stamp, the wire rendering of answers, the request-metric
// families each tier registers under its own prefix, and GET /api/slowlog.
// The router (internal/cluster) answers /api/query, /api/query/batch and
// /api/insert through them, so input a node refuses is refused the same way
// there, before any fan-out.

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
)

// The query modes: each request's mode labels its metrics and slow-log
// entries, and a cluster search names the mode it asks a node for.
const (
	ModeApprox = "approx"
	ModeExact  = "exact"
	ModeRange  = "range"
	ModeBatch  = "batch"
)

// Check checks a query against the series length n it must have, reads the
// trace flag from the body or ?trace=1 into Trace, and fills the default k
// (below 1 is 1). It returns the query's mode, or false once it has answered
// 400.
func (q *QueryRequest) Check(w http.ResponseWriter, r *http.Request, n int) (string, bool) {
	if !checkQuery(w, q.Series, n, q.MinTS, q.MaxTS, &q.K) {
		return "", false
	}
	q.Trace = q.Trace || r.URL.Query().Get("trace") == "1"
	switch {
	case q.Eps > 0:
		return ModeRange, true
	case q.Exact:
		return ModeExact, true
	}
	return ModeApprox, true
}

// checkQuery is the query checks a node's query and a cluster search share:
// the series against the length n it must have, one time-window bound
// never without the other (one alone is never read as no window), and k
// below 1 filled as 1. It reports false once it has answered 400.
func checkQuery(w http.ResponseWriter, series []float64, n int, minTS, maxTS *int64, k *int) bool {
	if len(series) != n {
		WriteError(w, http.StatusBadRequest, "query length %d, want %d", len(series), n)
		return false
	}
	if (minTS == nil) != (maxTS == nil) {
		WriteError(w, http.StatusBadRequest, "min_ts and max_ts are required together")
		return false
	}
	*k = max(*k, 1)
	return true
}

// windowed restricts q to the time window [*minTS, *maxTS] when the checked
// pair is set.
func windowed(q index.Query, minTS, maxTS *int64) index.Query {
	if minTS != nil {
		q = q.WithWindow(*minTS, *maxTS)
	}
	return q
}

// Check checks a batch's size and each query against the series length n,
// and fills the default k (below 1 is 1). It reports false once it has
// answered 400, or 413 for a batch holding too many values.
func (q *BatchQueryRequest) Check(w http.ResponseWriter, n int) bool {
	if !BatchFits(w, "queries", len(q.Queries), Values(q.Queries)) {
		return false
	}
	for i, raw := range q.Queries {
		if len(raw) != n {
			WriteError(w, http.StatusBadRequest, "query %d length %d, want %d", i, len(raw), n)
			return false
		}
	}
	q.K = max(q.K, 1)
	return true
}

// Check checks an insert's size, its per-series timestamps and each series
// against the series length n. It reports false once it has answered 400,
// or 413 for a batch holding too many values.
func (q *InsertRequest) Check(w http.ResponseWriter, n int) bool {
	return checkInsert(w, "series", "series", len(q.Series), func(i int) int { return len(q.Series[i]) }, q.Timestamps, n)
}

// checkInsert is the one insert check, over a batch of count series whose
// lengths length reports: the batch's size within BatchFits (what names
// the batch), timestamps, when given, one per series, and each series of
// length n (item names one). It reports false once it has answered 400, or
// 413 for a batch holding too many values.
func checkInsert(w http.ResponseWriter, what, item string, count int, length func(int) int, timestamps []int64, n int) bool {
	values := 0
	for i := 0; i < count; i++ {
		values += length(i)
	}
	if !BatchFits(w, what, count, values) {
		return false
	}
	if timestamps != nil && len(timestamps) != count {
		WriteError(w, http.StatusBadRequest, "timestamps length %d, series length %d", len(timestamps), count)
		return false
	}
	for i := 0; i < count; i++ {
		if got := length(i); got != n {
			WriteError(w, http.StatusBadRequest, "%s %d length %d, want %d", item, i, got, n)
			return false
		}
	}
	return true
}

// Stamps returns each series' insert stamp: timestamps[i], else ts, which
// defaults to 0.
func (q *InsertRequest) Stamps() []int64 { return stamps(q.Timestamps, q.TS, len(q.Series)) }

// stamps returns the stamps of n series: timestamps when given, else ts
// for each.
func stamps(timestamps []int64, ts int64, n int) []int64 {
	if timestamps != nil {
		return timestamps
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = ts
	}
	return out
}

// Results renders one query's answers on the wire, in order; a query with
// none answers null.
func Results(rs []index.Result) []QueryResult {
	if len(rs) == 0 {
		return nil
	}
	return appendResults(make([]QueryResult, 0, len(rs)), rs)
}

// BatchResults renders a batch's answers on the wire; a query with none
// answers [].
func BatchResults(rss [][]index.Result) [][]QueryResult {
	out := make([][]QueryResult, len(rss))
	for i, rs := range rss {
		out[i] = appendResults(make([]QueryResult, 0, len(rs)), rs)
	}
	return out
}

func appendResults(out []QueryResult, rs []index.Result) []QueryResult {
	for _, res := range rs {
		out = append(out, QueryResult{ID: res.ID, TS: res.TS, Dist: res.Dist})
	}
	return out
}

// RequestMetrics is the request path's /metrics surface, which a node
// registers under the prefix "coconut_" and the router under
// "coconut_router_": queries and their latency by mode, query errors, traced
// queries, insert batches, inserted series, insert errors and insert
// latency. It keeps the slow-request log served at GET /api/slowlog too.
type RequestMetrics struct {
	queries       map[string]*obs.Counter   // by mode: approx, exact, range, batch
	queryLatency  map[string]*obs.Histogram // by mode
	queryErrors   *obs.Counter
	traced        *obs.Counter
	inserts       *obs.Counter
	insertedRows  *obs.Counter
	insertErrors  *obs.Counter
	insertLatency *obs.Histogram
	slow          *obs.SlowLog
}

// modes lists the query modes in the order their series register.
var modes = []string{ModeApprox, ModeExact, ModeRange, ModeBatch}

// NewRequestMetrics registers the request-metric families in reg under
// prefix. The slow-request log starts disarmed.
func NewRequestMetrics(reg *obs.Registry, prefix string) *RequestMetrics {
	m := &RequestMetrics{
		queries:      make(map[string]*obs.Counter, len(modes)),
		queryLatency: make(map[string]*obs.Histogram, len(modes)),
		slow:         obs.NewSlowLog(0),
	}
	for _, mode := range modes {
		m.queries[mode] = reg.Counter(prefix+"queries_total",
			"Queries answered, by mode.", "mode", mode)
		m.queryLatency[mode] = reg.Histogram(prefix+"query_latency_seconds",
			"Query wall time in seconds, by mode.", obs.LatencyBuckets(), "mode", mode)
	}
	m.queryErrors = reg.Counter(prefix+"query_errors_total",
		"Queries that failed after their checks.")
	m.traced = reg.Counter(prefix+"traced_queries_total",
		"Queries that carried a trace.")
	m.inserts = reg.Counter(prefix+"inserts_total",
		"Insert batches accepted.")
	m.insertedRows = reg.Counter(prefix+"inserted_series_total",
		"Series inserted.")
	m.insertErrors = reg.Counter(prefix+"insert_errors_total",
		"Insert batches that failed after their checks.")
	m.insertLatency = reg.Histogram(prefix+"insert_latency_seconds",
		"Insert batch wall time in seconds.", obs.LatencyBuckets())
	return m
}

// SetSlowQuery arms the slow-request log: requests slower than d are
// recorded in a bounded ring served at GET /api/slowlog. d <= 0 disables it.
// Safe to call while serving.
func (m *RequestMetrics) SetSlowQuery(d time.Duration) { m.slow.SetThreshold(d) }

// Traced counts a query that carries a trace.
func (m *RequestMetrics) Traced() { m.traced.Inc() }

// ObserveQuery records one checked query: a failure is counted; an answer
// of the given I/O cost feeds mode's counter and latency and, past the
// threshold, the slow-request log. build is empty on the router.
func (m *RequestMetrics) ObserveQuery(mode, build string, elapsed time.Duration, cost float64, err error) {
	if err != nil {
		m.queryErrors.Inc()
		return
	}
	m.queries[mode].Inc()
	m.queryLatency[mode].Observe(elapsed.Seconds())
	if m.slow.Slow(elapsed) {
		m.slow.Record(obs.SlowEntry{
			DurationMicros: elapsed.Microseconds(),
			Kind:           "query",
			Build:          build,
			Mode:           mode,
			Cost:           cost,
		})
	}
}

// ObserveInsert records one checked insert batch of n series: a failure is
// counted; an acknowledged batch feeds the insert counters and latency and,
// past the threshold, the slow-request log. build is empty on the router.
func (m *RequestMetrics) ObserveInsert(build string, n int, elapsed time.Duration, err error) {
	if err != nil {
		m.insertErrors.Inc()
		return
	}
	m.inserts.Inc()
	m.insertedRows.Add(int64(n))
	m.insertLatency.Observe(elapsed.Seconds())
	if m.slow.Slow(elapsed) {
		m.slow.Record(obs.SlowEntry{
			DurationMicros: elapsed.Microseconds(),
			Kind:           "insert",
			Build:          build,
			Detail:         fmt.Sprintf("%d series", n),
		})
	}
}

// HandleSlowLog answers GET /api/slowlog: the most recent slow requests
// (newest first) and the active threshold.
func (m *RequestMetrics) HandleSlowLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"threshold_micros": m.slow.Threshold().Microseconds(),
		"total":            m.slow.Total(),
		"entries":          m.slow.Entries(),
	})
}
