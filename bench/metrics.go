package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Workload names are fixed: later issues cite them.
const (
	wlStatic = "static_tree"
	wlStream = "stream_window"
	wlLSM    = "durable_lsm"
	wlRouted = "routed_serve"
)

var workloadNames = []string{wlStatic, wlStream, wlLSM, wlRouted}

// workloadWhy records why each workload was chosen, in one line.
var workloadWhy = map[string]string{
	wlStatic: "static scenario, no cache: bulk load, pruning, SIMD kernels and page reads do the work; cache, WAL, compaction and HTTP do none",
	wlStream: "streaming scenario, one thread: partition merges and window skips dominate; writes and reads alternate so a read gain bought with ingest cost shows",
	wlLSM:    "durable write path: WAL, background compaction, file backend and a cache far smaller than the index, so a window query misses the cache on nearly every page it reads",
	wlRouted: "serving tier on loopback HTTP: JSON, scatter-gather and the buffer pool's hit path dominate, index work is small; inserts go through the router to both replicas",
}

// contractJSON renders BENCHMARK.json from the lists in this file.
func contractJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: referenceSeconds}
	for _, n := range workloadNames {
		doc.Workloads = append(doc.Workloads, wl{n, workloadWhy[n]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(buf) + "\n"
}

// metricDef declares one metric. BENCHMARK.json repeats name, unit, better
// and bound; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact names the workloads on which the value is a count taken in a
	// single-client, Parallelism=1 pass and so repeats bit for bit at a fixed
	// seed; -compare holds those to a bound of zero when the seeds match.
	Exact []string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; README.md says what each means on each workload. Times and
// rates are calibrated against the yardstick (calib.go).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ingest_series_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "approx_recall_at_10", Unit: "ratio", Better: "higher", Bound: 0.25, Exact: []string{wlStatic, wlStream}},
	{Name: "io_cost_per_query", Unit: "pages", Better: "lower", Bound: 0.25, Exact: []string{wlStatic, wlStream}},
	{Name: "write_amp", Unit: "ratio", Better: "lower", Bound: 0.05, Exact: []string{wlStatic, wlStream}},
	{Name: "index_bytes_per_series", Unit: "B", Better: "lower", Bound: 0.05, Exact: []string{wlStatic, wlStream}},
}

// perLayer is one number per layer boundary, named <package>.<metric>. A
// metric that a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// These were meant to be end-to-end; README.md says why they are here.
	{Name: "build_s", Unit: "s", Better: "lower"},
	{Name: "approx_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "insert_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "mixed_query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "extsort.sort_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "extsort.passes", Unit: "count", Better: "lower"},
	{Name: "sax.summarize_ns", Unit: "ns", Better: "lower"},
	{Name: "ctree.pages_read_per_exact", Unit: "pages", Better: "lower"},
	{Name: "ctree.leaf_pages", Unit: "pages", Better: "lower"},
	{Name: "index.table_fill_ns", Unit: "ns", Better: "lower"},
	{Name: "index.mindist_ns", Unit: "ns", Better: "lower"},
	{Name: "index.collector_merge_ns", Unit: "ns", Better: "lower"},
	{Name: "index.planned_skips_per_query_near", Unit: "count", Better: "higher"},
	{Name: "index.planned_skips_per_query_far", Unit: "count", Better: "higher"},
	{Name: "index.planned_skips_per_query_window", Unit: "count", Better: "higher"},
	{Name: "index.near_exact_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "simd.sqdist_ns", Unit: "ns", Better: "lower"},
	{Name: "simd.sqdist_encoded_ns", Unit: "ns", Better: "lower"},
	{Name: "simd.table_sum_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.sim_pin_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.file_pin_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.seq_share", Unit: "ratio", Better: "higher"},
	{Name: "storage.reads_per_query", Unit: "pages", Better: "lower"},
	{Name: "bufpool.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bufpool.warm_pin_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.miss_fetch_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.evictions", Unit: "count", Better: "lower"},
	{Name: "record.packed_view_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "record.packed_entries_per_page", Unit: "count", Better: "higher"},
	{Name: "record.fixed_entries_per_page", Unit: "count", Better: "higher"},
	{Name: "parallel.exact_p50_ms_at_nproc", Unit: "ms", Better: "lower"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},
	{Name: "parallel.foreach_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "parallel.qps_at_nproc", Unit: "1/s", Better: "higher"},
	{Name: "shard.batch_qps", Unit: "1/s", Better: "higher"},
	{Name: "stream.partitions_final", Unit: "count", Better: "lower"},
	{Name: "stream.ingest_ns_per_series", Unit: "ns", Better: "lower"},
	{Name: "stream.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "zonestat.add_ns", Unit: "ns", Better: "lower"},
	{Name: "clsm.flushes", Unit: "count", Better: "lower"},
	{Name: "clsm.merges", Unit: "count", Better: "lower"},
	{Name: "clsm.runs_final", Unit: "count", Better: "lower"},
	{Name: "clsm.levels", Unit: "count", Better: "lower"},
	{Name: "clsm.quiesce_ms", Unit: "ms", Better: "lower"},
	{Name: "clsm.pages_read_per_window_query", Unit: "pages", Better: "lower"},
	{Name: "clsm.preload_batch_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "clsm.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "clsm.recovery_lost_inserts", Unit: "count", Better: "lower"},
	{Name: "compact.stall_batch_share", Unit: "ratio", Better: "lower"},
	{Name: "compact.max_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.syncs_per_1k_inserts", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_series", Unit: "B", Better: "lower"},
	{Name: "server.json_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "server.direct_exact_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.node_wall_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.write_lock_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.routed_minus_direct_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.fanout_calls_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.box_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "budget.unexplained_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
}

func (d metricDef) exactOn(workload string) bool {
	for _, w := range d.Exact {
		if w == workload {
			return true
		}
	}
	return false
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// runResult collects what one run of one workload measured.
type runResult struct {
	Workload  string
	Traced    bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	// Samples is the sample count behind a latency metric, and Reported the
	// percentile a tail metric actually is when fewer than ten samples lie
	// beyond the one its name promises.
	Samples  map[string]int
	Reported map[string]float64
	// Wrong lists failed correctness checks; any entry makes the run
	// incorrect.
	Wrong []string
	Notes []string
}

func newResult(workload string, traced bool) *runResult {
	return &runResult{
		Workload: workload, Traced: traced,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Reported: map[string]float64{},
	}
}

func (r *runResult) set(name string, v float64) {
	if _, ok := findMetric(name); !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = v
}

// setMedian reports the median of a phase's samples, uncalibrated: the
// per-layer metrics of a traced run.
func (r *runResult) setMedian(name string, ms []float64) {
	r.set(name, median(append([]float64(nil), ms...)))
	r.Samples[name] = len(ms)
}

// setTail reports the 99th percentile of a phase's samples, or the highest
// percentile that has ten samples beyond it.
func (r *runResult) setTail(name string, ms []float64) {
	v, reported := percentile(append([]float64(nil), ms...), 0.99)
	r.set(name, v)
	r.Samples[name] = len(ms)
	r.Reported[name] = reported
}

// setQueries reports the exact-query metrics of a workload's replay: the
// median and the tail over the operations of each operation's calibrated
// time, and what one closed-loop client completes per second at those
// times.
func (r *runResult) setQueries(rp replay) {
	perOp := rp.perOp()
	r.set("query_qps", 1e3*float64(len(perOp))/sum(perOp))
	r.setMedian("query_p50_ms", perOp)
	r.setTail("query_p99_ms", perOp)
	r.note("queries: %d operations x %d passes; uncalibrated median %.4g ms, box slowdown %.3f", len(perOp), len(rp), rp.rawMedian(), rp.boxSlowdown())
}

// ops adds operations to the attempted/failed account.
func (r *runResult) ops(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// loop accounts a load generator's operations and reports whether all of
// them succeeded; a phase with a failure prints no metric.
func (r *runResult) loop(phase string, l loopResult) bool {
	r.ops(l.attempted(), l.Failed)
	if l.Failed > 0 {
		r.wrong("%s: %d of %d operations failed, first: %v", phase, l.Failed, l.attempted(), l.Err)
		return false
	}
	return true
}

func (r *runResult) wrong(format string, args ...any) {
	r.Wrong = append(r.Wrong, fmt.Sprintf(format, args...))
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *runResult) correct() bool { return len(r.Wrong) == 0 }

// defs is the metric list this run answers for.
func (r *runResult) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit, then notes and failed
// checks.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (%s run)\n", r.Workload, map[bool]string{false: "untraced", true: "traced"}[r.Traced])
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d, _ := findMetric(n)
		extra := ""
		if c, ok := r.Samples[n]; ok {
			extra = fmt.Sprintf("  n=%d", c)
		}
		if p, ok := r.Reported[n]; ok && p < 0.99 {
			extra += fmt.Sprintf("  (p%.1f: fewer than ten samples beyond p99)", 100*p)
		}
		fmt.Fprintf(w, "  %-40s %16.6g %-6s %s%s\n", n, r.Metrics[n], d.Unit, arrow(d), extra)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, n := range r.Wrong {
		fmt.Fprintf(w, "  WRONG: %s\n", n)
	}
}

func arrow(d metricDef) string {
	if d.Better == "higher" {
		return "(higher is better)"
	}
	return "(lower is better)"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the one JSON object the benchmark contract asks for
// as the last line of standard output. An end-to-end metric whose phase
// failed its check is left out; a per-layer metric the workload does not
// exercise reads 0.
func (r *runResult) contractLine() string {
	metrics := make(map[string]metricValue)
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.Name]
		if !ok && !r.Traced {
			continue
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	buf, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), attempted, r.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(buf)
}

// missing lists end-to-end metrics an untraced run failed to produce.
func (r *runResult) missing() string {
	var out []string
	for _, d := range r.defs() {
		if _, ok := r.Metrics[d.Name]; !ok && !r.Traced {
			out = append(out, d.Name)
		}
	}
	return strings.Join(out, ", ")
}
