package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// dataSizes goes into every fingerprint: results are comparable only when
// the benchmark's constants agree.
var dataSizes = map[string]int{
	"static_series": staticSeries, "static_len": staticLen, "static_rounds": staticRounds, "static_queries": staticQueries,
	"stream_batches": streamBatches, "stream_batch": streamBatchSize, "stream_len": streamLen, "stream_passes": streamPasses,
	"lsm_preload": lsmPreload, "lsm_len": lsmLen, "lsm_cache_bytes": lsmCacheBytes, "lsm_rounds": lsmRounds, "lsm_queries": lsmQueries, "lsm_rate": lsmRate,
	"routed_series": routedSeries, "routed_len": routedLen, "routed_cache_bytes": routedCacheBytes, "routed_rounds": routedRounds, "routed_queries": routedQueries, "routed_rate": routedRate,
}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // the run-to-run spread exceeds the bound
	verdictMissing    = "missing"
)

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// valuesOf collects one metric's values over the untraced, correct runs of
// a workload, and the seeds those runs used.
func valuesOf(records []runRecord, workload, metric string) (values []float64, seeds []int64) {
	for _, r := range records {
		if r.Workload != workload || r.Traced || !r.Correct {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			values = append(values, v.Value)
			seeds = append(seeds, r.Fingerprint.Seed)
		}
	}
	return values, seeds
}

func sameSeeds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]int64(nil), a...), append([]int64(nil), b...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// judge applies a metric's own bound to two sets of runs: b may be worse
// than a by at most the bound, a count that must repeat exactly by nothing
// when both sides ran the same seeds, and a spread wider than the bound on
// either side leaves the pair unresolved.
func judge(d metricDef, workload string, a, b []float64, seedsMatch bool) (verdict string, change, bound float64) {
	bound = d.Bound
	if seedsMatch && d.exactOn(workload) {
		bound = 0
	}
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing, 0, bound
	}
	ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	if ma != 0 {
		change = (mb - ma) / math.Abs(ma)
	}
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	if spread := math.Max(quartileSpread(a), quartileSpread(b)); spread > bound {
		return verdictUnresolved, change, bound
	}
	if worse > bound {
		return verdictRegressed, change, bound
	}
	return verdictOK, change, bound
}

// runCompare prints one row per end-to-end metric and workload and returns
// the exit code: 0, 1 when a metric regressed, 2 when the files cannot be
// compared.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no run", pathA)
	}
	var b []runRecord
	if err == nil {
		if b, err = readRecords(pathB); err == nil && len(b) == 0 {
			err = fmt.Errorf("%s holds no run", pathB)
		}
	}
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	for _, r := range append(append([]runRecord(nil), a...), b...) {
		if !a[0].Fingerprint.sameMachine(r.Fingerprint) {
			fmt.Fprintf(w, "compare: refusing to compare different fingerprints:\n  %+v\n  %+v\n", a[0].Fingerprint, r.Fingerprint)
			return 2
		}
	}
	fmt.Fprintf(w, "a: %s (commit %s)   b: %s (commit %s)\n", pathA, a[0].Fingerprint.Commit, pathB, b[0].Fingerprint.Commit)
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "change", "bound", "verdict")
	code := 0
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			va, sa := valuesOf(a, wl, d.Name)
			vb, sb := valuesOf(b, wl, d.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			verdict, change, bound := judge(d, wl, va, vb, sameSeeds(sa, sb))
			if verdict == verdictRegressed || verdict == verdictMissing {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (%d, %d runs)\n",
				wl, d.Name, median(va), median(vb), 100*change, 100*bound, verdict, len(va), len(vb))
		}
	}
	return code
}
