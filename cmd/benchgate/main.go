// Command benchgate is the benchmark-regression gate run by CI: it parses
// two `go test -bench` output files — the PR head and the merge base — and
// fails (exit 1) when the head regresses more than the allowed time ratio
// on any benchmark, allocates more per operation at all, or reports a
// higher io-cost/query than the allowed ratio on benchmarks that track the
// custom metric. It also writes a machine-readable JSON comparison so the
// perf trajectory can be tracked as a build artifact.
//
// Usage:
//
//	go test -run '^$' -bench X -benchmem -count 6 . | tee head.txt
//	git checkout <merge-base> && go test ... | tee base.txt
//	benchgate -base base.txt -head head.txt -max-time-ratio 1.15 -json BENCH_compare.json
//
// The CI workflow currently gates BenchmarkParallelSearch, BenchmarkMinDist,
// BenchmarkVerify, BenchmarkCachedSearch, and BenchmarkPlannedSearch (the
// GATE_BENCH list in .github/workflows/ci.yml); the alloc/op rule is what
// pins the cached search's zero-allocation warm page fetches, and the
// io-cost/query rule is what pins the planner's I/O savings.
//
// Time comparisons use the minimum across -count runs (noise only ever
// slows a run down), and regressions below -noise-floor-ns are ignored so
// sub-microsecond benchmarks cannot flake the gate. Allocation counts are
// deterministic, so any increase fails. The io-cost/query metric is
// deterministic too, but its per-op average amortizes one-time cold costs
// over b.N, so a small -max-io-ratio slack absorbs iteration-count skew.
// Benchmarks present on only one side are reported but never fail the gate
// (new benchmarks must be landable; deleted ones are the diff's business,
// not the gate's).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// Comparison is one benchmark's base-vs-head verdict, serialized into the
// JSON artifact.
type Comparison struct {
	Name       string  `json:"name"`
	BaseNs     float64 `json:"base_ns_per_op"`
	HeadNs     float64 `json:"head_ns_per_op"`
	TimeRatio  float64 `json:"time_ratio"`
	BaseAllocs float64 `json:"base_allocs_per_op"`
	HeadAllocs float64 `json:"head_allocs_per_op"`
	BaseBytes  float64 `json:"base_bytes_per_op"`
	HeadBytes  float64 `json:"head_bytes_per_op"`
	// BaseIOCost / HeadIOCost are -1 when the benchmark does not report
	// the io-cost/query metric; IORatio is 0 in that case.
	BaseIOCost  float64  `json:"base_io_cost_per_query"`
	HeadIOCost  float64  `json:"head_io_cost_per_query"`
	IORatio     float64  `json:"io_ratio"`
	Regressions []string `json:"regressions,omitempty"`
}

// Report is the JSON artifact: every compared benchmark plus the gate's
// configuration and verdict.
type Report struct {
	MaxTimeRatio float64      `json:"max_time_ratio"`
	MaxIORatio   float64      `json:"max_io_ratio"`
	NoiseFloorNs float64      `json:"noise_floor_ns"`
	Compared     []Comparison `json:"compared"`
	HeadOnly     []string     `json:"head_only,omitempty"`
	BaseOnly     []string     `json:"base_only,omitempty"`
	Failed       bool         `json:"failed"`
}

func main() {
	var (
		basePath   = flag.String("base", "", "bench output of the merge base (required)")
		headPath   = flag.String("head", "", "bench output of the PR head (required)")
		maxRatio   = flag.Float64("max-time-ratio", 1.15, "fail when head time exceeds base time by this ratio")
		maxIORatio = flag.Float64("max-io-ratio", 1.02, "fail when head io-cost/query exceeds base by this ratio (on benchmarks reporting the metric)")
		noiseFloor = flag.Float64("noise-floor-ns", 200, "ignore time regressions where both sides are below this many ns/op")
		jsonPath   = flag.String("json", "", "write the machine-readable comparison to this file")
	)
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base and -head are required")
		os.Exit(2)
	}
	report, err := gate(*basePath, *headPath, *maxRatio, *maxIORatio, *noiseFloor)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	for _, c := range report.Compared {
		status := "ok"
		if len(c.Regressions) > 0 {
			status = "REGRESSION"
		}
		io := ""
		if c.BaseIOCost >= 0 && c.HeadIOCost >= 0 {
			io = fmt.Sprintf("  %.0f -> %.0f io-cost/query", c.BaseIOCost, c.HeadIOCost)
		}
		fmt.Printf("%-60s %12.0f -> %12.0f ns/op (%.2fx)  %5.0f -> %5.0f allocs/op%s  [%s]\n",
			c.Name, c.BaseNs, c.HeadNs, c.TimeRatio, c.BaseAllocs, c.HeadAllocs, io, status)
		for _, r := range c.Regressions {
			fmt.Printf("    %s\n", r)
		}
	}
	for _, n := range report.HeadOnly {
		fmt.Printf("%-60s new in head (not gated)\n", n)
	}
	for _, n := range report.BaseOnly {
		fmt.Printf("%-60s missing from head (not gated)\n", n)
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
	}
	if report.Failed {
		fmt.Println("benchgate: FAIL — performance regression against merge base")
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

// gate loads both files and compares every benchmark present in both.
func gate(basePath, headPath string, maxRatio, maxIORatio, noiseFloor float64) (*Report, error) {
	base, err := loadBench(basePath)
	if err != nil {
		return nil, err
	}
	head, err := loadBench(headPath)
	if err != nil {
		return nil, err
	}
	report := &Report{MaxTimeRatio: maxRatio, MaxIORatio: maxIORatio, NoiseFloorNs: noiseFloor}
	for _, name := range sortedNames(base, head) {
		b, h := base[name], head[name]
		c := Comparison{
			Name:   name,
			BaseNs: b.MinNs(), HeadNs: h.MinNs(),
			BaseAllocs: b.AllocsPerOp, HeadAllocs: h.AllocsPerOp,
			BaseBytes: b.BytesPerOp, HeadBytes: h.BytesPerOp,
			BaseIOCost: b.IOCostPerQuery, HeadIOCost: h.IOCostPerQuery,
		}
		if c.BaseNs > 0 {
			c.TimeRatio = c.HeadNs / c.BaseNs
		}
		if c.TimeRatio > maxRatio && !(c.BaseNs < noiseFloor && c.HeadNs < noiseFloor) {
			c.Regressions = append(c.Regressions,
				fmt.Sprintf("time regressed %.2fx (limit %.2fx)", c.TimeRatio, maxRatio))
		}
		// Any alloc/op increase is a regression: allocation counts are
		// deterministic, so there is no noise to tolerate.
		if c.BaseAllocs >= 0 && c.HeadAllocs > c.BaseAllocs {
			c.Regressions = append(c.Regressions,
				fmt.Sprintf("allocs/op regressed %.0f -> %.0f", c.BaseAllocs, c.HeadAllocs))
		}
		// io-cost/query is gated only when both sides report it: the
		// simulated-disk accounting is deterministic, with a small ratio
		// slack absorbing b.N amortization skew between runs.
		if c.BaseIOCost > 0 && c.HeadIOCost >= 0 {
			c.IORatio = c.HeadIOCost / c.BaseIOCost
			if c.IORatio > maxIORatio {
				c.Regressions = append(c.Regressions,
					fmt.Sprintf("io-cost/query regressed %.2fx (limit %.2fx): %.0f -> %.0f",
						c.IORatio, maxIORatio, c.BaseIOCost, c.HeadIOCost))
			}
		}
		if len(c.Regressions) > 0 {
			report.Failed = true
		}
		report.Compared = append(report.Compared, c)
	}
	for name := range head {
		if _, ok := base[name]; !ok {
			report.HeadOnly = append(report.HeadOnly, name)
		}
	}
	for name := range base {
		if _, ok := head[name]; !ok {
			report.BaseOnly = append(report.BaseOnly, name)
		}
	}
	// Deterministic artifact: identical inputs must serialize identically,
	// or diffing BENCH_compare.json across runs shows phantom changes.
	sort.Strings(report.HeadOnly)
	sort.Strings(report.BaseOnly)
	return report, nil
}

func loadBench(path string) (map[string]*Measurement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseBench(f)
}
