// Command bench is the repository's benchmark: four workloads that drive
// the system through its public facade and its HTTP wire format, end-to-end
// metrics from an untraced run, per-layer metrics from a traced one, and a
// correctness oracle beside every number. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// runRecord is one run as written to -out: one JSON object per line, so a
// file collects the runs -compare needs to see a spread.
type runRecord struct {
	Fingerprint fingerprint            `json:"fingerprint"`
	Workload    string                 `json:"workload"`
	Traced      bool                   `json:"traced"`
	Correct     bool                   `json:"correct"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Samples     map[string]int         `json:"samples,omitempty"`
	Wrong       []string               `json:"wrong,omitempty"`
	Notes       []string               `json:"notes,omitempty"`
}

var workloads = map[string]func(*env, *runResult) error{
	wlStatic: runStatic,
	wlStream: runStream,
	wlLSM:    runLSM,
	wlRouted: runRouted,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: static_tree, stream_window, durable_lsm, routed_serve or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", referenceSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "traced run: write the spans to this file at exit")
		out      = flag.String("out", "", "append each run as one JSON line to this file")
		tmp      = flag.String("tmp", "", "directory under which stores and WALs are created and removed (default: the system's)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments and exit")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as the harness defines it and exit")
	)
	flag.Parse()
	if *contract {
		fmt.Print(contractJSON())
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	var spans []span
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, tmp: *tmp, nproc: runtime.GOMAXPROCS(0), clk: wallClock{}, yard: &yardLog{}}
		if e.traced {
			e.tr = newTracer()
		}
		res := newResult(name, e.traced)
		mark := markProcess()
		if err := run(e, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if e.traced {
			_, gcPauseMS := mark.since()
			res.set("process.gc_pause_ms", gcPauseMS)
			res.set("process.peak_rss_mb", peakRSSMB())
		}
		if m := res.missing(); m != "" {
			res.wrong("no value for: %s", m)
		}
		if e.tr != nil {
			spans = append(spans, e.tr.spans...)
		}
		res.print(os.Stdout)
		if *out != "" {
			if err := appendRecord(*out, takeFingerprint(e), res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		fmt.Println(res.contractLine())
	}
	if *traceOut != "" && *trace == 1 {
		if err := writeSpans(*traceOut, spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return 0
}

func appendRecord(path string, fp fingerprint, r *runResult) error {
	rec := runRecord{
		Fingerprint: fp, Workload: r.Workload, Traced: r.Traced,
		Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}, Samples: r.Samples, Wrong: r.Wrong, Notes: r.Notes,
	}
	for name, v := range r.Metrics {
		d, _ := findMetric(name)
		rec.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
