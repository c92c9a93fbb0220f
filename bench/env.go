package main

import (
	"bufio"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/simd"
)

// referenceSeconds is the run length the phase sizes were chosen for;
// operation counts of fixed-count passes scale with seconds/referenceSeconds
// so that a run measures for about the time it was given. Data sizes never
// scale.
const referenceSeconds = 20

// env is what a workload run is given: its seed, its time, where it may
// write, and the tracer of a traced run.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	tmp     string  // stores and WALs go under os.MkdirTemp(tmp, ...)
	nproc   int     // client goroutines/connections, and the parallel pass's workers
	tr      *tracer // nil in an untraced run
	clk     clock
	yard    *yardLog
}

// share is the part f of the run's measuring time.
func (e *env) share(f float64) time.Duration {
	return time.Duration(f * e.seconds * float64(time.Second))
}

// scaled scales an operation count chosen for the reference run length.
func (e *env) scaled(n int) int {
	v := int(float64(n) * e.seconds / referenceSeconds)
	if v < 1 {
		v = 1
	}
	return v
}

// rng returns the generator of one named input stream; the same seed gives
// the same inputs, and streams do not share state.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// closed runs a closed-loop phase under a phase span, each call under a
// span of its own. Phases of an untraced run call closedLoop directly.
func (e *env) closed(parent int32, phase, call string, clients int, budget time.Duration, maxOps int, op func(client, i int) error) loopResult {
	ph := e.tr.begin(parent, phase, 0)
	defer e.tr.end(ph)
	return closedLoop(e.clk, clients, budget, maxOps, func(c, i int) error {
		id := e.tr.begin(ph, call, int64(i))
		err := op(c, i)
		e.tr.end(id)
		return err
	})
}

// overheadLoop measures what the harness's own spans cost: one client runs
// op in a closed loop and every second call runs under spans, so both
// latency sets see the same caches and the same drift. op gets the tracer
// and the span to hang its own spans under, or nil and 0.
func (e *env) overheadLoop(parent int32, phase string, budget time.Duration, maxOps int, op func(tr *tracer, span int32, i int) error) (plainMS, spannedMS []float64, l loopResult) {
	ph := e.tr.begin(parent, phase, 0)
	defer e.tr.end(ph)
	l = closedLoop(e.clk, 1, budget, maxOps, func(_, i int) error {
		t := time.Now()
		if i%2 == 0 {
			err := op(nil, 0, i)
			if err == nil {
				plainMS = append(plainMS, time.Since(t).Seconds()*1e3)
			}
			return err
		}
		id := e.tr.begin(ph, phase+".call", int64(i))
		err := op(e.tr, id, i)
		e.tr.end(id)
		if err == nil {
			spannedMS = append(spannedMS, time.Since(t).Seconds()*1e3)
		}
		return err
	})
	return plainMS, spannedMS, l
}

// fingerprint identifies the machine and the run's sizes; results from
// different fingerprints are not comparable.
type fingerprint struct {
	Cores      int     `json:"cores"`
	CPUModel   string  `json:"cpu_model"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"simd_kernel"`
	Seconds    float64 `json:"seconds"`
	// Scale is the one factor applied to the per-phase operation counts.
	Scale  float64        `json:"scale"`
	Sizes  map[string]int `json:"sizes"`
	Commit string         `json:"git_commit"`
	Seed   int64          `json:"seed"`
}

func takeFingerprint(e *env) fingerprint {
	return fingerprint{
		Cores:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     simd.Active(),
		Seconds:    e.seconds,
		Scale:      e.seconds / referenceSeconds,
		Sizes:      dataSizes,
		Commit:     gitCommit(),
		Seed:       e.seed,
	}
}

// sameMachine reports whether two results may be compared: everything but
// the commit and the seed must agree.
func (f fingerprint) sameMachine(o fingerprint) bool {
	if f.Cores != o.Cores || f.CPUModel != o.CPUModel || f.GOMAXPROCS != o.GOMAXPROCS ||
		f.GoVersion != o.GoVersion || f.Kernel != o.Kernel || f.Seconds != o.Seconds || len(f.Sizes) != len(o.Sizes) {
		return false
	}
	for k, v := range f.Sizes {
		if o.Sizes[k] != v {
			return false
		}
	}
	return true
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// processMark measures allocations and GC pauses from a point on.
type processMark struct{ ms runtime.MemStats }

func markProcess() *processMark {
	m := &processMark{}
	runtime.ReadMemStats(&m.ms)
	return m
}

func (m *processMark) since() (mallocs uint64, gcPauseMS float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.Mallocs - m.ms.Mallocs, float64(now.PauseTotalNs-m.ms.PauseTotalNs) / 1e6
}
