// Command coconut-bench regenerates the experiment tables of the
// reproduction: E1–E12, the paper's static and streaming scenarios, their
// ablations and the recommender table. Each experiment's function in
// internal/workload says what it reproduces and the shape the paper expects;
// README.md cites the paper.
//
// Usage:
//
//	coconut-bench                 # run everything at the default scale
//	coconut-bench -exp E1,E6      # run selected experiments
//	coconut-bench -quick          # reduced sizes for a fast smoke run
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/simd"
	"repro/internal/workload"
)

// experiments is every experiment -exp accepts, in run order; run returns
// the text it prints.
var experiments = []struct {
	id  string
	run func(cfg workload.RunConfig) (string, error)
}{
	{"E1", func(cfg workload.RunConfig) (string, error) {
		return text(workload.E1Construction(cfg.Scale, cfg.E1Sizes))
	}},
	{"E2", func(cfg workload.RunConfig) (string, error) {
		return text(workload.E2Query(cfg.Scale, cfg.E2N, cfg.E2Queries))
	}},
	{"E3", func(cfg workload.RunConfig) (string, error) {
		return text(workload.E3Materialization(cfg.E3Scale, cfg.E3N, cfg.E3Counts))
	}},
	{"E4", func(cfg workload.RunConfig) (string, error) {
		return text(workload.E4Memory(cfg.Scale, cfg.E4N, cfg.E4Fracs))
	}},
	{"E5", func(cfg workload.RunConfig) (string, error) {
		fill, err := text(workload.E5FillFactor(cfg.E5Scale, cfg.E5N, cfg.E5Inserts, cfg.E5Queries, cfg.E5Fills))
		if err != nil {
			return "", err
		}
		growth, err := text(workload.E5GrowthFactor(cfg.Scale, cfg.E5N, cfg.E5Queries, cfg.E5Growths))
		return fill + growth, err
	}},
	{"E6", func(cfg workload.RunConfig) (string, error) {
		return text(workload.E6Streaming(cfg.Scale, cfg.E6Batches, cfg.E6BatchSize, cfg.E6Buffer, cfg.E6Queries))
	}},
	{"E7", func(cfg workload.RunConfig) (string, error) {
		t, art, err := workload.E7Heatmap(cfg.Scale, cfg.E7N, cfg.E7Queries)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(t.String() + "\n")
		for _, line := range art {
			b.WriteString(line + "\n")
		}
		b.WriteString("\n")
		return b.String(), nil
	}},
	{"E8", func(workload.RunConfig) (string, error) {
		return text(workload.E8Recommender(), nil)
	}},
	{"E9", func(cfg workload.RunConfig) (string, error) {
		return text(workload.E9Storage(cfg.Scale, cfg.E9Sizes))
	}},
	{"E10", func(cfg workload.RunConfig) (string, error) {
		return text(workload.E10Ablation(cfg.Scale, cfg.E2N, 100, 64))
	}},
	{"E11", func(cfg workload.RunConfig) (string, error) {
		return text(workload.E11Cardinality(cfg.Scale, cfg.E2N/2, 10, []int{1, 2, 4, 6, 8}))
	}},
	{"E12", func(cfg workload.RunConfig) (string, error) {
		return text(workload.E12Recall(cfg.Scale, cfg.E2N/2, 50))
	}},
}

// text renders a table as it is printed: followed by a blank line.
func text(t *workload.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String() + "\n", nil
}

func main() {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids or 'all'; known: "+strings.Join(ids, ","))
		quick   = flag.Bool("quick", false, "reduced sizes for a fast smoke run")
		kernels = flag.String("kernels", "", "force a distance-kernel implementation: avx2, neon, or scalar (default: auto-detect)")
	)
	flag.Parse()

	if *kernels != "" {
		if err := simd.Select(*kernels); err != nil {
			fmt.Fprintf(os.Stderr, "coconut-bench: %v\n", err)
			os.Exit(2)
		}
	}
	fmt.Printf("distance kernels: %s\n", simd.Active())

	cfg := workload.DefaultRunConfig()
	if *quick {
		cfg.E1Sizes = []int{1000, 2000}
		cfg.E2N, cfg.E2Queries = 2000, 10
		cfg.E3N = 2000
		cfg.E4N = 2000
		cfg.E5N, cfg.E5Inserts, cfg.E5Queries = 2000, 200, 10
		cfg.E6Batches, cfg.E6BatchSize, cfg.E6Queries = 20, 50, 4
		cfg.E7N, cfg.E7Queries = 2000, 5
		cfg.E9Sizes = []int{1000, 2000}
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "coconut-bench: unknown experiment %q (known: %s)\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	for _, e := range experiments {
		if *expFlag != "all" && !want[e.id] {
			continue
		}
		out, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coconut-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
	}
}
