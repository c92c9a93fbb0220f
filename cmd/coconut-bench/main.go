// Command coconut-bench regenerates every experiment table and figure of
// the reproduction (see DESIGN.md section 5 and EXPERIMENTS.md).
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
	"strconv"
	"strings"

	"repro/internal/simd"
	"repro/internal/workload"
)

// knownExperiments lists every experiment id -exp accepts, in run order.
var knownExperiments = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
	"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17",
}

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment ids or 'all'; known: "+strings.Join(knownExperiments, ","))
		quick    = flag.Bool("quick", false, "reduced sizes for a fast smoke run")
		shards   = flag.String("shards", "", "comma-separated shard counts for the E13 sharding experiment (default 1,2,4,8)")
		cache    = flag.String("cache", "", "comma-separated cache sizes in KB for the E14 buffer-pool experiment, 0 = uncached (default 0,256,4096,65536)")
		workers  = flag.String("compact-workers", "", "comma-separated background-merge worker counts for the E15 ingest experiment, 0 = inline (default 0,2)")
		storage  = flag.String("storage", "", "directory for the E16 storage-backend experiment's page files (default: a temp directory, removed afterwards)")
		kernels  = flag.String("kernels", "", "force a distance-kernel implementation: avx2, neon, or scalar (default: auto-detect)")
		compress = flag.Bool("compress", false, "store on-disk pages (tree leaves, LSM runs) in the packed encoding in every experiment build; results are identical, I/O cost drops")
	)
	flag.Parse()

	if *kernels != "" {
		if err := simd.Select(*kernels); err != nil {
			fmt.Fprintf(os.Stderr, "coconut-bench: %v\n", err)
			os.Exit(2)
		}
	}
	fmt.Printf("distance kernels: %s; compressed runs: %v\n", simd.Active(), *compress)

	cfg := workload.DefaultRunConfig()
	for _, sc := range []*workload.Scale{&cfg.Scale, &cfg.E3Scale, &cfg.E5Scale} {
		sc.Compress = *compress
	}
	if *quick {
		cfg.E1Sizes = []int{1000, 2000}
		cfg.E2N, cfg.E2Queries = 2000, 10
		cfg.E3N = 2000
		cfg.E4N = 2000
		cfg.E5N, cfg.E5Inserts, cfg.E5Queries = 2000, 200, 10
		cfg.E6Batches, cfg.E6BatchSize, cfg.E6Queries = 20, 50, 4
		cfg.E7N, cfg.E7Queries = 2000, 5
		cfg.E9Sizes = []int{1000, 2000}
		cfg.E13N, cfg.E13Queries = 2000, 16
		cfg.E13Shards = []int{1, 2, 4}
		cfg.E14N, cfg.E14Queries = 2000, 8
		cfg.E14CacheKB = []int{0, 64, 4096}
		cfg.E15N, cfg.E15Queries = 2000, 4
		cfg.E16N, cfg.E16Queries = 2000, 4
		cfg.E17N, cfg.E17Queries = 2000, 8
	}
	cfg.E16Dir = *storage
	if *shards != "" {
		var counts []int
		for _, part := range strings.Split(*shards, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				// A shard count of 0 or less is meaningless — reject loudly
				// rather than building a degenerate experiment.
				fmt.Fprintf(os.Stderr, "coconut-bench: -shards values must be positive integers, got %q\n", part)
				os.Exit(2)
			}
			counts = append(counts, n)
		}
		cfg.E13Shards = counts
	}
	if *cache != "" {
		var sizes []int
		for _, part := range strings.Split(*cache, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 0 {
				fmt.Fprintf(os.Stderr, "coconut-bench: -cache values must be >= 0 KB (0 = uncached), got %q\n", part)
				os.Exit(2)
			}
			sizes = append(sizes, n)
		}
		cfg.E14CacheKB = sizes
	}
	if *workers != "" {
		var counts []int
		for _, part := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 0 {
				fmt.Fprintf(os.Stderr, "coconut-bench: -compact-workers values must be >= 0 (0 = inline), got %q\n", part)
				os.Exit(2)
			}
			counts = append(counts, n)
		}
		cfg.E15Workers = counts
	}

	known := map[string]bool{}
	for _, id := range knownExperiments {
		known[id] = true
	}
	want := map[string]bool{}
	if *expFlag == "all" {
		for _, id := range knownExperiments {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !known[id] {
				fmt.Fprintf(os.Stderr, "coconut-bench: unknown experiment %q (known: %s)\n", id, strings.Join(knownExperiments, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}

	if err := run(cfg, want); err != nil {
		fmt.Fprintf(os.Stderr, "coconut-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg workload.RunConfig, want map[string]bool) error {
	sc := cfg.Scale
	emit := func(t *workload.Table) { fmt.Println(t.String()) }

	if want["E1"] {
		t, err := workload.E1Construction(sc, cfg.E1Sizes)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E2"] {
		t, err := workload.E2Query(sc, cfg.E2N, cfg.E2Queries)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E3"] {
		t, err := workload.E3Materialization(cfg.E3Scale, cfg.E3N, cfg.E3Counts)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E4"] {
		t, err := workload.E4Memory(sc, cfg.E4N, cfg.E4Fracs)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E5"] {
		t, err := workload.E5FillFactor(cfg.E5Scale, cfg.E5N, cfg.E5Inserts, cfg.E5Queries, cfg.E5Fills)
		if err != nil {
			return err
		}
		emit(t)
		t, err = workload.E5GrowthFactor(sc, cfg.E5N, cfg.E5Queries, cfg.E5Growths)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E6"] {
		t, err := workload.E6Streaming(sc, cfg.E6Batches, cfg.E6BatchSize, cfg.E6Buffer, cfg.E6Queries)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E7"] {
		t, art, err := workload.E7Heatmap(sc, cfg.E7N, cfg.E7Queries)
		if err != nil {
			return err
		}
		emit(t)
		for _, line := range art {
			fmt.Println(line)
		}
		fmt.Println()
	}
	if want["E8"] {
		emit(workload.E8Recommender())
	}
	if want["E9"] {
		t, err := workload.E9Storage(sc, cfg.E9Sizes)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E10"] {
		t, err := workload.E10Ablation(sc, cfg.E2N, 100, 64)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E11"] {
		t, err := workload.E11Cardinality(sc, cfg.E2N/2, 10, []int{1, 2, 4, 6, 8})
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E12"] {
		t, err := workload.E12Recall(sc, cfg.E2N/2, 50)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E13"] {
		t, err := workload.E13Sharding(sc, cfg.E13N, cfg.E13Queries, cfg.E13K, cfg.E13Shards)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E14"] {
		t, err := workload.E14CacheSweep(sc, cfg.E14N, cfg.E14Queries, cfg.E14K, cfg.E14CacheKB)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E15"] {
		t, err := workload.E15Ingest(sc, cfg.E15N, cfg.E15Queries, cfg.E15K, cfg.E15Workers)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E16"] {
		t, err := workload.E16Backend(sc, cfg.E16N, cfg.E16Queries, cfg.E16K, cfg.E16Dir)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want["E17"] {
		t, err := workload.E17Planner(sc, cfg.E17N, cfg.E17Queries, cfg.E17K)
		if err != nil {
			return err
		}
		emit(t)
	}
	return nil
}
