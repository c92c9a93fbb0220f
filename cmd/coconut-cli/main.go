// Command coconut-cli is the exploration client of Coconut Palm: the CLI
// stand-in for the demo's GUI (Figure 2). It talks to a running
// coconut-server over the REST API and supports the full demo workflow —
// generating datasets, building and comparing index variants, drawing
// (generating) query patterns, issuing approximate/exact windowed queries,
// consulting the recommender, and printing access-pattern heat maps.
//
// Usage:
//
//	coconut-cli [-server URL] <command> [flags]
//
// Commands:
//
//	health                              check the server
//	dataset  -kind astronomy -n 10000 -len 256
//	build    -dataset ds-1 -variant CTree [-fill 0.9] [-growth 4] [-shards 4] [-cache 4194304]
//	         [-wal batched|sync|off] [-compact-workers 2] [-storage sim|file]
//	         [-compress]
//	insert   -build build-1 -n 100 [-template supernova] [-ts 7]
//	query    -build build-1 -template supernova [-k 5] [-exact] [-min 0 -max 99]
//	recommend -streaming -queries 500 -memfrac 0.1 [-tight] [-smallwin]
//	heatmap  -build build-1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/gen"
	"repro/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	serverURL := "http://localhost:8734"
	args := os.Args[1:]
	if args[0] == "-server" && len(args) >= 2 {
		serverURL = args[1]
		args = args[2:]
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "health":
		err = health(serverURL)
	case "dataset":
		err = dataset(serverURL, rest)
	case "build":
		err = build(serverURL, rest)
	case "insert":
		err = insertCmd(serverURL, rest)
	case "query":
		err = query(serverURL, rest)
	case "explain":
		err = explainCmd(serverURL, rest)
	case "stats":
		err = statsCmd(serverURL, rest)
	case "recommend":
		err = recommend(serverURL, rest)
	case "heatmap":
		err = heatmapCmd(serverURL, rest)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "coconut-cli: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: coconut-cli [-server URL] <health|dataset|build|insert|query|explain|stats|recommend|heatmap> [flags]")
}

// statsCmd prints a build's I/O and buffer-pool accounting.
func statsCmd(base string, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	buildID := fs.String("build", "", "build id (required)")
	fs.Parse(args)
	if *buildID == "" {
		return fmt.Errorf("stats: -build is required")
	}
	var out server.StatsResponse
	if err := call("GET", base+"/api/stats?build="+*buildID, nil, &out); err != nil {
		return err
	}
	pretty(out)
	return nil
}

func call(method, url string, body, out any) error {
	var rdr io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rdr = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

func pretty(v any) {
	buf, _ := json.MarshalIndent(v, "", "  ")
	fmt.Println(string(buf))
}

func health(base string) error {
	var out map[string]string
	if err := call("GET", base+"/api/health", nil, &out); err != nil {
		return err
	}
	pretty(out)
	return nil
}

func dataset(base string, args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	kind := fs.String("kind", "astronomy", "astronomy or randomwalk")
	n := fs.Int("n", 10000, "series count")
	length := fs.Int("len", 256, "series length")
	frac := fs.Float64("frac", 0.05, "fraction of injected event templates (astronomy)")
	seed := fs.Int64("seed", 42, "generator seed")
	fs.Parse(args)
	var out server.DatasetResponse
	err := call("POST", base+"/api/datasets", server.DatasetRequest{
		Kind: *kind, N: *n, Len: *length, FracEvent: *frac, Seed: *seed,
	}, &out)
	if err != nil {
		return err
	}
	pretty(out)
	return nil
}

func build(base string, args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	ds := fs.String("dataset", "", "dataset id (required)")
	variant := fs.String("variant", "CTree", "ADS+, ADSFull, CTree, CTreeFull, CLSM, CLSMFull")
	segments := fs.Int("segments", 16, "iSAX segments")
	bits := fs.Int("bits", 8, "cardinality bits per segment")
	fill := fs.Float64("fill", 1.0, "CTree leaf fill factor")
	growth := fs.Int("growth", 4, "CLSM growth factor")
	mem := fs.Int("mem", 1<<20, "construction memory budget (bytes)")
	shards := fs.Int("shards", 0, "shard count (0 = server default, 1 = unsharded, N > 1 hash-partitions)")
	par := fs.Int("parallelism", 0, "per-query worker pool (0 = server default, 1 = serial, -1 = one per CPU)")
	cache := fs.Int64("cache", 0, "buffer-pool bytes (0 = server default, -1 = force uncached)")
	walMode := fs.String("wal", "", "CLSM durability: batched, sync, or off (needs the server's -wal root; empty = batched when the root is set)")
	compactWorkers := fs.Int("compact-workers", 0, "CLSM background-merge workers (0 = server default, -1 = force inline)")
	storage := fs.String("storage", "", "storage backend: sim (simulated disk) or file (real page files; needs the server's -storage root; empty = server default)")
	compress := fs.Bool("compress", false, "store on-disk pages (tree leaves, LSM runs) in the packed encoding; answers identical, I/O cost lower")
	fs.Parse(args)
	if *ds == "" {
		return fmt.Errorf("build: -dataset is required")
	}
	switch *walMode {
	case "", "batched", "sync", "off":
	default:
		return fmt.Errorf("build: -wal must be batched, sync, or off, got %q", *walMode)
	}
	switch *storage {
	case "", "sim", "file":
	default:
		return fmt.Errorf("build: -storage must be sim or file, got %q", *storage)
	}
	if *compactWorkers < -1 || *compactWorkers > 64 {
		return fmt.Errorf("build: -compact-workers must be in [-1, 64] (-1 = force inline, 0 = server default), got %d", *compactWorkers)
	}
	// Validate client-side so a bad flag fails fast with a clear message
	// instead of a server 400.
	if *shards < 0 {
		return fmt.Errorf("build: -shards must be >= 0 (0 = server default, N > 1 shards), got %d", *shards)
	}
	if *cache < -1 {
		return fmt.Errorf("build: -cache must be >= -1 (-1 = force uncached, 0 = server default), got %d", *cache)
	}
	var out server.BuildResponse
	err := call("POST", base+"/api/build", server.BuildRequest{
		Dataset: *ds, Variant: *variant, Segments: *segments, Bits: *bits,
		FillFactor: *fill, GrowthFactor: *growth, MemBudget: *mem,
		Shards: *shards, Parallelism: *par, CacheBytes: *cache,
		Durability: *walMode, CompactionWorkers: *compactWorkers,
		Storage: *storage, Compress: *compress,
	}, &out)
	if err != nil {
		return err
	}
	pretty(out)
	return nil
}

// insertCmd streams generated series into a live build — the durable
// ingest path (POST /api/insert).
func insertCmd(base string, args []string) error {
	fs := flag.NewFlagSet("insert", flag.ExitOnError)
	buildID := fs.String("build", "", "build id (required)")
	n := fs.Int("n", 100, "series to insert")
	template := fs.String("template", "randomwalk", "series pattern: supernova, binary-star, earthquake, randomwalk")
	length := fs.Int("len", 256, "series length (must match the dataset)")
	ts := fs.Int64("ts", 0, "ingestion timestamp for the batch")
	seed := fs.Int64("seed", 1, "pattern seed")
	fs.Parse(args)
	if *buildID == "" {
		return fmt.Errorf("insert: -build is required")
	}
	if *n < 1 || *n > 1<<16 {
		return fmt.Errorf("insert: -n must be in [1, 65536], got %d", *n)
	}
	var tmpl gen.Template
	noise := 0.1
	switch *template {
	case "supernova":
		tmpl = gen.TemplateSupernova
	case "binary-star":
		tmpl = gen.TemplateBinaryStar
	case "earthquake":
		tmpl = gen.TemplateEarthquake
	case "randomwalk":
		tmpl, noise = gen.TemplateSupernova, 10
	default:
		return fmt.Errorf("insert: unknown template %q", *template)
	}
	raw := gen.TemplateQueries(tmpl, *length, *n, noise, *seed)
	batch := make([][]float64, len(raw))
	for i, ser := range raw {
		batch[i] = ser
	}
	var out server.InsertResponse
	if err := call("POST", base+"/api/insert", server.InsertRequest{
		Build: *buildID, Series: batch, TS: *ts,
	}, &out); err != nil {
		return err
	}
	pretty(out)
	return nil
}

func query(base string, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	buildID := fs.String("build", "", "build id (required)")
	template := fs.String("template", "supernova", "query pattern: supernova, binary-star, earthquake, randomwalk")
	length := fs.Int("len", 256, "query length (must match the dataset)")
	k := fs.Int("k", 1, "neighbors")
	exact := fs.Bool("exact", false, "exact (vs approximate) search")
	minTS := fs.Int64("min", -1, "window lower bound (with -max)")
	maxTS := fs.Int64("max", -1, "window upper bound (with -min)")
	seed := fs.Int64("seed", 1, "pattern seed")
	fs.Parse(args)
	if *buildID == "" {
		return fmt.Errorf("query: -build is required")
	}
	q, err := templateQuery(*template, *length, *seed)
	if err != nil {
		return fmt.Errorf("query: %v", err)
	}
	req := server.QueryRequest{Build: *buildID, Series: q, K: *k, Exact: *exact}
	if err := window(&req, minTS, maxTS); err != nil {
		return fmt.Errorf("query: %v", err)
	}
	var out server.QueryResponse
	if err := call("POST", base+"/api/query", req, &out); err != nil {
		return err
	}
	pretty(out)
	return nil
}

// explainCmd runs one traced query and renders the execution trace — plan
// cache outcome, per-kind probe/skip counts, candidate verification, pages
// released undecoded, phase timings, per-query I/O — followed by the
// build's access heat map.
func explainCmd(base string, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	buildID := fs.String("build", "", "build id (required)")
	template := fs.String("template", "supernova", "query pattern: supernova, binary-star, earthquake, randomwalk")
	length := fs.Int("len", 256, "query length (must match the dataset)")
	k := fs.Int("k", 1, "neighbors")
	exact := fs.Bool("exact", false, "exact (vs approximate) search")
	minTS := fs.Int64("min", -1, "window lower bound (with -max)")
	maxTS := fs.Int64("max", -1, "window upper bound (with -min)")
	seed := fs.Int64("seed", 1, "pattern seed")
	units := fs.Bool("units", false, "also list per-unit probe records (bounds per run/partition/leaf/shard)")
	noHeat := fs.Bool("no-heatmap", false, "skip the access heat map")
	fs.Parse(args)
	if *buildID == "" {
		return fmt.Errorf("explain: -build is required")
	}
	q, err := templateQuery(*template, *length, *seed)
	if err != nil {
		return fmt.Errorf("explain: %v", err)
	}
	req := server.QueryRequest{Build: *buildID, Series: q, K: *k, Exact: *exact, Trace: true}
	if err := window(&req, minTS, maxTS); err != nil {
		return fmt.Errorf("explain: %v", err)
	}
	var out server.QueryResponse
	if err := call("POST", base+"/api/query", req, &out); err != nil {
		return err
	}
	for i, r := range out.Results {
		fmt.Printf("#%d id=%d ts=%d dist=%.6f\n", i+1, r.ID, r.TS, r.Dist)
	}
	tr := out.Trace
	if tr == nil {
		return fmt.Errorf("explain: server returned no trace (older server?)")
	}
	fmt.Printf("\nmode=%s k=%d kernel=%s wall=%dus planned_skips=%d\n",
		tr.Mode, tr.K, tr.Kernel, tr.WallMicros, tr.PlannedSkips)
	for _, kc := range tr.Kinds {
		fmt.Printf("  %-10s probed=%-6d skipped=%d\n", kc.Kind, kc.Probed, kc.Skipped)
	}
	c := tr.Candidates
	fmt.Printf("candidates: seen=%d verified=%d abandoned=%d pruned=%d\n",
		c.Seen, c.Verified, c.Abandoned, c.Pruned)
	// Probed pages a tree's resident symbols pruned whole: read (they are
	// in io below) but released without a byte of them decoded.
	fmt.Printf("pages released undecoded: %d\n", tr.UndecodedPages)
	for _, ph := range tr.Phases {
		fmt.Printf("  phase %-8s %dus\n", ph.Name, ph.Micros)
	}
	io := tr.IO
	fmt.Printf("io: seq_r=%d rand_r=%d seq_w=%d rand_w=%d cache_hit=%d cache_miss=%d cost=%.1f\n",
		io.SeqReads, io.RandReads, io.SeqWrites, io.RandWrites, io.CacheHits, io.CacheMisses, io.Cost)
	if *units {
		for _, u := range tr.Units {
			state := "probe"
			if u.Skipped {
				state = "skip"
			}
			fmt.Printf("  unit %-10s idx=%-5d bound_sq=%-12.4f %s\n", u.Kind, u.Idx, u.BoundSq, state)
		}
		if tr.UnitsTruncated > 0 {
			fmt.Printf("  ... %d more units (detail capped)\n", tr.UnitsTruncated)
		}
	}
	if !*noHeat {
		fmt.Println()
		if err := heatmapCmd(base, []string{"-build", *buildID}); err != nil {
			return err
		}
	}
	return nil
}

// window puts the -min/-max time window on req. The flags go together: a
// negative value is unset, and one bound without the other is refused.
func window(req *server.QueryRequest, minTS, maxTS *int64) error {
	if (*minTS < 0) != (*maxTS < 0) {
		return fmt.Errorf("-min and -max go together")
	}
	if *minTS >= 0 {
		req.MinTS, req.MaxTS = minTS, maxTS
	}
	return nil
}

// templateQuery generates one query series from a named pattern.
func templateQuery(template string, length int, seed int64) ([]float64, error) {
	switch template {
	case "supernova":
		return gen.TemplateQueries(gen.TemplateSupernova, length, 1, 0.1, seed)[0], nil
	case "binary-star":
		return gen.TemplateQueries(gen.TemplateBinaryStar, length, 1, 0.1, seed)[0], nil
	case "earthquake":
		return gen.TemplateQueries(gen.TemplateEarthquake, length, 1, 0.1, seed)[0], nil
	case "randomwalk":
		return gen.TemplateQueries(gen.TemplateSupernova, length, 1, 10, seed)[0], nil
	}
	return nil, fmt.Errorf("unknown template %q", template)
}

func recommend(base string, args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	streaming := fs.Bool("streaming", false, "data arrives continuously")
	queries := fs.Int("queries", 100, "expected query count")
	update := fs.Float64("update", 0, "update rate [0,1]")
	mem := fs.Float64("memfrac", 0.1, "memory budget as fraction of data")
	tight := fs.Bool("tight", false, "storage is a first-order cost")
	smallwin := fs.Bool("smallwin", false, "queries favor narrow recent windows")
	fs.Parse(args)
	var out server.RecommendResponse
	err := call("POST", base+"/api/recommend", server.RecommendRequest{
		Streaming: *streaming, ExpectedQueries: *queries, UpdateRate: *update,
		MemoryBudgetFrac: *mem, StorageTight: *tight, SmallWindows: *smallwin,
	}, &out)
	if err != nil {
		return err
	}
	fmt.Printf("recommendation: %s\n", out.Variant)
	for i, r := range out.Rationale {
		fmt.Printf("  %d. %s\n", i+1, r)
	}
	return nil
}

func heatmapCmd(base string, args []string) error {
	fs := flag.NewFlagSet("heatmap", flag.ExitOnError)
	buildID := fs.String("build", "", "build id (required)")
	fs.Parse(args)
	if *buildID == "" {
		return fmt.Errorf("heatmap: -build is required")
	}
	var out server.HeatmapResponse
	if err := call("GET", base+"/api/heatmap?build="+*buildID, nil, &out); err != nil {
		return err
	}
	for _, line := range out.ASCII {
		fmt.Println(line)
	}
	fmt.Printf("accesses=%d seq_frac=%.2f avg_jump=%.1f file_swaps=%d write_share=%.2f\n",
		out.Jumps.Accesses, out.Jumps.SeqFrac, out.Jumps.AvgJump, out.Jumps.FileSwaps, out.Jumps.WriteShare)
	return nil
}
