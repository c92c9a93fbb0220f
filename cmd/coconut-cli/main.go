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
//	         (unset flags take the server's resolution; the server checks them)
//	insert   -build build-1 -n 100 [-template supernova] [-ts 7] [-len 0]
//	query    -build build-1 -template supernova [-k 5] [-exact] [-min 0 -max 99] [-len 0]
//	explain  (query's flags) [-units] [-no-heatmap]
//	stats    -build build-1
//	recommend -streaming -queries 500 -memfrac 0.1 [-tight] [-smallwin]
//	heatmap  -build build-1
//
// insert, query and explain generate series of the build's length, which
// they read from GET /api/stats, or from a coconut-router's GET
// /api/cluster/topology; -len overrides it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/obs"
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

// statusError is a response the server refused.
type statusError struct {
	code int
	body []byte
}

func (e *statusError) Error() string { return fmt.Sprintf("server %d: %s", e.code, e.body) }

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
		return &statusError{code: resp.StatusCode, body: bytes.TrimSpace(raw)}
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
	kind := fs.String("kind", "astronomy", "astronomy, randomwalk, finance or ecg")
	n := fs.Int("n", 10000, "series count")
	length := fs.Int("len", 256, "series length")
	frac := fs.Float64("frac", 0.05, "event/anomaly fraction (astronomy, finance, ecg)")
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

// build asks for one index build. A setting left unset takes what the
// server resolves 0 or empty to (docs/API.md's build table), and the server
// alone checks the request: a bad value comes back as its 400.
func build(base string, args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	ds := fs.String("dataset", "", "dataset id (required)")
	variant := fs.String("variant", "CTree", "ADS+, ADSFull, CTree, CTreeFull, CLSM, CLSMFull")
	segments := fs.Int("segments", 0, "iSAX segments (0 = the index default)")
	bits := fs.Int("bits", 0, "cardinality bits per segment (0 = the index default)")
	fill := fs.Float64("fill", 0, "CTree leaf fill factor (0 = the index default)")
	growth := fs.Int("growth", 0, "CLSM growth factor (0 = the index default)")
	mem := fs.Int("mem", 0, "construction memory budget in bytes (0 = the index default)")
	shards := fs.Int("shards", 0, "shard count (0 or 1 = unsharded, N > 1 hash-partitions)")
	par := fs.Int("parallelism", 0, "per-query worker pool (0 or 1 = serial, -1 = one per CPU)")
	cache := fs.Int64("cache", 0, "buffer-pool bytes (0 = uncached)")
	walMode := fs.String("wal", "", "CLSM durability: batched, sync, or off (needs the server's -wal root; empty = batched when the root is set)")
	compactWorkers := fs.Int("compact-workers", 0, "CLSM background-merge workers (0 = inline merges)")
	storage := fs.String("storage", "", "storage backend: sim (simulated disk) or file (real page files; needs the server's -storage root; empty = file when the root is set)")
	fs.Parse(args)
	if *ds == "" {
		return fmt.Errorf("build: -dataset is required")
	}
	var out server.BuildResponse
	err := call("POST", base+"/api/build", server.BuildRequest{
		Dataset: *ds, Variant: *variant, Segments: *segments, Bits: *bits,
		FillFactor: *fill, GrowthFactor: *growth, MemBudget: *mem,
		Shards: *shards, Parallelism: *par, CacheBytes: *cache,
		Durability: *walMode, CompactionWorkers: *compactWorkers,
		Storage: *storage,
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
	length := fs.Int("len", 0, "series length (0 = the build's)")
	ts := fs.Int64("ts", 0, "ingestion timestamp for the batch")
	seed := fs.Int64("seed", 1, "pattern seed")
	fs.Parse(args)
	if *buildID == "" {
		return fmt.Errorf("insert: -build is required")
	}
	if *n < 1 || *n > 1<<16 {
		return fmt.Errorf("insert: -n must be in [1, 65536], got %d", *n)
	}
	batch, err := templateSeries(base, *buildID, *template, *length, *n, *seed)
	if err != nil {
		return fmt.Errorf("insert: %v", err)
	}
	out, err := insertBatch(base, *buildID, batch, *ts)
	if err != nil {
		return err
	}
	pretty(out)
	return nil
}

// insertBatch posts batch in order, in as few /api/insert requests as keep
// each within server.MaxRequestValues, and sums their responses: the count
// is the last one's, and the batch is synced only if every request was.
func insertBatch(base, build string, batch [][]float64, ts int64) (server.InsertResponse, error) {
	per := max(1, server.MaxRequestValues/max(1, len(batch[0])))
	total := server.InsertResponse{Synced: true}
	for len(batch) > 0 {
		part := batch[:min(per, len(batch))]
		batch = batch[len(part):]
		var out server.InsertResponse
		if err := call("POST", base+"/api/insert", server.InsertRequest{
			Build: build, Series: part, TS: ts,
		}, &out); err != nil {
			return total, fmt.Errorf("insert: after %d series: %w", total.Inserted, err)
		}
		total.Inserted += out.Inserted
		total.Count = out.Count
		total.Synced = total.Synced && out.Synced
		total.Millis += out.Millis
	}
	return total, nil
}

// queryFlags declares the flags query and explain share on fs. After
// fs.Parse, request returns the query they describe to the server at base,
// or an error naming cmd.
func queryFlags(fs *flag.FlagSet, cmd string) (request func(base string) (server.QueryRequest, error)) {
	buildID := fs.String("build", "", "build id (required)")
	template := fs.String("template", "supernova", "query pattern: supernova, binary-star, earthquake, randomwalk")
	length := fs.Int("len", 0, "query length (0 = the build's)")
	k := fs.Int("k", 1, "neighbors")
	exact := fs.Bool("exact", false, "exact (vs approximate) search")
	minTS := fs.Int64("min", -1, "window lower bound (with -max)")
	maxTS := fs.Int64("max", -1, "window upper bound (with -min)")
	seed := fs.Int64("seed", 1, "pattern seed")
	return func(base string) (server.QueryRequest, error) {
		if *buildID == "" {
			return server.QueryRequest{}, fmt.Errorf("%s: -build is required", cmd)
		}
		q, err := templateSeries(base, *buildID, *template, *length, 1, *seed)
		if err != nil {
			return server.QueryRequest{}, fmt.Errorf("%s: %v", cmd, err)
		}
		req := server.QueryRequest{Build: *buildID, Series: q[0], K: *k, Exact: *exact}
		// A negative bound is unset, and one bound without the other is refused.
		if (*minTS < 0) != (*maxTS < 0) {
			return req, fmt.Errorf("%s: -min and -max go together", cmd)
		}
		if *minTS >= 0 {
			req.MinTS, req.MaxTS = minTS, maxTS
		}
		return req, nil
	}
}

func query(base string, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	request := queryFlags(fs, "query")
	fs.Parse(args)
	req, err := request(base)
	if err != nil {
		return err
	}
	var out server.QueryResponse
	if err := call("POST", base+"/api/query", req, &out); err != nil {
		return err
	}
	pretty(out)
	return nil
}

// explainCmd runs one traced query and renders the execution trace —
// per-kind probe/skip counts, candidate verification, pages released
// undecoded, phase timings, per-query I/O — followed by the build's access
// heat map. Against a coconut-router, which keeps the nodes' traces on the
// nodes and serves no heat map, it renders the router's fan-out trace.
func explainCmd(base string, args []string) error {
	return explain(os.Stdout, base, args)
}

func explain(w io.Writer, base string, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	request := queryFlags(fs, "explain")
	units := fs.Bool("units", false, "also list per-unit probe records (bounds per run/partition/leaf/shard)")
	noHeat := fs.Bool("no-heatmap", false, "skip the access heat map")
	fs.Parse(args)
	req, err := request(base)
	if err != nil {
		return err
	}
	req.Trace = true
	var out struct {
		server.QueryResponse
		RouterTrace *cluster.RouterTrace `json:"router_trace"`
	}
	if err := call("POST", base+"/api/query", req, &out); err != nil {
		return err
	}
	for i, r := range out.Results {
		fmt.Fprintf(w, "#%d id=%d ts=%d dist=%.6f\n", i+1, r.ID, r.TS, r.Dist)
	}
	switch {
	case out.Trace != nil:
		printTrace(w, out.Trace, *units)
	case out.RouterTrace != nil:
		rt := out.RouterTrace
		fmt.Fprintf(w, "\nrouter: calls=%d retries=%d hedges=%d cost=%.1f seq_io=%d rand_io=%d wall=%dus\n",
			rt.Calls, rt.Retries, rt.Hedges, rt.Cost, rt.SeqIO, rt.RandIO, rt.WallMicros)
		fmt.Fprintln(w, "(a router serves no node trace and no heat map: explain against a node to drill in)")
		return nil
	default:
		return fmt.Errorf("explain: server returned no trace (older server?)")
	}
	if !*noHeat {
		fmt.Fprintln(w)
		return heatmap(w, base, []string{"-build", req.Build})
	}
	return nil
}

// printTrace renders a node's query trace.
func printTrace(w io.Writer, tr *obs.TraceSnapshot, units bool) {
	fmt.Fprintf(w, "\nmode=%s k=%d kernel=%s wall=%dus planned_skips=%d\n",
		tr.Mode, tr.K, tr.Kernel, tr.WallMicros, tr.PlannedSkips)
	for _, kc := range tr.Kinds {
		fmt.Fprintf(w, "  %-10s probed=%-6d skipped=%d\n", kc.Kind, kc.Probed, kc.Skipped)
	}
	c := tr.Candidates
	fmt.Fprintf(w, "candidates: seen=%d verified=%d abandoned=%d pruned=%d\n",
		c.Seen, c.Verified, c.Abandoned, c.Pruned)
	// Probed pages a tree's resident symbols pruned whole: read (they are
	// in io below) but released without a byte of them decoded.
	fmt.Fprintf(w, "pages released undecoded: %d\n", tr.UndecodedPages)
	for _, ph := range tr.Phases {
		fmt.Fprintf(w, "  phase %-8s %dus\n", ph.Name, ph.Micros)
	}
	x := tr.IO
	fmt.Fprintf(w, "io: seq_r=%d rand_r=%d seq_w=%d rand_w=%d cache_hit=%d cache_miss=%d cost=%.1f\n",
		x.SeqReads, x.RandReads, x.SeqWrites, x.RandWrites, x.CacheHits, x.CacheMisses, x.Cost)
	if units {
		for _, u := range tr.Units {
			state := "probe"
			if u.Skipped {
				state = "skip"
			}
			fmt.Fprintf(w, "  unit %-10s idx=%-5d bound_sq=%-12.4f %s\n", u.Kind, u.Idx, u.BoundSq, state)
		}
		if tr.UnitsTruncated > 0 {
			fmt.Fprintf(w, "  ... %d more units (detail capped)\n", tr.UnitsTruncated)
		}
	}
}

// templates are the series patterns insert and query draw from: a
// generator template and the noise added to it.
var templates = map[string]struct {
	tmpl  gen.Template
	noise float64
}{
	"supernova":   {gen.TemplateSupernova, 0.1},
	"binary-star": {gen.TemplateBinaryStar, 0.1},
	"earthquake":  {gen.TemplateEarthquake, 0.1},
	"randomwalk":  {gen.TemplateSupernova, 10},
}

// templateSeries generates n series from a named pattern, of length points,
// or with length 0 of the build's series length, read from the server at
// base.
func templateSeries(base, build, template string, length, n int, seed int64) ([][]float64, error) {
	t, ok := templates[template]
	if !ok {
		return nil, fmt.Errorf("unknown template %q", template)
	}
	if length == 0 {
		var err error
		if length, err = seriesLen(base, build); err != nil {
			return nil, fmt.Errorf("reading the build's series length (or pass -len): %w", err)
		}
	}
	raw := gen.TemplateQueries(t.tmpl, length, n, t.noise, seed)
	out := make([][]float64, len(raw))
	for i, ser := range raw {
		out[i] = ser
	}
	return out, nil
}

// seriesLen reads the series length of build from GET /api/stats, or, where
// that is 404, from a router's GET /api/cluster/topology.
func seriesLen(base, build string) (int, error) {
	var st server.StatsResponse
	err := call("GET", base+"/api/stats?build="+build, nil, &st)
	var refused *statusError
	if errors.As(err, &refused) && refused.code == http.StatusNotFound {
		var topo cluster.TopologyResponse
		if call("GET", base+"/api/cluster/topology", nil, &topo) == nil {
			return topo.SeriesLen, nil
		}
	}
	return st.SeriesLen, err
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
	return heatmap(os.Stdout, base, args)
}

func heatmap(w io.Writer, base string, args []string) error {
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
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "accesses=%d seq_frac=%.2f avg_jump=%.1f file_swaps=%d write_share=%.2f\n",
		out.Jumps.Accesses, out.Jumps.SeqFrac, out.Jumps.AvgJump, out.Jumps.FileSwaps, out.Jumps.WriteShare)
	return nil
}
