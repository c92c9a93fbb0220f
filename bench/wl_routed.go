package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/server"
)

// routed_serve: the serving tier in one process. A router and two nodes,
// each holding all four shards, beside one unsharded baseline node, all on
// loopback TCP. HTTP/JSON, scatter-gather and the buffer pool's hit path
// dominate: the index fits its cache.
const (
	routedSeries      = 40_000
	routedLen         = 128
	routedShards      = 4
	routedCacheBytes  = 256 << 20
	routedRate        = 120 // exact queries per second offered in the traced run's open loops, frozen
	routedGate        = 50  // identity-gate probes, half exact, half range
	routedRounds      = 7   // replay passes of an untraced run
	routedQueries     = 320 // exact queries every pass replays, half near, half far
	routedInsertEvery = 100 * time.Millisecond
	routedInsertBatch = 32
	routedInserts     = 150 // closed-loop insert batches behind the ingest rate
	routedBatchSize   = 32  // queries per /api/query/batch call
)

// node is one in-process coconut-server on a loopback listener.
type node struct {
	name    string
	url     string
	build   server.BuildResponse
	setupS  float64 // wall time of the whole set-up, and of the build call in it
	buildS  float64
	ran     longOp // when the set-up ran
	srv     *server.Server
	httpSrv *http.Server
}

// wire is the harness's HTTP client: nproc keep-alive connections per host.
type wire struct {
	client *http.Client
}

// post sends one JSON request and decodes the answer; in a traced run the
// encode, the round trip and the decode are spans under parent.
func (w *wire) post(tr *tracer, parent int32, req int64, url string, in, out any) error {
	id := tr.begin(parent, "client.encode", req)
	body, err := json.Marshal(in)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(parent, "http.roundtrip", req)
	resp, err := w.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(id)
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	id = tr.begin(parent, "client.decode", req)
	err = json.Unmarshal(raw, out)
	tr.end(id)
	return err
}

func (w *wire) get(url string, out any) error {
	resp, err := w.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// counters scrapes a /metrics page into name -> value (labels dropped, so
// only unlabelled series are meaningful).
func (w *wire) counters(url string) (map[string]float64, error) {
	resp, err := w.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at Shutdown
	return srv, "http://" + ln.Addr().String(), nil
}

func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
}

// startNode starts a server, has it generate the dataset and builds the
// index: a cluster build holding every shard, or the unsharded baseline.
func startNode(w *wire, name, dir string, seed int64, clusterNode bool) (*node, error) {
	t0 := time.Now()
	s := server.New()
	s.SetStorageRoot(filepath.Join(dir, name))
	httpSrv, url, err := serve(s.Handler())
	if err != nil {
		return nil, err
	}
	n := &node{name: name, url: url, srv: s, httpSrv: httpSrv}
	var ds server.DatasetResponse
	if err := w.post(nil, 0, 0, url+"/api/datasets", server.DatasetRequest{Kind: "astronomy", N: routedSeries, Len: routedLen, Seed: seed}, &ds); err != nil {
		n.stop()
		return nil, err
	}
	req := server.BuildRequest{Dataset: ds.ID, Variant: "CTreeFull", CacheBytes: routedCacheBytes, Compress: true, Storage: "file"}
	if clusterNode {
		req.ClusterShards = routedShards
		for i := 0; i < routedShards; i++ {
			req.NodeShards = append(req.NodeShards, i)
		}
	}
	tb := time.Now()
	if err := w.post(nil, 0, 0, url+"/api/build", req, &n.build); err != nil {
		n.stop()
		return nil, err
	}
	n.buildS = time.Since(tb).Seconds()
	n.setupS = time.Since(t0).Seconds()
	return n, nil
}

func (n *node) stop() {
	shutdown(n.httpSrv)
	n.srv.Close()
}

func fromResults(rs []server.QueryResult) []neighbor {
	out := make([]neighbor, len(rs))
	for i, r := range rs {
		out[i] = neighbor{ID: int(r.ID), TS: r.TS, Dist: r.Dist}
	}
	return out
}

// identical reports whether two answers agree bit for bit.
func identical(a, b []server.QueryResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].TS != b[i].TS || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// routedResponse is the router's answer: a node-shaped response with the
// router's own trace beside it.
type routedResponse struct {
	server.QueryResponse
	RouterTrace *cluster.RouterTrace `json:"router_trace,omitempty"`
}

// interval is when one operation ran, for overlap tests.
type interval struct{ start, end time.Time }

func runRouted(e *env, res *runResult) error {
	root := e.tr.begin(0, wlRouted, 0)
	defer e.tr.end(root)
	dir, err := os.MkdirTemp(e.tmp, "routed-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w := &wire{client: &http.Client{Transport: &http.Transport{MaxIdleConns: 4 * e.nproc, MaxIdleConnsPerHost: e.nproc}}}
	defer w.client.CloseIdleConnections()

	// Set-up: three nodes build the same seeded dataset, then the router
	// verifies its topology against them.
	setup := e.tr.begin(root, "setup", 0)
	dataSeed := e.rng(1).Int63()
	var nodes []*node
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	for _, name := range []string{"a", "b", "baseline"} {
		id := e.tr.begin(setup, "node."+name, 0)
		var n *node
		ran, err := e.yard.timeLong(func() (err error) {
			n, err = startNode(w, name, dir, dataSeed, name != "baseline")
			return err
		})
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("node %s: %w", name, err)
		}
		n.ran = ran
		nodes = append(nodes, n)
	}
	a, b, baseline := nodes[0], nodes[1], nodes[2]
	shards := a.build.NodeShards
	t0 := time.Now()
	router, err := cluster.New(cluster.Topology{Shards: routedShards, SeriesLen: routedLen, Nodes: []cluster.Node{
		{Name: a.name, URL: a.url, Build: a.build.ID, Shards: shards},
		{Name: b.name, URL: b.url, Build: b.build.ID, Shards: shards},
	}}, cluster.Options{})
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	defer router.Close()
	routerSrv, routerURL, err := serve(router.Handler())
	if err != nil {
		return err
	}
	defer shutdown(routerSrv)
	routerS := time.Since(t0).Seconds()
	e.tr.end(setup)
	res.ops(3, 0)

	// What the serving nodes wrote and hold, before any query.
	var written, pages, held float64
	for _, n := range []*node{a, b} {
		var st server.StatsResponse
		if err := w.get(n.url+"/api/stats?build="+n.build.ID, &st); err != nil {
			return err
		}
		written += float64(st.Aggregate.SeqWrites + st.Aggregate.RandWrites)
		pages += float64(n.build.IndexPages)
		held += float64(n.build.Count)
	}
	res.set("write_amp", written*pageSize/(held*routedLen*8))
	res.set("index_bytes_per_series", pages*pageSize/held)

	// The harness regenerates the dataset the nodes generated, for the
	// oracle and for "near" queries.
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: routedSeries, Len: routedLen, Seed: dataSeed})
	data := make([][]float64, ds.Count())
	for i := range data {
		s, _ := ds.Get(i)
		data[i] = s
	}
	znormed := znormAll(data)
	nQ := e.scaled(routedQueries)
	farQ := randomWalks(e.rng(2), (nQ+1)/2, routedLen)
	nearQ := nearQueries(e.rng(3), data, (nQ+1)/2)
	query := func(i int) []float64 {
		if i%2 == 0 {
			return nearQ[(i/2)%len(nearQ)]
		}
		return farQ[(i/2)%len(farQ)]
	}
	exactReq := func(i int) server.QueryRequest {
		return server.QueryRequest{Series: query(i), K: topK, Exact: true}
	}
	approxReq := func(i int) server.QueryRequest {
		return server.QueryRequest{Series: query(i), K: topK}
	}
	// routedExact is the operation of every exact-query phase: a wrong
	// answer shape is a failed operation.
	routedExact := func(tr *tracer, parent int32) func(_, i int) error {
		return func(_, i int) error {
			var out routedResponse
			if err := w.post(tr, parent, int64(i), routerURL+"/api/query", exactReq(i), &out); err != nil {
				return err
			}
			if len(out.Results) != topK {
				return fmt.Errorf("routed exact query %d: %d results, want %d", i, len(out.Results), topK)
			}
			return nil
		}
	}

	// Replay: one client sends the same exact queries through the router,
	// pass after pass. The first pass starts on cold caches; what the router
	// reports its queries read from storage is the workload's I/O cost (warm,
	// it is 0).
	rounds := routedRounds
	if e.traced {
		rounds = 1
	}
	var rp replay
	var coldCost float64
	exact := make([][]neighbor, nQ)
	for r := 0; r < rounds; r++ {
		ph := e.tr.begin(root, "replay", int64(r))
		pass := make([]timed, nQ)
		for i := range pass {
			var out routedResponse
			id := e.tr.begin(ph, "query.routed", int64(i))
			pass[i], err = e.yard.timeOp(func() error {
				return w.post(e.tr, id, int64(i), routerURL+"/api/query", exactReq(i), &out)
			})
			e.tr.end(id)
			if err == nil && len(out.Results) != topK {
				err = fmt.Errorf("routed exact query %d: %d results, want %d", i, len(out.Results), topK)
			}
			if err != nil {
				return err
			}
			if r == 0 {
				exact[i] = fromResults(out.Results)
				coldCost += out.Cost
			}
		}
		e.tr.end(ph)
		rp = append(rp, pass)
	}
	res.ops(int64(rounds*nQ), 0)

	// The set-ups, against the yardstick readings around them.
	var setupS []float64
	for _, n := range nodes {
		setupS = append(setupS, n.setupS/e.yard.settle(n.ran).slow)
	}
	res.set("setup_s", median(setupS)+routerS)
	res.note("node set-ups: 3; the first uncalibrated %.4g s, box slowdown %.3f", a.setupS, e.yard.settle(a.ran).slow)

	// Identity gate and oracle: routed answers equal the baseline node's bit
	// for bit, and both equal a brute-force scan.
	gate := e.tr.begin(root, "identity-gate", 0)
	gateOK := true
	for i := 0; i < routedGate; i++ {
		req := exactReq(i)
		var all []neighbor
		if i%2 == 1 {
			// A range query around the query's own 10th neighbour.
			all = scan(znormed, nil, req.Series, nil)
			req = server.QueryRequest{Series: req.Series, Eps: all[topK-1].Dist * 1.05}
		}
		var routed routedResponse
		var direct server.QueryResponse
		if err := w.post(e.tr, gate, int64(i), routerURL+"/api/query", req, &routed); err != nil {
			return err
		}
		req.Build = baseline.build.ID
		if err := w.post(e.tr, gate, int64(i), baseline.url+"/api/query", req, &direct); err != nil {
			return err
		}
		if !identical(routed.Results, direct.Results) {
			res.wrong("routed probe %d differs from the baseline node's answer", i)
			gateOK = false
			continue
		}
		if all == nil {
			err = checkKNN(fromResults(routed.Results), scan(znormed, nil, req.Series, nil), topK)
		} else {
			err = checkRange(fromResults(routed.Results), all, req.Eps)
		}
		if err != nil {
			res.wrong("routed probe %d: %v", i, err)
			gateOK = false
		}
	}
	e.tr.end(gate)
	res.ops(2*routedGate, 0)
	if !gateOK {
		return nil
	}
	res.setQueries(rp)
	res.set("io_cost_per_query", coldCost/float64(nQ))

	// Recall of routed approximate answers against the replayed exact ones.
	var found, of int
	for i := 0; i < nQ; i++ {
		var ap routedResponse
		if err := w.post(nil, 0, 0, routerURL+"/api/query", approxReq(i), &ap); err != nil {
			return err
		}
		f, o := recallAt(exact[i], fromResults(ap.Results))
		found, of = found+f, of+o
	}
	res.ops(int64(nQ), 0)
	res.set("approx_recall_at_10", float64(found)/float64(of))

	// Ingest: one connection posts batches of new series through the router,
	// closed loop. It changes what the serving nodes hold and the baseline
	// node gets none of it, so it runs after everything that compares the two.
	// The rate is not calibrated: an insert rewrites leaf pages of both
	// replicas' page files and waits on the kernel more than it computes, and
	// its time does not follow the yardstick (7.4 to 9.8 ms per batch over
	// readings of 1.0 to 2.0; README.md).
	ingest := func() error {
		n := e.scaled(routedInserts)
		late := randomWalks(e.rng(5), routedInsertBatch*n, routedLen)
		ph := e.tr.begin(root, "ingest", 0)
		defer e.tr.end(ph)
		batches := make([]timed, n)
		for i := range batches {
			req := server.InsertRequest{Series: late[i*routedInsertBatch : (i+1)*routedInsertBatch], TS: 1}
			var out server.InsertResponse
			var err error
			batches[i], err = e.yard.timeOp(func() error {
				return w.post(e.tr, ph, int64(i), routerURL+"/api/insert", req, &out)
			})
			if err == nil && out.Inserted != routedInsertBatch {
				err = fmt.Errorf("insert %d: %d of %d series inserted", i, out.Inserted, routedInsertBatch)
			}
			if err != nil {
				return err
			}
		}
		res.ops(int64(n), 0)
		res.set("ingest_series_per_s", routedInsertBatch*1e3/replay{batches}.rawMedian())
		res.note("ingest: %d batches of %d, uncalibrated; box slowdown %.3f", n, routedInsertBatch, replay{batches}.boxSlowdown())
		return nil
	}
	if !e.traced {
		return ingest()
	}
	res.set("build_s", a.buildS)
	res.set("harness.box_slowdown", rp.boxSlowdown())

	// The traced run's own phases.
	//   open loop:   exact queries at the frozen rate, at most nproc in
	//                flight, timed from due time
	//   closed loop: nproc connections
	period := time.Second / routedRate
	openPhase := e.tr.begin(root, "open-loop", 0)
	ol := openLoop(e.clk, e.nproc, period, int(e.share(0.12)/period), routedExact(e.tr, openPhase))
	e.tr.end(openPhase)
	cl := e.closed(root, "closed-loop", "query.routed", e.nproc, e.share(0.05), 0, routedExact(nil, 0))
	if res.loop("open loop", ol) && res.loop("closed loop", cl) {
		res.setTail("loadgen.lag_p99_ms", msOf(ol.Lag))
		if lag, p50 := res.Metrics["loadgen.lag_p99_ms"], median(msOf(ol.Lat)); lag >= p50 {
			res.note("open-loop generator ran late: lag tail %.3f ms is not below query p50 %.3f ms", lag, p50)
		}
		res.set("parallel.qps_at_nproc", float64(len(cl.Lat))/cl.Wall.Seconds())
	}
	apx := e.closed(root, "approx", "query.approx", 1, e.share(0.05), 0, func(_, i int) error {
		var out routedResponse
		return w.post(nil, 0, 0, routerURL+"/api/query", approxReq(i), &out)
	})
	if res.loop("approx", apx) {
		res.setMedian("approx_p50_ms", msOf(apx.Lat))
	}
	if err := routedLayers(e, res, root, w, routerURL, a, baseline, exactReq, routedExact); err != nil {
		return err
	}
	if err := ingest(); err != nil {
		return err
	}

	// Mixed: the open loop again while one connection trickles inserts
	// through the router. This runs last: the baseline node gets no inserts.
	mixed := e.tr.begin(root, "mixed", 0)
	nMixed := int(e.share(0.15) / period)
	nInserts := int(time.Duration(nMixed) * period / routedInsertEvery)
	late := randomWalks(e.rng(4), routedInsertBatch*nInserts, routedLen)
	queryAt := make([]interval, nMixed)
	insertAt := make([]interval, nInserts)
	var ins loopResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ins = openLoop(e.clk, 1, routedInsertEvery, nInserts, func(_, i int) error {
			req := server.InsertRequest{Series: late[i*routedInsertBatch : (i+1)*routedInsertBatch], TS: 1}
			var out server.InsertResponse
			insertAt[i].start = time.Now()
			err := w.post(e.tr, mixed, int64(i), routerURL+"/api/insert", req, &out)
			insertAt[i].end = time.Now()
			if err == nil && out.Inserted != routedInsertBatch {
				err = fmt.Errorf("insert %d: %d of %d series inserted", i, out.Inserted, routedInsertBatch)
			}
			return err
		})
	}()
	op := routedExact(e.tr, mixed)
	mq := openLoop(e.clk, e.nproc, period, nMixed, func(c, i int) error {
		queryAt[i].start = time.Now()
		err := op(c, i)
		queryAt[i].end = time.Now()
		return err
	})
	wg.Wait()
	e.tr.end(mixed)
	if res.loop("mixed inserts", ins) && res.loop("mixed queries", mq) {
		res.setTail("mixed_query_p99_ms", msOf(mq.Lat))
		res.setTail("insert_p99_ms", msOf(ins.Lat))
		res.set("server.write_lock_wait_share", slowBesideShare(queryAt, insertAt))
	}
	return nil
}

// slowBesideShare is the share of queries that took more than three times
// the median service time while an insert was in flight.
func slowBesideShare(queries, inserts []interval) float64 {
	if len(queries) == 0 {
		return 0
	}
	service := make([]float64, len(queries))
	for i, q := range queries {
		service[i] = q.end.Sub(q.start).Seconds()
	}
	limit := 3 * median(append([]float64(nil), service...))
	slow := 0
	for i, q := range queries {
		if service[i] <= limit {
			continue
		}
		for _, in := range inserts {
			if in.start.Before(q.end) && q.start.Before(in.end) {
				slow++
				break
			}
		}
	}
	return float64(slow) / float64(len(queries))
}

// routedLayers takes the serving tier's per-layer numbers in a traced run.
func routedLayers(e *env, res *runResult, root int32, w *wire, routerURL string, a, baseline *node,
	exactReq func(int) server.QueryRequest, routedExact func(*tracer, int32) func(int, int) error) error {
	share := e.share(0.07)
	direct := func(traceParam string, walls *[]float64, traces *[]server.QueryResponse) func(_, i int) error {
		return func(_, i int) error {
			req := exactReq(i)
			req.Build = baseline.build.ID
			var out server.QueryResponse
			if err := w.post(nil, 0, 0, baseline.url+"/api/query"+traceParam, req, &out); err != nil {
				return err
			}
			if out.Trace != nil {
				*walls = append(*walls, float64(out.Trace.WallMicros)/1e3)
				*traces = append(*traces, out)
			}
			return nil
		}
	}
	// Direct to the baseline node, without and with the program's own trace.
	var walls []float64
	var traces []server.QueryResponse
	plainDirect := closedLoop(e.clk, 1, share, 0, direct("", nil, nil))
	tracedDirect := e.closed(root, "direct-traced", "query.direct", 1, share, 0, direct("?trace=1", &walls, &traces))
	// Through the router, every second query under the harness's spans.
	before, err := w.counters(routerURL + "/metrics")
	if err != nil {
		return err
	}
	mark := markProcess()
	plainMS, spannedMS, routed := e.overheadLoop(root, "routed", 2*share, 0, func(tr *tracer, span int32, i int) error {
		return routedExact(tr, span)(0, i)
	})
	mallocs, _ := mark.since()
	after, err := w.counters(routerURL + "/metrics")
	if err != nil {
		return err
	}
	ok := res.loop("direct", plainDirect) && res.loop("direct traced", tracedDirect) && res.loop("routed", routed)
	if !ok || len(walls) == 0 {
		return nil
	}
	directP50 := median(msOf(plainDirect.Lat))
	tracedP50 := median(msOf(tracedDirect.Lat))
	routedP50 := median(plainMS)
	res.setMedian("server.direct_exact_p50_ms", msOf(plainDirect.Lat))
	res.set("obs.trace_overhead_share", tracedP50/directP50-1)
	res.set("server.node_wall_p50_ms", median(append([]float64(nil), walls...)))
	res.set("server.http_overhead_p50_ms", tracedP50-res.Metrics["server.node_wall_p50_ms"])
	res.set("cluster.routed_minus_direct_p50_ms", routedP50-directP50)
	res.set("harness.trace_overhead_share", median(spannedMS)/routedP50-1)
	n := float64(len(routed.Lat))
	res.set("process.allocs_per_query", float64(mallocs)/n)
	res.set("cluster.fanout_calls_per_query", (after["coconut_router_node_calls_total"]-before["coconut_router_node_calls_total"])/n)
	res.set("cluster.retries", after["coconut_router_retries_total"])
	res.set("cluster.hedges", after["coconut_router_hedges_total"])

	// Batched exact queries straight to node a.
	batch := server.BatchQueryRequest{Build: a.build.ID, K: topK, Exact: true}
	for i := 0; i < routedBatchSize; i++ {
		batch.Queries = append(batch.Queries, exactReq(i).Series)
	}
	bl := e.closed(root, "batch", "query.batch", 1, e.share(0.05), 0, func(_, i int) error {
		var out server.BatchQueryResponse
		if err := w.post(nil, 0, 0, a.url+"/api/query/batch", batch, &out); err != nil {
			return err
		}
		if out.Queries != routedBatchSize {
			return fmt.Errorf("batch answered %d of %d queries", out.Queries, routedBatchSize)
		}
		return nil
	})
	if res.loop("batch", bl) {
		res.set("shard.batch_qps", float64(len(bl.Lat)*routedBatchSize)/bl.Wall.Seconds())
	}

	// The serving node's buffer pool after all of the above: the hit path.
	var st server.StatsResponse
	if err := w.get(a.url+"/api/stats?build="+a.build.ID, &st); err != nil {
		return err
	}
	res.set("bufpool.hit_ratio", st.Cache.HitRatio)
	res.set("bufpool.evictions", float64(st.Cache.Evictions))

	if err := runProbes(e, res, root, sampleOf(exactReq, probeSample), routedLen); err != nil {
		return err
	}
	// Latency budget: what the probes' unit costs explain of the node's own
	// wall time, from the counts in the program's per-query traces.
	m := res.Metrics
	var explained, wall float64
	for _, t := range traces {
		tr := t.Trace
		c := tr.Candidates
		explained += m["index.table_fill_ns"] +
			float64(c.Seen)*(m["index.mindist_ns"]+m["record.packed_view_ns_per_entry"]) +
			float64(c.Verified+c.Abandoned)*m["simd.sqdist_encoded_ns"] +
			float64(tr.IO.CacheHits)*m["bufpool.warm_pin_ns"] +
			float64(tr.IO.CacheMisses)*m["bufpool.miss_fetch_ns"]
		wall += float64(tr.WallMicros) * 1e3
	}
	if wall > 0 {
		res.set("budget.unexplained_share", 1-explained/wall)
	}
	return nil
}

// sampleOf collects n query series as the probes' input.
func sampleOf(exactReq func(int) server.QueryRequest, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = exactReq(i).Series
	}
	return out
}
