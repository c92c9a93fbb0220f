package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/shard"
)

// Options tunes the router's fan-out behavior. The zero value gets sane
// defaults from New.
type Options struct {
	// Timeout bounds each node request attempt (default 5s).
	Timeout time.Duration
	// HedgeAfter launches a duplicate request on another replica when a
	// fan-out call is still outstanding after this long; the fastest
	// response wins. 0 disables hedging.
	HedgeAfter time.Duration
	// Retries is the per-shard retry budget beyond the first attempt
	// (default 2). Each retry goes to a different replica when one exists.
	Retries int
	// Backoff is the base delay before a retry, doubling per attempt
	// (default 25ms).
	Backoff time.Duration
	// MaxInflightInserts bounds admitted insert batches; batches beyond it
	// are rejected with ErrBusy (default 4).
	MaxInflightInserts int
	// HealthInterval is the background health-check period. 0 disables the
	// loop (failures still demote nodes; a later successful call restores
	// them).
	HealthInterval time.Duration
	// Parallelism bounds batch-query fan-out workers (default: GOMAXPROCS
	// via parallel.Resolve).
	Parallelism int
	// Client overrides the HTTP client (tests inject httptest transports).
	Client *http.Client
}

// ErrBusy is returned (and surfaced as HTTP 429) when the insert admission
// limit is reached — backpressure, not failure.
var ErrBusy = errors.New("cluster: too many in-flight insert batches")

// nodeState is the router's mutable view of one topology node.
type nodeState struct {
	node Node
	// unhealthy nodes are skipped while any healthy replica covers the
	// shard; they remain last-resort candidates so a cluster without its
	// health loop (or with every replica flapping) keeps answering.
	healthy atomic.Bool
	// draining nodes receive no new queries; in-flight ones finish.
	// Replica writes still flow to them so they stay consistent.
	draining atomic.Bool
	// stale marks a replica that rejected a write (missed an earlier one):
	// it would serve divergent answers, so it leaves read rotation until an
	// operator rebuilds it. Sticky for the router's lifetime.
	stale    atomic.Bool
	fails    atomic.Int64
	mu       sync.Mutex
	lastErr  string
	lastSeen time.Time
}

func (n *nodeState) setErr(err error) {
	n.mu.Lock()
	n.lastErr = err.Error()
	n.mu.Unlock()
}

func (n *nodeState) snapshotErr() (string, time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastErr, n.lastSeen
}

// Router owns the placement map and fans queries over the cluster's index
// nodes, merging their exact squared sums through the same deterministic
// collectors in-process sharded search uses. See the package comment for
// the determinism and failover model.
type Router struct {
	topo   Topology
	opts   Options
	client *http.Client
	nodes  []*nodeState
	// replicas[si] is the precomputed replica set (node indices) of shard si.
	replicas [][]int
	rr       atomic.Uint64

	insertMu  sync.Mutex
	insertSem chan struct{}
	// count is the cluster-wide series count = next global ID to assign.
	count atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	calls   atomic.Int64
	retries atomic.Int64
	hedges  atomic.Int64

	metrics *routerMetrics
}

// New validates the topology, contacts every node to verify its build
// matches its topology entry (shard count, shard set, series length), and
// derives the cluster-wide series count (max MaxID across nodes + 1).
// Startup is strict: an unreachable or mismatched node is an error — a
// router must never begin serving over a placement map it cannot verify.
func New(topo Topology, opts Options) (*Router, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 25 * time.Millisecond
	}
	if opts.MaxInflightInserts <= 0 {
		opts.MaxInflightInserts = 4
	}
	r := &Router{
		topo:      topo,
		opts:      opts,
		client:    opts.Client,
		insertSem: make(chan struct{}, opts.MaxInflightInserts),
		stop:      make(chan struct{}),
	}
	r.metrics = newRouterMetrics(r)
	if r.client == nil {
		r.client = &http.Client{}
	}
	r.replicas = make([][]int, topo.Shards)
	for si := 0; si < topo.Shards; si++ {
		r.replicas[si] = topo.Replicas(si)
	}
	var maxID int64 = -1
	for _, n := range topo.Nodes {
		st := &nodeState{node: n}
		st.healthy.Store(true)
		r.nodes = append(r.nodes, st)
		info, err := r.fetchInfo(context.Background(), st)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %q: %w", n.Name, err)
		}
		if err := r.checkInfo(n, info); err != nil {
			return nil, err
		}
		if info.MaxID > maxID {
			maxID = info.MaxID
		}
	}
	r.count.Store(maxID + 1)
	if opts.HealthInterval > 0 {
		r.wg.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// checkInfo verifies a node's build agrees with its topology entry. The
// node may hold a superset of the shards the topology routes to it.
func (r *Router) checkInfo(n Node, info *server.ClusterInfoResponse) error {
	if info.ClusterShards != r.topo.Shards {
		return fmt.Errorf("cluster: node %q build %q has %d shards, topology says %d",
			n.Name, n.Build, info.ClusterShards, r.topo.Shards)
	}
	if info.SeriesLen != r.topo.SeriesLen {
		return fmt.Errorf("cluster: node %q build %q indexes length-%d series, topology says %d",
			n.Name, n.Build, info.SeriesLen, r.topo.SeriesLen)
	}
	owned := make(map[int]bool, len(info.NodeShards))
	for _, si := range info.NodeShards {
		owned[si] = true
	}
	for _, si := range n.Shards {
		if !owned[si] {
			return fmt.Errorf("cluster: node %q build %q does not hold shard %d (holds %v)",
				n.Name, n.Build, si, info.NodeShards)
		}
	}
	return nil
}

// Close stops the health loop and waits for it. In-flight queries are not
// interrupted.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Topology returns the router's placement map.
func (r *Router) Topology() Topology { return r.topo }

// Count returns the cluster-wide series count (the next global ID).
func (r *Router) Count() int64 { return r.count.Load() }

// Drain takes a node out of query rotation; in-flight queries finish and
// replica writes keep flowing so the node stays consistent for Undrain.
func (r *Router) Drain(name string) error {
	st := r.nodeByName(name)
	if st == nil {
		return fmt.Errorf("cluster: no node %q", name)
	}
	st.draining.Store(true)
	return nil
}

// Undrain returns a drained node to query rotation.
func (r *Router) Undrain(name string) error {
	st := r.nodeByName(name)
	if st == nil {
		return fmt.Errorf("cluster: no node %q", name)
	}
	st.draining.Store(false)
	return nil
}

func (r *Router) nodeByName(name string) *nodeState {
	for _, st := range r.nodes {
		if st.node.Name == name {
			return st
		}
	}
	return nil
}

// NodeStatus is one node's operational state for /api/cluster/topology.
type NodeStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Build    string `json:"build"`
	Shards   []int  `json:"shards"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	Stale    bool   `json:"stale"`
	Fails    int64  `json:"fails"`
	LastErr  string `json:"last_err,omitempty"`
}

// NodeStatuses snapshots every node's state, in topology order.
func (r *Router) NodeStatuses() []NodeStatus {
	out := make([]NodeStatus, len(r.nodes))
	for i, st := range r.nodes {
		lastErr, _ := st.snapshotErr()
		out[i] = NodeStatus{
			Name:     st.node.Name,
			URL:      st.node.URL,
			Build:    st.node.Build,
			Shards:   st.node.Shards,
			Healthy:  st.healthy.Load(),
			Draining: st.draining.Load(),
			Stale:    st.stale.Load(),
			Fails:    st.fails.Load(),
			LastErr:  lastErr,
		}
	}
	return out
}

// Stats aggregates a query's fan-out accounting: node calls issued
// (including retries and hedges) and the I/O the nodes charged.
type Stats struct {
	Calls   int64
	Retries int64
	Hedges  int64
	Cost    float64
	SeqIO   int64
	RandIO  int64
}

// --- HTTP plumbing -------------------------------------------------------

func (r *Router) postJSON(ctx context.Context, st *nodeState, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return r.post(ctx, st, path, body, resp)
}

// post sends body, a JSON request, to st's path and decodes the answer into
// resp; a status other than 200 is an error holding the node's text.
func (r *Router) post(ctx context.Context, st *nodeState, path string, body []byte, resp any) error {
	ctx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, st.node.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := r.client.Do(hreq)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, hres.Body)
		hres.Body.Close()
	}()
	if hres.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(hres.Body).Decode(&e)
		if e.Error == "" {
			e.Error = hres.Status
		}
		return fmt.Errorf("%s: %s", path, e.Error)
	}
	return json.NewDecoder(hres.Body).Decode(resp)
}

func (r *Router) fetchInfo(ctx context.Context, st *nodeState) (*server.ClusterInfoResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		st.node.URL+"/api/cluster/info?build="+st.node.Build, nil)
	if err != nil {
		return nil, err
	}
	hres, err := r.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, hres.Body)
		hres.Body.Close()
	}()
	if hres.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("info: %s", hres.Status)
	}
	var info server.ClusterInfoResponse
	if err := json.NewDecoder(hres.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

func (r *Router) noteFailure(st *nodeState, err error) {
	st.setErr(err)
	if st.fails.Add(1) >= 3 {
		st.healthy.Store(false)
	}
}

func (r *Router) noteSuccess(st *nodeState) {
	st.fails.Store(0)
	st.healthy.Store(true)
	st.mu.Lock()
	st.lastSeen = time.Now()
	st.mu.Unlock()
}

func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		for _, st := range r.nodes {
			if _, err := r.fetchInfo(context.Background(), st); err != nil {
				r.noteFailure(st, err)
			} else {
				r.noteSuccess(st)
			}
		}
	}
}

// --- scatter-gather ------------------------------------------------------

// pickReplica chooses a node for shard si, excluding the given node set.
// Healthy, non-draining, non-stale replicas rotate round-robin; when none
// qualifies, an unhealthy (but not draining/stale) replica is a last
// resort, so a cluster with a flapping health signal keeps answering.
// Returns -1 when every replica is excluded.
func (r *Router) pickReplica(si int, exclude map[int]bool) int {
	reps := r.replicas[si]
	off := int(r.rr.Add(1))
	fallback := -1
	for i := 0; i < len(reps); i++ {
		ni := reps[(off+i)%len(reps)]
		st := r.nodes[ni]
		if exclude[ni] || st.draining.Load() || st.stale.Load() {
			continue
		}
		if st.healthy.Load() {
			return ni
		}
		if fallback < 0 {
			fallback = ni
		}
	}
	return fallback
}

// gatherEvent is one fan-out completion or hedge-timer firing.
type gatherEvent struct {
	kind   int // 0 = call done, 1 = hedge timer
	node   int
	shards []int
	resp   *server.ClusterSearchResponse
	err    error
}

// gather covers every logical shard with at least one successful node
// response, folds the responses' (id, ts, distSq) triples into col on their
// exact squared sums, and returns col's results: one gather-and-merge body
// for every search mode, which differ only in the collector.
// Failed calls are retried on other replicas with exponential backoff under
// a per-shard budget of Retries+1 attempts; calls outstanding past
// HedgeAfter trigger a duplicate on another replica. Duplicate coverage is
// harmless (the merge collector dedups on identical values); an uncovered
// shard with no replica left fails the query loudly.
func (r *Router) gather(base server.ClusterSearchRequest, col *index.Collector) ([]index.Result, Stats, error) {
	var stats Stats
	nsh := r.topo.Shards
	uncovered := make(map[int]bool, nsh)
	for si := 0; si < nsh; si++ {
		uncovered[si] = true
	}
	attempts := make([]int, nsh) // launched attempts per shard (hedges excluded)
	failed := make([]map[int]bool, nsh)
	inflight := make([]map[int]bool, nsh)
	for si := range failed {
		failed[si] = make(map[int]bool)
		inflight[si] = make(map[int]bool)
	}

	// Every call sends exactly one done event and at most one hedge event;
	// per-shard attempts are bounded, so this capacity lets straggler
	// goroutines finish after gather returns without leaking.
	evCh := make(chan gatherEvent, 4*nsh*(r.opts.Retries+2)+len(r.nodes)+8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var timers []*time.Timer
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()
	outstanding := 0

	// launchCall issues one node request covering shards after an optional
	// backoff delay (slept inside the goroutine so the event loop never
	// blocks). Bookkeeping happens here, on the event-loop goroutine.
	launchCall := func(ni int, shards []int, delay time.Duration, hedged bool) {
		st := r.nodes[ni]
		for _, si := range shards {
			inflight[si][ni] = true
		}
		outstanding++
		stats.Calls++
		if hedged {
			stats.Hedges++
			r.hedges.Add(1)
		}
		r.calls.Add(1)
		if r.opts.HedgeAfter > 0 && !hedged {
			sh := append([]int(nil), shards...)
			nni := ni
			t := time.AfterFunc(delay+r.opts.HedgeAfter, func() {
				evCh <- gatherEvent{kind: 1, node: nni, shards: sh}
			})
			timers = append(timers, t)
		}
		req := base
		req.Build = st.node.Build
		req.Shards = shards
		go func() {
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					evCh <- gatherEvent{kind: 0, node: ni, shards: shards, err: ctx.Err()}
					return
				}
			}
			var resp server.ClusterSearchResponse
			err := r.postJSON(ctx, st, "/api/cluster/search", req, &resp)
			evCh <- gatherEvent{kind: 0, node: ni, shards: shards, resp: &resp, err: err}
		}()
	}

	// assign groups shards by chosen replica and launches one call per
	// node. A shard with no pickable replica but a call still in flight
	// simply waits; with nothing in flight either, the query fails.
	assign := func(shards []int, delay time.Duration, hedged bool) error {
		byNode := make(map[int][]int)
		for _, si := range shards {
			exclude := make(map[int]bool, len(failed[si])+len(inflight[si]))
			for ni := range failed[si] {
				exclude[ni] = true
			}
			for ni := range inflight[si] {
				exclude[ni] = true
			}
			ni := r.pickReplica(si, exclude)
			if ni < 0 {
				if hedged || len(inflight[si]) > 0 {
					continue // covered by an outstanding call; not fatal
				}
				return fmt.Errorf("cluster: shard %d: no replica available%s", si, r.lastShardError(failed[si]))
			}
			if !hedged {
				if attempts[si] >= r.opts.Retries+1 {
					if len(inflight[si]) > 0 {
						continue
					}
					return fmt.Errorf("cluster: shard %d: retry budget exhausted after %d attempts%s",
						si, attempts[si], r.lastShardError(failed[si]))
				}
				attempts[si]++
			}
			byNode[ni] = append(byNode[ni], si)
		}
		for ni, sis := range byNode {
			launchCall(ni, sis, delay, hedged)
		}
		return nil
	}

	all := make([]int, nsh)
	for si := range all {
		all[si] = si
	}
	if err := assign(all, 0, false); err != nil {
		return nil, stats, err
	}

	for outstanding > 0 && len(uncovered) > 0 {
		e := <-evCh
		switch e.kind {
		case 0: // call done
			outstanding--
			for _, si := range e.shards {
				delete(inflight[si], e.node)
			}
			if e.err != nil {
				if ctx.Err() != nil {
					continue
				}
				r.noteFailure(r.nodes[e.node], e.err)
				var still []int
				for _, si := range e.shards {
					failed[si][e.node] = true
					if uncovered[si] {
						still = append(still, si)
					}
				}
				if len(still) > 0 {
					stats.Retries++
					r.retries.Add(1)
					delay := r.opts.Backoff << uint(attempts[still[0]]-1)
					if err := assign(still, delay, false); err != nil {
						return nil, stats, err
					}
				}
				continue
			}
			r.noteSuccess(r.nodes[e.node])
			for _, it := range e.resp.Results {
				col.AddSq(it.ID, it.TS, it.DistSq)
			}
			stats.Cost += e.resp.Cost
			stats.SeqIO += e.resp.SeqIO
			stats.RandIO += e.resp.RandIO
			for _, si := range e.resp.Shards {
				delete(uncovered, si)
			}
		case 1: // hedge timer
			var still []int
			for _, si := range e.shards {
				if uncovered[si] {
					still = append(still, si)
				}
			}
			if len(still) == 0 {
				continue
			}
			if err := assign(still, 0, true); err != nil {
				return nil, stats, err
			}
		}
	}
	if len(uncovered) > 0 {
		return nil, stats, fmt.Errorf("cluster: %d shard(s) uncovered after fan-out", len(uncovered))
	}
	return col.Results(), stats, nil
}

// lastShardError formats an error among a shard's failed replicas for
// diagnostics, or "" when none recorded one.
func (r *Router) lastShardError(failedNodes map[int]bool) string {
	for ni := range failedNodes {
		if msg, _ := r.nodes[ni].snapshotErr(); msg != "" {
			return fmt.Sprintf(" (node %q: %s)", r.nodes[ni].node.Name, msg)
		}
	}
	return ""
}

// --- public query API ----------------------------------------------------

// The query and insert entries below take input a request check has
// passed (server.QueryRequest.Check, BatchQueryRequest.Check,
// InsertLiterals.Check against the topology's series length): what they send
// a node, the node accepts, so a failure they return is a node's.

// Search answers a k-NN query over the whole cluster. Exact mode is
// byte-identical to a single-node exact search over the same data at any
// topology; approximate mode is byte-identical to the in-process sharded
// build with the same shard count (approximate answers are per-shard
// heuristics, so they depend on the partitioning, not on node placement).
func (r *Router) Search(q []float64, k int, exact bool, minTS, maxTS *int64) ([]index.Result, Stats, error) {
	// A k-NN over n series returns at most n: no answer changes, and nothing
	// downstream is sized by a number off the wire.
	k = max(1, min(k, int(r.Count())))
	mode := server.ModeApprox
	if exact {
		mode = server.ModeExact
	}
	return r.gather(server.ClusterSearchRequest{
		Series: q, K: k, Mode: mode, MinTS: minTS, MaxTS: maxTS,
	}, index.NewCollector(k))
}

// RangeSearch answers an epsilon-range query (eps > 0): every series within
// Euclidean distance eps of q, byte-identical to the single-node answer
// (the nodes and the merge decide membership on the same squared limit, and
// the merge only dedups and sorts).
func (r *Router) RangeSearch(q []float64, eps float64, minTS, maxTS *int64) ([]index.Result, Stats, error) {
	return r.gather(server.ClusterSearchRequest{
		Series: q, Mode: server.ModeRange, Eps: eps, MinTS: minTS, MaxTS: maxTS,
	}, index.NewRangeCollector(eps))
}

// SearchBatch answers many k-NN queries, fanning queries across a bounded
// worker pool; each answer is byte-identical to the corresponding Search.
func (r *Router) SearchBatch(qs [][]float64, k int, exact bool) ([][]index.Result, Stats, error) {
	out := make([][]index.Result, len(qs))
	perQ := make([]Stats, len(qs))
	pool := parallel.New(r.opts.Parallelism)
	err := pool.ForEach(len(qs), func(_, i int) error {
		rs, st, err := r.Search(qs[i], k, exact, nil, nil)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		out[i], perQ[i] = rs, st
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	var total Stats
	for _, st := range perQ {
		total.Calls += st.Calls
		total.Retries += st.Retries
		total.Hedges += st.Hedges
		total.Cost += st.Cost
		total.SeqIO += st.SeqIO
		total.RandIO += st.RandIO
	}
	return out, total, nil
}

// --- insert fan-out ------------------------------------------------------

// Insert appends a batch of series cluster-wide, series i stamped
// timestamps[i]: InsertLiterals over each series rendered as json.Marshal
// renders it. A NaN or ±Inf value is refused, with json.Marshal's error,
// before anything is sent.
func (r *Router) Insert(batch [][]float64, timestamps []int64) (int64, error) {
	series := make([][]byte, len(batch))
	for i, s := range batch {
		var err error
		if series[i], err = server.AppendSeries(nil, s); err != nil {
			return 0, err
		}
	}
	return r.InsertLiterals(series, timestamps)
}

// InsertLiterals appends a batch of series cluster-wide, series i stamped
// timestamps[i]. Each series is one compact JSON array literal of the
// topology's series length, as server.InsertLiterals holds a checked
// request's, and goes to the nodes as it is. The router assigns dense
// global IDs (hash placement then routes each to its shard), writes every
// replica of each touched shard (write-all/read-one), and returns the new
// cluster-wide count. A replica that fails or rejects the write is marked
// stale and leaves read rotation; the insert still succeeds while every
// touched shard retains at least one live replica — losing all of them is
// reported as an error. Admission is bounded: more than
// MaxInflightInserts concurrently admitted batches fail fast with ErrBusy.
func (r *Router) InsertLiterals(series [][]byte, timestamps []int64) (int64, error) {
	select {
	case r.insertSem <- struct{}{}:
	default:
		return 0, ErrBusy
	}
	defer func() { <-r.insertSem }()

	// ID assignment and replica writes serialize: each shard's replicas see
	// IDs strictly ascending, which is the invariant their contiguity check
	// (and a stale replica's loud rejection) rests on.
	r.insertMu.Lock()
	defer r.insertMu.Unlock()

	base := r.count.Load()
	perNode := make([][]int, len(r.nodes)) // node -> the batch positions it writes
	touched := make(map[int][]int)         // shard -> replica node indices
	for i := range series {
		si := int(shard.Of(base+int64(i), r.topo.Shards))
		if _, ok := touched[si]; !ok {
			touched[si] = r.replicas[si]
		}
		for _, ni := range touched[si] {
			perNode[ni] = append(perNode[ni], i)
		}
	}

	type writeRes struct {
		ni  int
		err error
	}
	var wg sync.WaitGroup
	resCh := make(chan writeRes, len(r.nodes))
	for ni, entries := range perNode {
		if len(entries) == 0 {
			continue
		}
		wg.Add(1)
		go func(ni int, entries []int) {
			defer wg.Done()
			st := r.nodes[ni]
			var resp server.ClusterInsertResponse
			body := insertBody(st.node.Build, base, entries, series, timestamps)
			err := r.post(context.Background(), st, "/api/cluster/insert", body, &resp)
			if err == nil && resp.Applied != len(entries) {
				err = fmt.Errorf("applied %d of %d entries", resp.Applied, len(entries))
			}
			resCh <- writeRes{ni, err}
		}(ni, entries)
	}
	wg.Wait()
	close(resCh)

	okNodes := make(map[int]bool, len(r.nodes))
	var firstErr error
	for res := range resCh {
		if res.err == nil {
			r.noteSuccess(r.nodes[res.ni])
			okNodes[res.ni] = true
			continue
		}
		// The replica missed (part of) this write: divergent from its
		// peers, so it must leave read rotation.
		r.nodes[res.ni].stale.Store(true)
		r.noteFailure(r.nodes[res.ni], res.err)
		if firstErr == nil {
			firstErr = fmt.Errorf("node %q: %w", r.nodes[res.ni].node.Name, res.err)
		}
	}
	// The count advances regardless: nodes that applied the batch hold the
	// new IDs, and global IDs must stay dense and never be reissued.
	newCount := base + int64(len(series))
	r.count.Store(newCount)

	for si, reps := range touched {
		alive := 0
		for _, ni := range reps {
			if okNodes[ni] {
				alive++
			}
		}
		if alive == 0 {
			return newCount, fmt.Errorf("cluster: shard %d lost every replica during insert: %v", si, firstErr)
		}
	}
	// Redundancy may have degraded (stale replicas left rotation and show
	// in NodeStatuses), but every touched shard kept a live replica: the
	// write is safe and succeeds.
	return newCount, nil
}

// insertBody renders one replica write, the /api/cluster/insert body for
// build: the batch positions entries, position i as the entry
// {"id": base+i, "ts": timestamps[i], "series": series[i]}. These are the
// bytes json.Marshal writes for the server.ClusterInsertRequest, the
// literals spliced in as they are.
func insertBody(build string, base int64, entries []int, series [][]byte, timestamps []int64) []byte {
	name, _ := json.Marshal(build) // a string always marshals
	size := len(name) + 24
	for _, i := range entries {
		size += len(series[i]) + 80
	}
	b := make([]byte, 0, size)
	b = append(b, `{"build":`...)
	b = append(b, name...)
	b = append(b, `,"entries":[`...)
	for k, i := range entries {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, base+int64(i), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, timestamps[i], 10)
		b = append(b, `,"series":`...)
		b = append(b, series[i]...)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
