package main

import (
	"fmt"
	"math/rand"
	"time"

	coconut "repro"
	"repro/internal/gen"
)

// static_tree: the paper's static scenario on the facade. Index-bound:
// every read reaches the simulated disk because there is no cache.
const (
	staticSeries    = 100_000
	staticLen       = 128
	staticRounds    = 4   // bulk loads and replay passes of an untraced run
	staticQueries   = 320 // exact queries every pass replays, half near, half far
	staticRange     = 50
	staticOracle    = 50
	staticLateBatch = 32 // series per late-arrival insert batch
	topK            = 10
	pageSize        = 4096 // the program's default page size
	// nearNoise perturbs a member into a "near" query: small against a random
	// walk's spread, so the answer is the member itself.
	nearNoise = 0.1
)

func randomWalks(rng *rand.Rand, n, length int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = gen.RandomWalk(rng, length)
	}
	return out
}

// nearQueries perturbs randomly chosen members of data.
func nearQueries(rng *rand.Rand, data [][]float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		base := data[rng.Intn(len(data))]
		q := make([]float64, len(base))
		for j, v := range base {
			q[j] = v + rng.NormFloat64()*nearNoise
		}
		out[i] = q
	}
	return out
}

func fromMatches(ms []coconut.Match) []neighbor {
	out := make([]neighbor, len(ms))
	for i, m := range ms {
		out[i] = neighbor{ID: m.ID, TS: m.TS, Dist: m.Dist}
	}
	return out
}

// ioDelta is the page reads between two facade Stats snapshots.
type ioDelta struct{ seq, rand, skips int64 }

func statsDelta(before, after coconut.Stats) ioDelta {
	return ioDelta{
		seq:   after.SeqReads - before.SeqReads,
		rand:  after.RandReads - before.RandReads,
		skips: after.PlannedSkips - before.PlannedSkips,
	}
}

func (d *ioDelta) add(o ioDelta) { d.seq += o.seq; d.rand += o.rand; d.skips += o.skips }

// cost is the paper's currency: a random page access costs ten sequential
// ones.
func (d ioDelta) cost() float64 { return float64(d.seq) + 10*float64(d.rand) }

// setReads reports what n exact queries of a single-client pass read.
func (r *runResult) setReads(d ioDelta, n float64) {
	r.set("io_cost_per_query", d.cost()/n)
	r.set("storage.reads_per_query", float64(d.seq+d.rand)/n)
	r.set("storage.seq_share", float64(d.seq)/float64(d.seq+d.rand))
}

// setSpace reports what a facade index wrote and holds for `series` series
// of the given length: pages written (plus WAL bytes) per byte of input, and
// bytes of pages per series.
func (r *runResult) setSpace(st coconut.Stats, walBytes int64, series, length int) {
	written := float64(st.SeqWrites+st.RandWrites)*pageSize + float64(walBytes)
	r.set("write_amp", written/float64(series*length*8))
	r.set("index_bytes_per_series", float64(st.Pages)*pageSize/float64(series))
}

func runStatic(e *env, res *runResult) error {
	root := e.tr.begin(0, wlStatic, 0)
	defer e.tr.end(root)

	// Inputs: the series, and the queries every pass replays, alternately a
	// perturbed member ("near") and a fresh random walk ("far").
	nQ := e.scaled(staticQueries)
	var data, far, queries [][]float64
	generated, _ := e.yard.timeLong(func() error {
		data = randomWalks(e.rng(1), staticSeries, staticLen)
		far = randomWalks(e.rng(2), 4096, staticLen)
		near := nearQueries(e.rng(3), data, (nQ+1)/2)
		queries = make([][]float64, nQ)
		for i := range queries {
			if i%2 == 0 {
				queries[i] = near[i/2]
			} else {
				queries[i] = far[i/2]
			}
		}
		return nil
	})
	opts := coconut.Options{SeriesLen: staticLen, Materialized: true, CacheBytes: 0, Parallelism: 1}

	// Rounds: each bulk-loads the index and replays the queries, one client,
	// Parallelism=1. The first round's tree is the one queried throughout and
	// its pass is the counted one; the later rounds' trees are closed at once.
	// Builds and passes alternate so that both are spread over the run.
	rounds := staticRounds
	if e.traced {
		rounds = 1
	}
	var tree *coconut.Tree
	var built []longOp
	var rp replay
	var nearIO, farIO, firstPass ioDelta
	var nearMS []float64
	exact := make([][]neighbor, nQ)
	for r := 0; r < rounds; r++ {
		var t *coconut.Tree
		id := e.tr.begin(root, "facade.BuildTree", int64(r))
		b, err := e.yard.timeLong(func() (err error) {
			t, err = coconut.BuildTree(data, opts)
			return err
		})
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("BuildTree: %w", err)
		}
		built = append(built, b)
		if r == 0 {
			tree = t
			defer tree.Close()
		} else {
			t.Close()
		}
		ph := e.tr.begin(root, "replay", int64(r))
		pass := make([]timed, nQ)
		start := tree.Stats()
		for i, q := range queries {
			var ms []coconut.Match
			before := start
			if r == 0 {
				before = tree.Stats()
			}
			id := e.tr.begin(ph, "facade.Search", int64(i))
			pass[i], err = e.yard.timeOp(func() (err error) {
				ms, err = tree.Search(q, topK)
				return err
			})
			e.tr.end(id)
			if err != nil {
				return fmt.Errorf("Search: %w", err)
			}
			if r > 0 {
				continue
			}
			exact[i] = fromMatches(ms)
			d := statsDelta(before, tree.Stats())
			if i%2 == 0 {
				nearIO.add(d)
				nearMS = append(nearMS, pass[i].wall.Seconds()*1e3)
			} else {
				farIO.add(d)
			}
		}
		e.tr.end(ph)
		rp = append(rp, pass)
		// One client and Parallelism=1: every pass must read exactly what the
		// first one read.
		if d := statsDelta(start, tree.Stats()); r == 0 {
			firstPass = d
		} else if d != firstPass {
			res.wrong("static pass %d read %+v, the first pass %+v", r, d, firstPass)
		}
	}
	res.ops(int64(rounds+rounds*nQ), 0)
	var buildS []float64
	for _, b := range built {
		buildS = append(buildS, e.yard.settle(b).seconds())
	}
	first := e.yard.settle(built[0])
	stats := tree.Stats()
	res.set("setup_s", e.yard.settle(generated).seconds()+median(buildS))
	res.set("ingest_series_per_s", staticSeries/median(buildS))
	res.setSpace(stats, 0, tree.Count(), staticLen)
	res.note("bulk loads: %d; the first uncalibrated %.4g s, box slowdown %.3f", rounds, first.wall.Seconds(), first.slow)

	// Approximate answers to the same queries, for the recall, and range
	// queries around the exact answers, for the oracle.
	var found, of int
	for i, q := range queries {
		ms, err := tree.SearchApprox(q, topK)
		if err != nil {
			return fmt.Errorf("SearchApprox: %w", err)
		}
		f, o := recallAt(exact[i], fromMatches(ms))
		found, of = found+f, of+o
	}
	nRange := min(e.scaled(staticRange), nQ)
	ranges := make([][]neighbor, nRange)
	epsOf := func(i int) float64 { return exact[i][len(exact[i])-1].Dist * 1.05 }
	for i := range ranges {
		ms, err := tree.SearchRange(queries[i], epsOf(i))
		if err != nil {
			return fmt.Errorf("SearchRange: %w", err)
		}
		ranges[i] = fromMatches(ms)
	}
	res.ops(int64(nQ+nRange), 0)

	// Oracle: exact and range answers against a brute-force scan.
	znormed := znormAll(data)
	oracleOK := true
	orc := e.tr.begin(root, "oracle", 0)
	for i := 0; i < staticOracle && i < nQ; i++ {
		all := scan(znormed, nil, queries[i], nil)
		if err := checkKNN(exact[i], all, topK); err != nil {
			res.wrong("static exact query %d: %v", i, err)
			oracleOK = false
		}
		if i < nRange/2 {
			if err := checkRange(ranges[i], all, epsOf(i)); err != nil {
				res.wrong("static range query %d: %v", i, err)
				oracleOK = false
			}
		}
	}
	e.tr.end(orc)
	if !oracleOK {
		return nil
	}
	res.setQueries(rp)
	res.setReads(firstPass, float64(nQ))
	res.set("approx_recall_at_10", float64(found)/float64(of))
	if !e.traced {
		return nil
	}

	// The traced run's own phases.
	res.set("build_s", first.wall.Seconds())
	res.set("harness.box_slowdown", rp.boxSlowdown())
	res.set("ctree.leaf_pages", float64(stats.Pages))
	res.set("ctree.pages_read_per_exact", float64(firstPass.seq+firstPass.rand)/float64(nQ))
	res.set("index.planned_skips_per_query_near", float64(nearIO.skips)/float64((nQ+1)/2))
	res.set("index.planned_skips_per_query_far", float64(farIO.skips)/float64(nQ/2))
	res.setMedian("index.near_exact_p50_ms", nearMS)

	farQuery := func(i int) []float64 { return far[i%len(far)] }
	searchFar := func(_, i int) error {
		_, err := tree.Search(farQuery(i), topK)
		return err
	}
	// One closed loop with every second call under a span gives the
	// harness's own overhead; then once more with the tree's worker pool at
	// nproc; then nproc closed-loop clients.
	mark := markProcess()
	plainMS, spannedMS, lat := e.overheadLoop(root, "latency", e.share(0.20), 0, func(_ *tracer, _ int32, i int) error {
		return searchFar(0, i)
	})
	mallocs, _ := mark.since()
	tree.SetParallelism(e.nproc)
	par := e.closed(root, "parallel", "facade.Search", 1, e.share(0.10), 0, searchFar)
	tree.SetParallelism(1)
	thr := e.closed(root, "throughput", "facade.Search", e.nproc, e.share(0.10), 0, searchFar)
	apx := e.closed(root, "approx", "facade.SearchApprox", 1, e.share(0.03), 0, func(_, i int) error {
		_, err := tree.SearchApprox(farQuery(i), topK)
		return err
	})
	if res.loop("approx", apx) {
		res.setMedian("approx_p50_ms", msOf(apx.Lat))
	}
	if res.loop("latency", lat) && res.loop("parallel", par) && res.loop("throughput", thr) {
		p50 := median(plainMS)
		res.set("harness.trace_overhead_share", median(spannedMS)/p50-1)
		res.setMedian("parallel.exact_p50_ms_at_nproc", msOf(par.Lat))
		res.set("parallel.speedup", p50/median(msOf(par.Lat)))
		res.set("parallel.qps_at_nproc", float64(len(thr.Lat))/thr.Wall.Seconds())
		res.set("process.allocs_per_query", float64(mallocs)/float64(len(lat.Lat)))
	}
	if err := runProbes(e, res, root, data[:probeSample], staticLen); err != nil {
		return err
	}
	return lateArrivals(e, res, tree, e.share(0.08), farQuery, znormed)
}

// lateArrivals (traced run) alternates a batch of inserts with one exact
// query for the given time: the facade serialises inserts against searches,
// so one thread does both. The tree keeps the arrivals, so this phase runs
// last.
func lateArrivals(e *env, res *runResult, tree *coconut.Tree, budget time.Duration, farQuery func(int) []float64, znormed [][]float64) error {
	late := randomWalks(e.rng(4), staticLateBatch*e.scaled(400), staticLen)
	var insertMS, mixedMS []float64
	var lastQ []float64
	var lastAns []neighbor
	inserted := 0
	deadline := time.Now().Add(budget)
	for inserted+staticLateBatch <= len(late) && time.Now().Before(deadline) {
		t := time.Now()
		for _, s := range late[inserted : inserted+staticLateBatch] {
			if err := tree.Insert(s, 1); err != nil {
				return fmt.Errorf("Insert: %w", err)
			}
		}
		insertMS = append(insertMS, time.Since(t).Seconds()*1e3)
		inserted += staticLateBatch
		lastQ = farQuery(inserted)
		t = time.Now()
		ms, err := tree.Search(lastQ, topK)
		if err != nil {
			return fmt.Errorf("Search after insert: %w", err)
		}
		mixedMS = append(mixedMS, time.Since(t).Seconds()*1e3)
		lastAns = fromMatches(ms)
	}
	res.ops(int64(len(insertMS)+len(mixedMS)), 0)
	// The last mixed answer must see every arrival so far.
	all := scan(append(znormed, znormAll(late[:inserted])...), nil, lastQ, nil)
	if err := checkKNN(lastAns, all, topK); err != nil {
		res.wrong("static query after %d late arrivals: %v", inserted, err)
		return nil
	}
	res.setTail("insert_p99_ms", insertMS)
	res.setTail("mixed_query_p99_ms", mixedMS)
	return nil
}
