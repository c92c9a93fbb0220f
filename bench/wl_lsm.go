package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	coconut "repro"
)

// durable_lsm: the production write path on the facade. WAL, background
// compaction, the file backend and a buffer pool far smaller than the index
// do the work; reads run beside writes.
const (
	lsmLen        = 64
	lsmBuffer     = 4096
	lsmGrowth     = 4
	lsmPreload    = 64_000 // inserts per preload, in batches of lsmBatch
	lsmRounds     = 5      // preloads and replay passes of an untraced run
	lsmBatch      = 256
	lsmYardEvery  = 4      // batches per yardstick reading in a preload
	lsmRate       = 15_000 // series per second offered in the traced run's mixed phase
	lsmWindow     = 20_000 // newest timestamps a window query spans
	lsmCacheBytes = 8 << 20
	lsmQueries    = 200 // window queries every pass replays
	lsmRecall     = 240 // perturbed-member queries behind the recall
	lsmOracle     = 50
)

// lsmStore is one LSM handle with the directories it lives in.
type lsmStore struct {
	dir string
	lsm *coconut.LSM
}

func openLSM(dir string) (*coconut.LSM, error) {
	return coconut.NewLSM(coconut.Options{
		SeriesLen: lsmLen, Materialized: true, BufferEntries: lsmBuffer, GrowthFactor: lsmGrowth,
		WALDir: filepath.Join(dir, "wal"), Durability: coconut.DurabilityBatched,
		StorageDir: filepath.Join(dir, "store"), CompactionWorkers: 1,
		CacheBytes: lsmCacheBytes, Parallelism: 1,
	})
}

// insertBatch inserts series[from:to) with the series' position as its
// timestamp, so a timestamp window is an ID window.
func insertBatch(l *coconut.LSM, series [][]float64, from, to int) error {
	for id := from; id < to; id++ {
		if err := l.Insert(series[id], int64(id)); err != nil {
			return fmt.Errorf("Insert %d: %w", id, err)
		}
	}
	return nil
}

// sampledQuery is a window answer kept for the oracle.
type sampledQuery struct {
	q      []float64
	lo, hi int64
	ans    []neighbor
}

// preload fills a fresh store under e.tmp with the first lsmPreload series,
// one closed-loop writer, and waits for compaction to settle. It returns
// the per-batch times and the Quiesce time.
func preload(e *env, series [][]float64) (*lsmStore, []timed, timed, error) {
	dir, err := os.MkdirTemp(e.tmp, "lsm-")
	if err != nil {
		return nil, nil, timed{}, err
	}
	l, err := openLSM(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, timed{}, fmt.Errorf("NewLSM: %w", err)
	}
	store := &lsmStore{dir: dir, lsm: l}
	var batches []timed
	var slow float64
	for from := 0; from < lsmPreload; from += lsmBatch {
		if len(batches)%lsmYardEvery == 0 {
			slow = e.yard.read()
		}
		t := time.Now()
		if err := insertBatch(l, series, from, from+lsmBatch); err != nil {
			store.discard()
			return nil, nil, timed{}, err
		}
		batches = append(batches, timed{time.Since(t), slow})
	}
	t := time.Now()
	if err := l.Quiesce(); err != nil {
		store.discard()
		return nil, nil, timed{}, fmt.Errorf("Quiesce: %w", err)
	}
	return store, batches, timed{time.Since(t), e.yard.read()}, nil
}

func (s *lsmStore) discard() {
	s.lsm.Close()
	os.RemoveAll(s.dir)
}

func runLSM(e *env, res *runResult) error {
	root := e.tr.begin(0, wlLSM, 0)
	defer e.tr.end(root)

	// The traced run adds a mixed phase that inserts beyond the preload.
	interval := time.Second * lsmBatch / lsmRate
	nMixed := max(int(e.share(0.25)/interval), 1)
	total, rounds := lsmPreload, lsmRounds
	if e.traced {
		total, rounds = lsmPreload+nMixed*lsmBatch, 1
	}
	nQ := e.scaled(lsmQueries)
	var series, queries [][]float64
	generated, _ := e.yard.timeLong(func() error {
		series = randomWalks(e.rng(1), total, lsmLen)
		queries = randomWalks(e.rng(2), nQ, lsmLen)
		return nil
	})

	// Rounds: each preloads a fresh store and replays the window queries, one
	// client, against the first round's store; the later rounds' stores are
	// removed at once. Preloads and passes alternate so that both are spread
	// over the run.
	var store *lsmStore
	defer func() {
		if store != nil {
			store.discard()
		}
	}()
	hi := int64(lsmPreload - 1)
	lo := max(hi-lsmWindow+1, 0)
	var preloadS, setupS, preloadBatchMS []float64
	var rp replay
	var reads ioDelta
	var hits, misses int64
	answers := make([][]neighbor, nQ)
	for r := 0; r < rounds; r++ {
		id := e.tr.begin(root, "preload", int64(r))
		st, batches, quiesce, err := preload(e, series)
		e.tr.end(id)
		if err != nil {
			return err
		}
		var cal float64
		for _, b := range batches {
			cal += b.seconds()
		}
		preloadS, setupS = append(preloadS, cal), append(setupS, cal+quiesce.seconds())
		if r == 0 {
			store = st
			preloadBatchMS = wallMS(batches)
			res.note("preloads: %d; the first uncalibrated %.4g s, box slowdown %.3f", rounds, sum(preloadBatchMS)/1e3, replay{batches}.boxSlowdown())
		} else {
			st.discard()
		}
		l := store.lsm
		ph := e.tr.begin(root, "replay", int64(r))
		pass := make([]timed, nQ)
		before := l.Stats()
		for i, q := range queries {
			var ms []coconut.Match
			id := e.tr.begin(ph, "facade.SearchWindow", int64(i))
			pass[i], err = e.yard.timeOp(func() (err error) {
				ms, err = l.SearchWindow(q, topK, lo, hi)
				return err
			})
			e.tr.end(id)
			if err != nil {
				return fmt.Errorf("SearchWindow: %w", err)
			}
			if r == 0 {
				answers[i] = fromMatches(ms)
			}
		}
		e.tr.end(ph)
		after := l.Stats()
		reads.add(statsDelta(before, after))
		hits, misses = hits+after.CacheHits-before.CacheHits, misses+after.CacheMisses-before.CacheMisses
		rp = append(rp, pass)
	}
	l := store.lsm
	res.ops(int64(rounds*(lsmPreload/lsmBatch+nQ)), 0)
	res.set("setup_s", e.yard.settle(generated).seconds()+median(setupS))
	res.set("ingest_series_per_s", lsmPreload/median(preloadS))
	walStats, _ := l.WALStats()
	res.setSpace(l.Stats(), walStats.BytesAppended, lsmPreload, lsmLen)

	// Oracle: replayed answers against a brute-force scan of the window.
	znormed := znormAll(series)
	stamps := make([]int64, len(series))
	for i := range stamps {
		stamps[i] = int64(i)
	}
	inWindow := func(ts int64) bool { return ts >= lo && ts <= hi }
	oracleOK := true
	for i := 0; i < lsmOracle && i < nQ; i++ {
		if err := checkKNN(answers[i], scan(znormed, stamps, queries[i], inWindow), topK); err != nil {
			res.wrong("lsm window query %d [%d,%d]: %v", i, lo, hi, err)
			oracleOK = false
		}
	}
	if count := l.Count(); count != lsmPreload {
		res.wrong("lsm holds %d series after %d acknowledged inserts", count, lsmPreload)
		oracleOK = false
	}
	if oracleOK {
		n := float64(rounds * nQ)
		res.setQueries(rp)
		res.setReads(reads, n)
		res.set("clsm.pages_read_per_window_query", float64(reads.seq+reads.rand)/n)
		res.set("bufpool.hit_ratio", float64(hits)/float64(hits+misses))
	}

	// Recall of approximate answers against exact whole-index ones, on
	// perturbed members: far queries find 2 to 3 % of their neighbours, which
	// makes the ratio a coin toss at any count a run can afford.
	nRecall := e.scaled(lsmRecall)
	near := nearQueries(e.rng(3), series[:lsmPreload], nRecall)
	var found, of int
	for _, q := range near {
		ex, err := l.Search(q, topK)
		if err != nil {
			return fmt.Errorf("Search: %w", err)
		}
		ap, err := l.SearchApprox(q, topK)
		if err != nil {
			return fmt.Errorf("SearchApprox: %w", err)
		}
		f, o := recallAt(fromMatches(ex), fromMatches(ap))
		found, of = found+f, of+o
	}
	res.ops(int64(2*nRecall), 0)
	res.set("approx_recall_at_10", float64(found)/float64(of))
	if !e.traced {
		return nil
	}
	res.set("build_s", sum(preloadBatchMS)/1e3)
	res.setTail("clsm.preload_batch_p99_ms", preloadBatchMS)
	res.set("harness.box_slowdown", rp.boxSlowdown())
	return lsmTraced(e, res, root, store, series, queries, znormed, stamps, nMixed, interval)
}

// lsmTraced is the traced run's own phases on the preloaded store: reads
// beside an open-loop writer, the harness's overhead, recovery and the
// layer probes.
func lsmTraced(e *env, res *runResult, root int32, store *lsmStore, series, queries, znormed [][]float64, stamps []int64,
	nMixed int, interval time.Duration) error {
	l := store.lsm
	total := len(series)
	window := func(q []float64, hi int64) ([]neighbor, int64, error) {
		lo := max(hi-lsmWindow+1, 0)
		ms, err := l.SearchWindow(q, topK, lo, hi)
		return fromMatches(ms), lo, err
	}

	// Mixed phase: one open-loop writer at a fixed rate beside one
	// closed-loop reader over the newest timestamps. A window ends at the
	// newest acknowledged insert, so its content is fixed when the query
	// starts and the oracle applies although writes continue.
	var acked atomic.Int64
	acked.Store(lsmPreload - 1)
	mixed := e.tr.begin(root, "mixed", 0)
	var readerMS []float64
	var reader loopResult
	var samples []sampledQuery
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reader = closedLoop(e.clk, 1, 0, 0, func(_, i int) error {
			if stop.Load() {
				return errStop
			}
			q := queries[i%len(queries)]
			hi := acked.Load()
			id := e.tr.begin(mixed, "facade.SearchWindow", int64(i))
			t := time.Now()
			ans, lo, err := window(q, hi)
			took := time.Since(t)
			e.tr.end(id)
			if err != nil {
				return err
			}
			readerMS = append(readerMS, took.Seconds()*1e3)
			if i%20 == 0 && len(samples) < lsmOracle {
				samples = append(samples, sampledQuery{q, lo, hi, ans})
			}
			return nil
		})
	}()
	writer := openLoop(e.clk, 1, interval, nMixed, func(_, i int) error {
		from := lsmPreload + i*lsmBatch
		id := e.tr.begin(mixed, "facade.Insert.batch", int64(i))
		err := insertBatch(l, series, from, from+lsmBatch)
		e.tr.end(id)
		if err == nil {
			acked.Store(int64(from + lsmBatch - 1))
		}
		return err
	})
	stop.Store(true)
	wg.Wait()
	e.tr.end(mixed)
	qt := time.Now()
	if err := l.Quiesce(); err != nil {
		return fmt.Errorf("Quiesce: %w", err)
	}
	quiesceMS := time.Since(qt).Seconds() * 1e3
	mixedOK := res.loop("mixed writer", writer) && res.loop("mixed reader", reader)
	for i, s := range samples {
		all := scan(znormed, stamps, s.q, func(ts int64) bool { return ts >= s.lo && ts <= s.hi })
		if err := checkKNN(s.ans, all, topK); err != nil {
			res.wrong("lsm mixed window query %d [%d,%d]: %v", i, s.lo, s.hi, err)
			mixedOK = false
		}
	}
	if count := l.Count(); count != total {
		res.wrong("lsm holds %d series after %d acknowledged inserts", count, total)
		mixedOK = false
	}
	walStats, _ := l.WALStats()
	if mixedOK {
		res.setTail("mixed_query_p99_ms", readerMS)
		batchMS := msOf(writer.Lat)
		res.setTail("insert_p99_ms", batchMS)
		res.setTail("loadgen.lag_p99_ms", msOf(writer.Lag))
		med := median(append([]float64(nil), batchMS...))
		stalled, worst := 0, 0.0
		for _, v := range batchMS {
			if v > 10*med {
				stalled++
			}
			worst = max(worst, v)
		}
		res.set("compact.stall_batch_share", float64(stalled)/float64(len(batchMS)))
		res.set("compact.max_stall_ms", worst)
		cs := l.CompactionStats()
		res.set("clsm.flushes", float64(cs.Flushes))
		res.set("clsm.merges", float64(cs.Merges))
		res.set("clsm.runs_final", float64(cs.Runs))
		res.set("clsm.levels", float64(cs.Levels))
		res.set("clsm.quiesce_ms", quiesceMS)
		res.set("wal.syncs_per_1k_inserts", 1e3*float64(walStats.Syncs)/float64(walStats.Appends))
		res.set("wal.bytes_per_series", float64(walStats.BytesAppended)/float64(walStats.Appends))
	}

	hi := acked.Load()
	quietQuery := func(_, i int) error {
		_, _, err := window(queries[i%len(queries)], hi)
		return err
	}
	apx := e.closed(root, "approx", "facade.SearchApprox", 1, e.share(0.03), 0, func(_, i int) error {
		_, err := l.SearchApprox(queries[i%len(queries)], topK)
		return err
	})
	if res.loop("approx", apx) {
		res.setMedian("approx_p50_ms", msOf(apx.Lat))
	}
	// Window queries on the quiescent index, every second one under a span,
	// give the harness's overhead.
	mark := markProcess()
	plainMS, spannedMS, again := e.overheadLoop(root, "overhead", 0, 2*len(queries), func(_ *tracer, _ int32, i int) error {
		return quietQuery(0, i/2)
	})
	mallocs, _ := mark.since()
	if res.loop("overhead", again) {
		res.set("harness.trace_overhead_share", median(spannedMS)/median(plainMS)-1)
		res.set("process.allocs_per_query", float64(mallocs)/float64(len(again.Lat)))
	}

	// Recovery: abandon the handle without Close and reopen over the same
	// directories; every acknowledged insert should be back.
	id := e.tr.begin(root, "recovery", 0)
	rt := time.Now()
	recovered, err := openLSM(store.dir)
	recoveryMS := time.Since(rt).Seconds() * 1e3
	e.tr.end(id)
	if err != nil {
		return fmt.Errorf("NewLSM over an abandoned store: %w", err)
	}
	// From here on the recovered handle is the store's; the abandoned one is
	// never closed.
	store.lsm = recovered
	lost := total - recovered.Count()
	res.set("clsm.recovery_ms", recoveryMS)
	res.set("clsm.recovery_lost_inserts", float64(lost))
	if lost != 0 {
		res.note("recovery lost %d of %d acknowledged inserts (WAL NextLSN %d); reported, not counted as failed operations: see README.md", lost, total, walStats.NextLSN)
	}
	// What did come back must answer as before.
	q := queries[0]
	ms, err := recovered.SearchWindow(q, topK, max(hi-lsmWindow+1, 0), hi)
	if err != nil {
		return fmt.Errorf("SearchWindow after recovery: %w", err)
	}
	res.ops(1, 0)
	all := scan(znormed, stamps, q, func(ts int64) bool { return ts > hi-lsmWindow && ts <= hi && ts < int64(recovered.Count()) })
	if err := checkKNN(fromMatches(ms), all, topK); err != nil {
		res.wrong("lsm window query after recovery: %v", err)
	}
	return runProbes(e, res, root, series[:probeSample], lsmLen)
}
