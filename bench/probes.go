package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bufpool"
	"repro/internal/extsort"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/record"
	"repro/internal/series"
	"repro/internal/server"
	"repro/internal/simd"
	"repro/internal/sortable"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/zonestat"
)

// Layer probes time the public functions of single internal packages on a
// sample of the workload's own seeded series, in a traced run only. Each
// runs for at least probeTime. README.md lists the symbols they depend on.
const (
	probeSample = 4096 // series per probe input
	probeTime   = 200 * time.Millisecond
	probePages  = 256 // pages behind the storage and buffer-pool probes
)

// probeSink keeps the compiler from removing a probed call.
var probeSink float64

// probe calls fn(i) in rounds of `round` calls until probeTime has passed
// and returns nanoseconds and heap allocations per call.
func probe(round int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < probeTime {
		for j := 0; j < round; j++ {
			fn(n + j)
		}
		n += round
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeSet carries what the probes share.
type probeSet struct {
	e      *env
	res    *runResult
	parent int32
	cfg    index.Config
	series []series.Series
	keys   []sortable.Key
	znorm  []series.Series
	dir    string
}

// run times one probe under a span and records ns per call. zeroAlloc
// asserts what the repository's own tests pin (bufpool's pin tests, index's
// prune and packed-eval tests): the call allocates nothing.
func (p *probeSet) run(metric string, round int, zeroAlloc bool, fn func(i int)) float64 {
	id := p.e.tr.begin(p.parent, "probe."+metric, 0)
	ns, allocs := probe(round, fn)
	p.e.tr.end(id)
	p.res.set(metric, ns)
	// A stray allocation by the runtime is not the probed call's: only a
	// steady rate is.
	if zeroAlloc && allocs > 0.01 {
		p.res.wrong("probe %s allocates %.3f times per call, the repository pins 0", metric, allocs)
	}
	return ns
}

func runProbes(e *env, res *runResult, parent int32, sample [][]float64, length int) error {
	dir, err := os.MkdirTemp(e.tmp, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	phase := e.tr.begin(parent, "probes", 0)
	defer e.tr.end(phase)
	p := &probeSet{
		e: e, res: res, parent: phase, dir: dir,
		cfg: index.Config{SeriesLen: length, Segments: 16, Bits: 8, Materialized: true},
	}
	for _, s := range sample {
		k, z := p.cfg.Summarize(series.Series(s))
		p.series = append(p.series, series.Series(s))
		p.keys = append(p.keys, k)
		p.znorm = append(p.znorm, z)
	}
	n := len(p.series)

	// sax / sortable: the summarisation every insert and build pays.
	p.run("sax.summarize_ns", 64, false, func(i int) {
		k, _ := p.cfg.Summarize(p.series[i%n])
		probeSink += float64(k.Lo & 1)
	})

	// zonestat: the synopsis every flushed entry is folded into.
	syn := zonestat.New(p.cfg.Segments, p.cfg.Bits)
	p.run("zonestat.add_ns", 256, false, func(i int) { syn.Add(p.keys[i%n], int64(i)) })

	// index: per-query table fill, the lower bound per candidate, and the
	// per-worker collector merge.
	queries := make([]index.Query, 64)
	for i := range queries {
		queries[i] = index.NewQuery(p.series[i%n], p.cfg)
	}
	p.run("index.table_fill_ns", 16, false, func(i int) {
		index.AcquireCtx(queries[i%len(queries)], p.cfg).Release()
	})
	ctx := index.AcquireCtx(queries[0], p.cfg)
	p.run("index.mindist_ns", 256, true, func(i int) { probeSink += ctx.P.MinDistSqKey(p.keys[i%n]) })
	ctx.Release()
	base := index.NewCollector(topK)
	for i := 0; i < topK; i++ {
		base.AddSq(int64(i), 0, float64(100+i))
	}
	p.run("index.collector_merge_ns", 64, false, func(i int) {
		c := base.PooledClone()
		c.AddSq(int64(topK+i%n), 0, float64(i%97))
		base.MergeRelease(c)
	})

	// simd: the three kernels under every distance and every lower bound.
	q := []float64(p.znorm[0])
	inf := math.Inf(1)
	p.run("simd.sqdist_ns", 256, false, func(i int) { probeSink += simd.SqDist(q, p.znorm[i%n], inf) })
	encoded := make([][]byte, n)
	for i, z := range p.znorm {
		encoded[i] = z.AppendBinary(nil)
	}
	p.run("simd.sqdist_encoded_ns", 256, true, func(i int) { probeSink += simd.SqDistEncoded(q, encoded[i%n], inf) })
	table := make([]float64, p.cfg.Segments<<p.cfg.Bits)
	for i := range table {
		table[i] = float64(i%251) * 0.5
	}
	idx := make([][]int32, 256)
	for i := range idx {
		idx[i] = make([]int32, p.cfg.Segments)
		for s := range idx[i] {
			idx[i][s] = int32(s<<p.cfg.Bits | (i*31+s*7)%(1<<p.cfg.Bits))
		}
	}
	p.run("simd.table_sum_ns", 256, true, func(i int) { probeSink += simd.TableSum(table, idx[i%len(idx)]) })

	// parallel: what one fan-out costs before any work is done.
	pool := parallel.New(e.nproc)
	p.run("parallel.foreach_overhead_ns", 16, false, func(int) {
		_ = pool.ForEach(e.nproc, func(_, _ int) error { return nil })
	})

	if err := p.sortAndPages(); err != nil {
		return err
	}
	if err := p.storage(); err != nil {
		return err
	}
	if err := p.wal(); err != nil {
		return err
	}
	p.json()
	return nil
}

// entries returns the sample as index entries sorted by (key, ID).
func (p *probeSet) entries() []record.Entry {
	out := make([]record.Entry, len(p.keys))
	for i := range out {
		out[i] = record.Entry{Key: p.keys[i], ID: int64(i), TS: int64(i), Payload: p.znorm[i]}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// sortAndPages probes extsort on an unsorted entry file and record's packed
// page decoding on pages built from the same entries.
func (p *probeSet) sortAndPages() error {
	codec := p.cfg.Codec()
	disk := storage.NewDisk(pageSize)
	w, err := storage.NewRecordWriter(disk, "in", codec.Size())
	if err != nil {
		return err
	}
	for i := range p.keys {
		buf, err := codec.Encode(record.Entry{Key: p.keys[i], ID: int64(i), TS: int64(i), Payload: p.znorm[i]})
		if err != nil {
			return err
		}
		if err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	// The facade's default construction memory (1 MiB) makes this a two-pass
	// sort, as in the builds.
	sorter := &extsort.Sorter{Disk: disk, Codec: codec, MemBudget: 1 << 20, Parallelism: 1}
	var passes int
	var sortErr error
	ns := p.run("extsort.sort_ns_per_entry", 1, false, func(i int) {
		out := fmt.Sprintf("out%d", i)
		n, err := sorter.Sort("in", int64(len(p.keys)), out)
		if err != nil {
			sortErr = err
		}
		passes = n
		_ = disk.Remove(out)
	})
	if sortErr != nil {
		return fmt.Errorf("extsort probe: %w", sortErr)
	}
	p.res.set("extsort.sort_ns_per_entry", ns/float64(len(p.keys)))
	p.res.set("extsort.passes", float64(passes))

	builder, err := record.NewPageBuilder(codec, pageSize)
	if err != nil {
		return err
	}
	var pages [][]byte
	entries := p.entries()
	flush := func() error {
		page := make([]byte, pageSize)
		if _, err := builder.Encode(page); err != nil {
			return err
		}
		pages = append(pages, page)
		return nil
	}
	for _, e := range entries {
		ok, err := builder.TryAdd(e)
		if err != nil {
			return err
		}
		if !ok {
			if err := flush(); err != nil {
				return err
			}
			if _, err := builder.TryAdd(e); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	perPage := float64(len(entries)) / float64(len(pages))
	var viewErr error
	ns = p.run("record.packed_view_ns_per_entry", 16, true, func(i int) {
		v, err := codec.ViewPacked(pages[i%len(pages)])
		if err != nil {
			viewErr = err
			return
		}
		for j := 0; j < v.Count(); j++ {
			probeSink += float64(v.Key(j).Lo&1) + float64(v.ID(j)&1+v.TS(j)&1)
		}
	})
	if viewErr != nil {
		return fmt.Errorf("packed view probe: %w", viewErr)
	}
	p.res.set("record.packed_view_ns_per_entry", ns/perPage)
	p.res.set("record.packed_entries_per_page", perPage)
	p.res.set("record.fixed_entries_per_page", float64(pageSize/codec.Size()))
	return nil
}

// storage probes one page fetch on each backend, and through the buffer
// pool on its hit path and on its miss path.
func (p *probeSet) storage() error {
	page := make([]byte, pageSize)
	fill := func(d storage.Backend) error {
		if err := d.Create("f"); err != nil {
			return err
		}
		for i := 0; i < probePages; i++ {
			page[0] = byte(i)
			if _, err := d.AppendPage("f", page); err != nil {
				return err
			}
		}
		return nil
	}
	sim := storage.NewDisk(pageSize)
	file, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: filepath.Join(p.dir, "pages"), PageSize: pageSize})
	if err != nil {
		return err
	}
	defer file.Close()
	if err := fill(sim); err != nil {
		return err
	}
	if err := fill(file); err != nil {
		return err
	}
	var pinErr error
	pin := func(r storage.PageReader) func(i int) {
		return func(i int) {
			h, err := r.PinPage("f", int64(i%probePages))
			if err != nil {
				pinErr = err
				return
			}
			probeSink += float64(h.Data()[0])
			h.Release()
		}
	}
	p.run("storage.sim_pin_ns", 256, true, pin(sim))
	p.run("storage.file_pin_ns", 256, false, pin(file))
	warm := bufpool.New(sim, 2*probePages*pageSize)
	for i := 0; i < probePages; i++ {
		pin(warm)(i)
	}
	p.run("bufpool.warm_pin_ns", 256, true, pin(warm))
	// A pool an eighth the size of the file, walked in order, misses on
	// every pin: the cost of a fetch from the file backend plus an eviction.
	cold := bufpool.New(file, probePages/8*pageSize)
	p.run("bufpool.miss_fetch_ns", 256, false, pin(cold))
	if pinErr != nil {
		return fmt.Errorf("pin probe: %w", pinErr)
	}
	if cold.Hits() != 0 {
		p.res.note("bufpool.miss_fetch_ns saw %d hits beside %d misses", cold.Hits(), cold.Misses())
	}
	return nil
}

// wal probes one append under the batched group-commit policy the
// durable_lsm workload uses, and one forced sync.
func (p *probeSet) wal() error {
	log, err := wal.Open(wal.BatchedOptions(filepath.Join(p.dir, "wal")))
	if err != nil {
		return err
	}
	defer log.Close()
	payload := p.znorm[0].AppendBinary(make([]byte, 0, 8*len(p.znorm[0])+32))
	var walErr error
	p.run("wal.append_ns", 64, false, func(int) {
		if _, err := log.Append(payload); err != nil {
			walErr = err
		}
	})
	p.run("wal.sync_ns", 1, false, func(int) {
		if _, err := log.Append(payload); err != nil {
			walErr = err
		}
		if err := log.Sync(); err != nil {
			walErr = err
		}
	})
	if walErr != nil {
		return fmt.Errorf("wal probe: %w", walErr)
	}
	return nil
}

// json probes the wire format: one query request and one node answer,
// marshalled and unmarshalled, as every routed query pays them.
func (p *probeSet) json() {
	req := server.QueryRequest{Build: "build-1", Series: p.series[0], K: topK, Exact: true}
	resp := server.ClusterSearchResponse{Shards: []int{0, 1}}
	for i := 0; i < topK; i++ {
		resp.Results = append(resp.Results, server.ClusterResult{ID: int64(i * 977), DistSq: 3.25 + float64(i)*0.37})
	}
	ns := p.run("server.json_roundtrip_us", 16, false, func(int) {
		a, _ := json.Marshal(req)
		var r server.QueryRequest
		_ = json.Unmarshal(a, &r)
		b, _ := json.Marshal(resp)
		var s server.ClusterSearchResponse
		_ = json.Unmarshal(b, &s)
		probeSink += float64(len(r.Series) + len(s.Results))
	})
	p.res.set("server.json_roundtrip_us", ns/1e3)
}
