// Benchmarks regenerating the experiment tables of the reproduction
// (E1..E9 of internal/workload; README.md cites the paper) plus
// micro-benchmarks of the core primitives. Experiment benchmarks run at a
// reduced, laptop-friendly scale; cmd/coconut-bench runs the full tables.
package coconut

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"repro/internal/assemble"
	"repro/internal/bufpool"
	"repro/internal/cluster"
	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/run"
	"repro/internal/sax"
	"repro/internal/series"
	"repro/internal/server"
	"repro/internal/simd"
	"repro/internal/sortable"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/internal/zonestat"
)

func benchScale() workload.Scale {
	return workload.Scale{SeriesLen: 128, Segments: 16, Bits: 8, Seed: 42}
}

// --- Micro-benchmarks: the primitives everything else is built from. ---

func BenchmarkPAA(b *testing.B) {
	s := gen.RandomWalk(rand.New(rand.NewSource(1)), 256).ZNormalize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sax.PAA(s, 16)
	}
}

func BenchmarkSummarize(b *testing.B) {
	// Full pipeline: z-normalize + PAA + symbols + interleave.
	s := gen.RandomWalk(rand.New(rand.NewSource(1)), 256)
	cfg := index.Config{SeriesLen: 256, Segments: 16, Bits: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = cfg.Summarize(s)
	}
}

func BenchmarkInterleave(b *testing.B) {
	w := sax.FromSeries(gen.RandomWalk(rand.New(rand.NewSource(1)), 256).ZNormalize(), 16, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sortable.Interleave(w)
	}
}

// BenchmarkMinDist measures the squared-space table probe of the pruning
// pipeline, the lower bound every index probe pays per candidate — the key
// transpose (sortable.Symbols) plus the table-sum kernel — swept over
// summarization shapes, since the transpose works a round at a time and its
// cost follows the shape; "prepare" measures the once-per-query cost of
// building the tables.
func BenchmarkMinDist(b *testing.B) {
	cfg := index.Config{SeriesLen: 256, Segments: 16, Bits: 8}
	rng := rand.New(rand.NewSource(2))
	q := index.NewQuery(gen.RandomWalk(rng, 256), cfg)
	for _, shape := range [][2]int{{16, 8}, {8, 8}, {16, 4}, {10, 6}} {
		cfg := index.Config{SeriesLen: 240, Segments: shape[0], Bits: shape[1]}
		raw := gen.RandomWalk(rng, cfg.SeriesLen)
		keys := make([]sortable.Key, 256)
		for i := range keys {
			keys[i], _ = cfg.Summarize(gen.RandomWalk(rng, cfg.SeriesLen))
		}
		b.Run(fmt.Sprintf("table/%dx%d", shape[0], shape[1]), func(b *testing.B) {
			ctx := index.AcquireCtx(index.NewQuery(raw, cfg), cfg)
			defer ctx.Release()
			sc := ctx.Scratch0()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += sc.P.MinDistSqKey(keys[i%len(keys)])
			}
		})
	}
	b.Run("prepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := index.AcquireCtx(q, cfg)
			ctx.Release()
		}
	})
}

// benchSink keeps a benchmarked call's result alive.
var benchSink float64

// BenchmarkEnvelope measures the zone-map bounds of the CTree scans over the
// leaf envelopes of a sorted run of random-walk keys, 32 to a leaf: "full"
// is one envelope an op through EnvelopeSq (the value UnitBoundSq orders
// plans by), "batch" is 16 consecutive leaves an op through EnvelopeSqs,
// what the page loop pays for a page group's leaves, reported per envelope.
// 2048 leaves, because a branch predictor learns a few hundred and then
// hides what a clamp written with branches costs on a real tree.
func BenchmarkEnvelope(b *testing.B) {
	cfg := index.Config{SeriesLen: 256, Segments: 16, Bits: 8}
	rng := rand.New(rand.NewSource(4))
	keys := make([]sortable.Key, 1<<16)
	for i := range keys {
		keys[i], _ = cfg.Summarize(gen.RandomWalk(rng, cfg.SeriesLen))
	}
	slices.SortFunc(keys, sortable.Key.Compare)
	const perLeaf, perGroup = 32, 16
	leaves := make([]*zonestat.Synopsis, len(keys)/perLeaf)
	var mins, maxs []uint8
	for li := range leaves {
		syn := zonestat.New(cfg.Segments, cfg.Bits)
		for _, k := range keys[li*perLeaf : (li+1)*perLeaf] {
			syn.Add(k, 0)
		}
		leaves[li] = syn
		mins, maxs = append(mins, syn.MinSym...), append(maxs, syn.MaxSym...)
	}
	ctx := index.AcquireCtx(index.NewQuery(gen.RandomWalk(rng, cfg.SeriesLen), cfg), cfg)
	defer ctx.Release()
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			syn := leaves[i%len(leaves)]
			benchSink += ctx.P.EnvelopeSq(syn.MinSym, syn.MaxSym)
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		var bounds [perGroup]float64
		w, groups := cfg.Segments, len(leaves)/perGroup
		for i := 0; i < b.N; i++ {
			at := i % groups * perGroup * w
			ctx.P.EnvelopeSqs(bounds[:], w, mins[at:], maxs[at:])
			benchSink += bounds[0]
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perGroup, "ns/envelope")
	})
}

// BenchmarkColumnBound measures what bounding the entries of one leaf costs
// an exact scan, by where their symbols come from: the resident SAX column,
// an entry a call (SymbolBoundSqs of one entry's slice) or the leaf in one
// call (batch: SymbolBoundSqs, what the page loop does), or the keys on
// the leaf's page — fixed-width records, or a packed page's key column behind
// its header — transposed per entry (MinDistSqKey). One op is one leaf of three
// materialized entries, a 4 KB page like the static benchmark's; the scan
// is over 2048 such leaves in order, 8 MB of pages against 96 KB of column,
// so the page-borne keys arrive as cold as a real scan finds them and
// neither the predictor nor L1 flatters either side.
func BenchmarkColumnBound(b *testing.B) {
	const leaves, perLeaf, pageSize = 2048, 3, 4096
	cfg := index.Config{SeriesLen: 128, Segments: 16, Bits: 8, Materialized: true}
	codec := cfg.Codec()
	rng := rand.New(rand.NewSource(6))
	entries := make([]record.Entry, leaves*perLeaf)
	for i := range entries {
		key, z := cfg.Summarize(gen.RandomWalk(rng, cfg.SeriesLen))
		entries[i] = record.Entry{Key: key, ID: int64(i), Payload: z}
	}
	slices.SortFunc(entries, func(a, b record.Entry) int { return a.Key.Compare(b.Key) })
	column := make([]uint8, 0, len(entries)*cfg.Segments)
	fixed := make([][]byte, leaves)
	packed := make([][]byte, leaves)
	pb, err := record.NewPageBuilder(codec, pageSize)
	if err != nil {
		b.Fatal(err)
	}
	for li := range fixed {
		fixed[li] = make([]byte, 0, pageSize)
		packed[li] = make([]byte, pageSize)
		for _, e := range entries[li*perLeaf : (li+1)*perLeaf] {
			syms := sortable.Symbols(e.Key, cfg.Segments, cfg.Bits)
			column = append(column, syms[:cfg.Segments]...)
			if fixed[li], err = codec.Append(fixed[li], e); err != nil {
				b.Fatal(err)
			}
			if ok, err := pb.TryAdd(e); err != nil || !ok {
				b.Fatalf("packing leaf %d: fits=%v err=%v", li, ok, err)
			}
		}
		if _, err := pb.Encode(packed[li]); err != nil {
			b.Fatal(err)
		}
	}
	ctx := index.AcquireCtx(index.NewQuery(gen.RandomWalk(rng, cfg.SeriesLen), cfg), cfg)
	defer ctx.Release()
	p := &ctx.P
	leafBytes := perLeaf * cfg.Segments
	for _, src := range []struct {
		name  string
		bound func(li int) float64
	}{
		{"column", func(li int) (sum float64) {
			syms := column[li*leafBytes : (li+1)*leafBytes]
			for off := 0; off < len(syms); off += cfg.Segments {
				var lb [1]float64
				p.SymbolBoundSqs(lb[:], syms[off:off+cfg.Segments])
				sum += lb[0]
			}
			return sum
		}},
		{"batch", func(li int) (sum float64) {
			var lbs [perLeaf]float64
			p.SymbolBoundSqs(lbs[:], column[li*leafBytes:(li+1)*leafBytes])
			for _, lb := range lbs {
				sum += lb
			}
			return sum
		}},
		{"fixed-page", func(li int) (sum float64) {
			for i := 0; i < perLeaf; i++ {
				sum += p.MinDistSqKey(sortable.DecodeKey(fixed[li][i*codec.Size():]))
			}
			return sum
		}},
		{"packed-page", func(li int) (sum float64) {
			view, err := codec.ViewPacked(packed[li])
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < view.Count(); i++ {
				sum += p.MinDistSqKey(view.Key(i))
			}
			return sum
		}},
	} {
		b.Run(src.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += src.bound(i % leaves)
			}
		})
	}
}

// BenchmarkVerify measures candidate verification: the early-abandoning
// squared accumulation straight from encoded payload bytes against the
// decode-then-distance path it replaced, at a tight bound (the common case
// deep in an exact search: most candidates abandon within a few points).
func BenchmarkVerify(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(3))
	q := gen.RandomWalk(rng, n).ZNormalize()
	cands := make([][]byte, 64)
	for i := range cands {
		cands[i] = gen.RandomWalk(rng, n).ZNormalize().AppendBinary(nil)
	}
	// A realistic late-search bound: just above the best candidate's
	// distance, so nearly every verification abandons within a few points.
	dists := make([]float64, len(cands))
	for i, c := range cands {
		s, _ := series.DecodeBinary(c, n)
		dists[i] = q.SqDist(s)
	}
	boundSq := dists[0]
	for _, d := range dists {
		if d < boundSq {
			boundSq = d
		}
	}
	boundSq *= 1.1
	b.Run("decode-then-dist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := series.DecodeBinary(cands[i%len(cands)], n)
			if err != nil {
				b.Fatal(err)
			}
			_ = q.SqDistEarlyAbandon(s, boundSq)
		}
	})
	b.Run("encoded-early-abandon", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = q.SqDistEncodedEarlyAbandon(cands[i%len(cands)], boundSq)
		}
	})
}

// sliceRaw serves raw series straight out of a slice of z-normalized ones:
// the reference BenchmarkRawFetch holds the raw series files to.
type sliceRaw []series.Series

func (s sliceRaw) Get(id int) (series.Series, error) { return s[id], nil }
func (s sliceRaw) Count() int                        { return len(s) }

// BenchmarkRawFetch measures what verifying one candidate of a
// non-materialized index costs by where its raw series lives, through the
// verifier a search runs (index.TrueDistSq): a slice of series in memory (the
// reference); a raw series file on a heap disk of its own, a series a page,
// borrowing its page slices, as a RawInMemory build keeps one; and one on the
// build's disk, read one page frame at a time, whose accounting the
// experiments measure. Candidates come in a fixed random order over 10 000
// series, under a late-search bound, as deep in an exact search.
func BenchmarkRawFetch(b *testing.B) {
	const n, length = 10000, 128
	rng := rand.New(rand.NewSource(28))
	ss := make(sliceRaw, n)
	for i := range ss {
		ss[i] = gen.RandomWalk(rng, length).ZNormalize()
	}
	cfg := index.Config{SeriesLen: length, Segments: 16, Bits: 8}
	q := index.NewQuery(gen.RandomWalk(rng, length), cfg)
	boundSq := math.Inf(1)
	for _, s := range ss {
		boundSq = min(boundSq, q.Norm.SqDist(s))
	}
	boundSq *= 1.1
	order := rng.Perm(n)
	heap, err := storage.CreateRawFile(storage.NewDisk(series.Size(length)), "raw", length, n, ss.Get)
	if err != nil {
		b.Fatal(err)
	}
	heap.UseReader(nil)
	build, err := storage.CreateRawFile(storage.NewDisk(0), "raw", length, n, ss.Get)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name string
		raw  series.RawStore
	}{{"slice", ss}, {"heap-rawfile", heap}, {"build-disk-rawfile", build}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := index.TrueDistSq(&q, record.Entry{ID: int64(order[i%n])}, row.raw, boundSq)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += d
			}
		})
	}
}

// BenchmarkExternalSortPerEntry is the external sort's cost amortized per
// entry, at about ten runs merged in one pass: of header-only records, and
// of records that carry a 128-point series, as a materialized index's do.
func BenchmarkExternalSortPerEntry(b *testing.B) {
	for _, row := range []struct {
		name      string
		c         record.Codec
		n, budget int
	}{
		{"header-only", record.Codec{}, 20000, 64 << 10},
		{"materialized-128", record.Codec{SeriesLen: 128, Materialized: true}, 10000, 1 << 20},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := storage.NewDisk(0)
				w, _ := storage.NewRecordWriter(d, "in", row.c.Size())
				rng := rand.New(rand.NewSource(3))
				buf := make([]byte, 0, row.c.Size())
				var payload series.Series
				if row.c.Materialized {
					payload = make(series.Series, row.c.SeriesLen)
				}
				for j := 0; j < row.n; j++ {
					for k := range payload {
						payload[k] = rng.NormFloat64()
					}
					e := record.Entry{Key: sortable.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}, ID: int64(j), Payload: payload}
					buf, _ = row.c.Append(buf[:0], e)
					w.Write(buf)
				}
				w.Close()
				b.StartTimer()
				s := &extsort.Sorter{Disk: d, Codec: row.c, MemBudget: row.budget}
				if _, err := s.Sort("in", int64(row.n), "out"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*row.n)/b.Elapsed().Seconds(), "entries/s")
		})
	}
}

// --- Index-level benchmarks (one per core operation). ---

type builtSet struct {
	once sync.Once
	m    map[string]*assemble.Built
	ds   *series.Dataset
}

var benchBuilt builtSet

func builds(b *testing.B) (map[string]*assemble.Built, *series.Dataset) {
	b.Helper()
	benchBuilt.once.Do(func() {
		sc := benchScale()
		ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 10000, Len: sc.SeriesLen, FracEvent: 0.05, Seed: sc.Seed})
		benchBuilt.ds = ds
		benchBuilt.m = map[string]*assemble.Built{}
		cfg := index.Config{SeriesLen: sc.SeriesLen, Segments: sc.Segments, Bits: sc.Bits}
		for _, v := range workload.Variants {
			built, err := assemble.Build(specFor(v, cfg, assemble.Spec{}), ds)
			if err != nil {
				panic(err)
			}
			benchBuilt.m[v] = built
		}
	})
	return benchBuilt.m, benchBuilt.ds
}

func BenchmarkBuild(b *testing.B) {
	sc := benchScale()
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 5000, Len: sc.SeriesLen, FracEvent: 0.05, Seed: sc.Seed})
	cfg := index.Config{SeriesLen: sc.SeriesLen, Segments: sc.Segments, Bits: sc.Bits}
	for _, v := range workload.Variants {
		b.Run(v, func(b *testing.B) {
			var st storage.Stats
			for i := 0; i < b.N; i++ {
				built, err := assemble.Build(specFor(v, cfg, assemble.Spec{}), ds)
				if err != nil {
					b.Fatal(err)
				}
				st = built.BuildStats
			}
			b.ReportMetric(st.Cost(storage.DefaultCostModel), "io-cost")
			// Every pass of a bulk load over its entries shows here: a pass
			// that only copies them is a step in this number.
			b.ReportMetric(float64(st.SeqWrites+st.RandWrites)/5000, "pages-written/series")
			b.ReportMetric(float64(5000)/b.Elapsed().Seconds()*float64(b.N), "series/s")
		})
	}
}

func BenchmarkQuery(b *testing.B) {
	m, _ := builds(b)
	sc := benchScale()
	cfg := index.Config{SeriesLen: sc.SeriesLen, Segments: sc.Segments, Bits: sc.Bits}
	rng := rand.New(rand.NewSource(9))
	queries := make([]series.Series, 32)
	for i := range queries {
		queries[i] = gen.RandomWalk(rng, sc.SeriesLen)
	}
	for _, v := range workload.Variants {
		for _, mode := range []string{"approx", "exact"} {
			b.Run(fmt.Sprintf("%s/%s", v, mode), func(b *testing.B) {
				built := m[v]
				before := built.Disk.Stats()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q := index.NewQuery(queries[i%len(queries)], cfg)
					var err error
					if mode == "exact" {
						_, err = built.ExactSearch(q, 1)
					} else {
						_, err = built.ApproxSearch(q, 1)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				diff := built.Disk.Stats().Sub(before)
				b.ReportMetric(diff.Cost(storage.DefaultCostModel)/float64(b.N), "io-cost/query")
			})
		}
	}
}

// --- Experiment benchmarks: one per table/figure (reduced scale). ---

func BenchmarkE1Construction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E1Construction(benchScale(), []int{2000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Query(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E2Query(benchScale(), 2000, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3Materialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E3Materialization(benchScale(), 2000, []int{1, 100, 10000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E4Memory(benchScale(), 2000, []float64{0.01, 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5Tradeoffs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E5FillFactor(benchScale(), 2000, 100, 5, []float64{0.5, 1.0}); err != nil {
			b.Fatal(err)
		}
		if _, err := workload.E5GrowthFactor(benchScale(), 2000, 5, []int{2, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Streaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E6Streaming(benchScale(), 16, 50, 128, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Heatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := workload.E7Heatmap(benchScale(), 2000, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8Recommender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = workload.E8Recommender()
	}
}

func BenchmarkE9Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E9Storage(benchScale(), []int{2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Streaming ingest benchmark (Scenario 2's write path). ---

func BenchmarkStreamIngest(b *testing.B) {
	for _, kind := range []SchemeKind{PP, TP, BTP} {
		b.Run(string(kind), func(b *testing.B) {
			s, err := NewStream(kind, Options{SeriesLen: 128, BufferEntries: 512})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			ser := make([][]float64, 256)
			for i := range ser {
				ser[i] = gen.RandomWalk(rng, 128)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Ingest(ser[i%len(ser)], int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel query engine benchmark (speedup trajectory in TRAJECTORY.md). ---

// BenchmarkParallelSearch measures exact k-NN latency on a multi-run LSM
// workload at 1/2/4/8 workers. The serial path and every parallel width
// return identical results (see parallel_equivalence_test.go); this
// benchmark tracks the wall-clock side of that trade. Run on a multi-core
// machine: with GOMAXPROCS=1 the pool degenerates to interleaving and no
// speedup is possible.
func BenchmarkParallelSearch(b *testing.B) {
	const n, length = 20000, 128
	rng := rand.New(rand.NewSource(5))
	data := make([][]float64, n)
	for i := range data {
		data[i] = gen.RandomWalk(rng, length)
	}
	queries := make([][]float64, 32)
	for i := range queries {
		queries[i] = gen.RandomWalk(rng, length)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		// Small buffer + high growth factor: a deep, many-run read path —
		// the shape the worker pool is built to fan out over.
		l, err := NewLSM(Options{
			SeriesLen: length, Parallelism: workers,
			BufferEntries: 512, GrowthFactor: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i, s := range data {
			if err := l.Insert(s, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(l.Runs()), "runs")
			for i := 0; i < b.N; i++ {
				if _, err := l.Search(queries[i%len(queries)], 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBufferSearch measures the queries a durable LSM serves while
// its write buffer is most of the way full: a CLSMFull whose 4 096-entry
// buffer holds 2 560 entries over 16 384 flushed ones, on the simulated
// disk, one worker. A window query spans the newest 20 000 timestamps and
// an approximate query all of them; either evaluates the whole buffer,
// bounded from its symbol column, before it reaches the runs.
func BenchmarkBufferSearch(b *testing.B) {
	const length, buffer, flushed, buffered, window, k = 64, 4096, 4 * 4096, 2560, 20000, 10
	rng := rand.New(rand.NewSource(7))
	l, err := NewLSM(Options{SeriesLen: length, Materialized: true, BufferEntries: buffer, GrowthFactor: 4, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < flushed+buffered; i++ {
		if err := l.Insert(gen.RandomWalk(rng, length), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Quiesce(); err != nil {
		b.Fatal(err)
	}
	if got := l.CompactionStats().Flushes; got != flushed/buffer {
		b.Fatalf("%d flushes, want %d with %d entries left buffered", got, flushed/buffer, buffered)
	}
	queries := make([][]float64, 32)
	for i := range queries {
		queries[i] = gen.RandomWalk(rng, length)
	}
	hi := int64(flushed + buffered - 1)
	for _, c := range []struct {
		name   string
		search func(q []float64) ([]Match, error)
	}{
		{"window", func(q []float64) ([]Match, error) { return l.SearchWindow(q, k, hi-window+1, hi) }},
		{"approx", func(q []float64) ([]Match, error) { return l.SearchApprox(q, k) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Sharded + batched execution benchmark (PR 3's layer). ---

// BenchmarkBatchSearch measures exact k-NN throughput over a CoconutTree
// at several shard counts, comparing one-query-at-a-time execution against
// SearchBatch (pooled per-worker contexts, queries spread across the
// pool). One benchmark op is a full 32-query sweep; the qps metric is the
// per-query throughput. All configurations return byte-identical results
// (pinned by sharded_equivalence_test.go).
func BenchmarkBatchSearch(b *testing.B) {
	const n, length, k = 20000, 128, 5
	rng := rand.New(rand.NewSource(6))
	data := make([][]float64, n)
	for i := range data {
		data[i] = gen.RandomWalk(rng, length)
	}
	queries := make([][]float64, 32)
	for i := range queries {
		queries[i] = gen.RandomWalk(rng, length)
	}
	opts := Options{SeriesLen: length, Materialized: true}
	for _, shards := range []int{1, 2, 4} {
		type searcher interface {
			Search(q []float64, k int) ([]Match, error)
			SearchBatch(qs [][]float64, k int) ([][]Match, error)
		}
		var idx searcher
		if shards == 1 {
			t, err := BuildTree(data, opts)
			if err != nil {
				b.Fatal(err)
			}
			idx = t
		} else {
			sh, err := BuildShardedTree(data, shards, opts)
			if err != nil {
				b.Fatal(err)
			}
			idx = sh
		}
		b.Run(fmt.Sprintf("shards=%d/loop", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := idx.Search(q, k); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "qps")
		})
		b.Run(fmt.Sprintf("shards=%d/batch", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := idx.SearchBatch(queries, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "qps")
		})
	}
}

func BenchmarkE10Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E10Ablation(benchScale(), 2000, 50, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11Cardinality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E11Cardinality(benchScale(), 1000, 5, []int{1, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12Recall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.E12Recall(benchScale(), 1000, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Buffer-pool benchmark (PR 4's layer): cold vs warm cache. ---

// BenchmarkCachedSearch measures exact k-NN latency on a non-materialized
// CTree whose raw series file lives on the same disk — the workload where
// the buffer pool earns its keep, because every verified candidate pays a
// raw-page fetch. "cold" purges the pool before every query; "warm" runs
// after a warming pass, so index and raw pages are served from pinned
// frames with zero copies. "warm-pin" isolates the page-fetch primitive
// itself: a warm PinPage/Release must be 0 allocs/op (the gate asserts
// allocations never grow), which is what keeps the whole warm search path
// allocation-flat. io-cost/query shows the accounting side: warm cost
// collapses to the misses, i.e. zero at this cache size.
func BenchmarkCachedSearch(b *testing.B) {
	sc := benchScale()
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 10000, Len: sc.SeriesLen, FracEvent: 0.05, Seed: sc.Seed})
	cfg := index.Config{SeriesLen: sc.SeriesLen, Segments: sc.Segments, Bits: sc.Bits}
	built, err := assemble.Build(specFor("CTree", cfg, assemble.Spec{CacheBytes: 64 << 20}), ds)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	queries := make([]index.Query, 32)
	for i := range queries {
		queries[i] = index.NewQuery(gen.RandomWalk(rng, sc.SeriesLen), cfg)
	}
	run := func(b *testing.B, purge bool) {
		b.ReportAllocs()
		before := built.IOStats()
		for i := 0; i < b.N; i++ {
			if purge {
				built.Pool.Purge()
			}
			if _, err := built.ExactSearch(queries[i%len(queries)], 5); err != nil {
				b.Fatal(err)
			}
		}
		diff := built.IOStats().Sub(before)
		b.ReportMetric(diff.Cost(storage.DefaultCostModel)/float64(b.N), "io-cost/query")
		b.ReportMetric(100*diff.HitRatio(), "hit%")
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	// Warming pass: one sweep of the query set fills the pool.
	for _, q := range queries {
		if _, err := built.ExactSearch(q, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("warm", func(b *testing.B) { run(b, false) })
	b.Run("warm-pin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := built.Pool.PinPage("ctree.leaves", int64(i%8))
			if err != nil {
				b.Fatal(err)
			}
			h.Release()
		}
	})
}

// BenchmarkFileBackendSearch measures exact k-NN search on the file-backed
// page store against the simulated-disk baseline over the same build. The
// bench gate watches it: a regression in the file rows means the pread
// path or the page-file layout got slower — the algorithmic cost is pinned
// by the sim rows, which share every line of index code.
func BenchmarkFileBackendSearch(b *testing.B) {
	sc := benchScale()
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 10000, Len: sc.SeriesLen, FracEvent: 0.05, Seed: sc.Seed})
	cfg := index.Config{SeriesLen: sc.SeriesLen, Segments: sc.Segments, Bits: sc.Bits}
	rng := rand.New(rand.NewSource(16))
	queries := make([]index.Query, 32)
	for i := range queries {
		queries[i] = index.NewQuery(gen.RandomWalk(rng, sc.SeriesLen), cfg)
	}
	for _, bk := range []struct {
		name string
		opts assemble.Spec
	}{
		{"sim", assemble.Spec{}},
		{"file", assemble.Spec{StorageDir: b.TempDir()}},
	} {
		built, err := assemble.Build(specFor("CTree", cfg, bk.opts), ds)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bk.name, func(b *testing.B) {
			b.ReportAllocs()
			before := built.IOStats()
			for i := 0; i < b.N; i++ {
				if _, err := built.ExactSearch(queries[i%len(queries)], 5); err != nil {
					b.Fatal(err)
				}
			}
			diff := built.IOStats().Sub(before)
			b.ReportMetric(diff.Cost(storage.DefaultCostModel)/float64(b.N), "io-cost/query")
		})
		if err := built.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Query-planner benchmark (PR 7's layer): planner off/on. ---

// BenchmarkPlannedSearch measures exact k-NN latency on a non-materialized
// CTree under the statistics-driven planner, on the workload where it earns
// its keep: skewed queries (perturbations of indexed series), so the
// collector's bound tightens immediately and leaf-range envelopes
// disqualify most probes before their pages are read. "off" disables the
// planner (the paper-faithful probe order) and "cold" plans every query
// (cmd/benchgate pairs sub-benchmarks with the base run by name, so the
// names stay) — planning must add zero allocations over the off path (the
// gate asserts allocations never grow; the planned fill itself is pinned
// at 0 allocs/op by planner_test.go).
// Every configuration returns byte-identical results (pinned by
// planner_equivalence_test.go); io-cost/query shows the savings, which the
// bench gate tracks alongside time and allocations.
func BenchmarkPlannedSearch(b *testing.B) {
	sc := benchScale()
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 10000, Len: sc.SeriesLen, FracEvent: 0.05, Seed: sc.Seed})
	cfg := index.Config{SeriesLen: sc.SeriesLen, Segments: sc.Segments, Bits: sc.Bits}
	raw, _ := gen.Queries(ds, 32, 0.02, sc.Seed+17)
	queries := make([]index.Query, len(raw))
	for i, q := range raw {
		queries[i] = index.NewQuery(q, cfg)
	}
	run := func(b *testing.B, built *assemble.Built) {
		b.ReportAllocs()
		before := built.IOStats()
		skipsBefore := built.Searched.PlannedSkips()
		for i := 0; i < b.N; i++ {
			if _, err := built.ExactSearch(queries[i%len(queries)], 5); err != nil {
				b.Fatal(err)
			}
		}
		diff := built.IOStats().Sub(before)
		b.ReportMetric(diff.Cost(storage.DefaultCostModel)/float64(b.N), "io-cost/query")
		b.ReportMetric(float64(built.Searched.PlannedSkips()-skipsBefore)/float64(b.N), "skips/query")
	}
	// MemBudget keeps leaves small: many leaf ranges, the unit the planner
	// orders and skips.
	for _, mode := range []struct {
		name string
		off  bool
	}{{"off", true}, {"cold", false}} {
		built, err := assemble.Build(specFor("CTree", cfg, assemble.Spec{MemBudget: 64 << 10}), ds)
		if err != nil {
			b.Fatal(err)
		}
		built.Planner.Disabled = mode.off
		b.Run(mode.name, func(b *testing.B) { run(b, built) })
	}
}

// --- SIMD and key-only search benchmarks. ---

// BenchmarkDistKernels measures the three hot distance primitives under
// each kernel set this machine offers (always "scalar", plus "avx2" or
// "neon" when usable): the raw early-abandoning squared distance, its
// fused decode-from-page variant, and the blocked MinDist table sum. The
// bench gate watches the sub-benchmarks by name, so a regression in either
// the accelerated or the portable path fails on its own row.
func BenchmarkDistKernels(b *testing.B) {
	defer simd.Select("auto")
	rng := rand.New(rand.NewSource(27))
	const points = 256
	q := make([]float64, points)
	t := make([]float64, points)
	for i := range q {
		q[i], t[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	enc := series.Series(t).AppendBinary(nil)
	tab := make([]float64, 4096)
	for i := range tab {
		tab[i] = rng.Float64()
	}
	idx := make([]int32, 16)
	for i := range idx {
		idx[i] = int32(rng.Intn(len(tab)))
	}
	inf := math.Inf(1)
	for _, impl := range simd.Available() {
		if err := simd.Select(impl); err != nil {
			b.Fatal(err)
		}
		b.Run("SqDist/"+impl, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = simd.SqDist(q, t, inf)
			}
		})
		b.Run("SqDistEncoded/"+impl, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = simd.SqDistEncoded(q, enc, inf)
			}
		})
		b.Run("TableSum/"+impl, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = simd.TableSum(tab, idx)
			}
		})
	}
}

// BenchmarkCompressedSearch measures exact k-NN search on the key-only tree
// and LSM at the E-table scale — the leaf and run scans with the raw fetches
// that verify their candidates — and reports the io-cost of both. Every
// build writes fixed-size pages; the rows keep the names they had beside
// packed ones, so the bench gate compares them with earlier commits.
func BenchmarkCompressedSearch(b *testing.B) {
	sc := benchScale()
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 10000, Len: sc.SeriesLen, FracEvent: 0.05, Seed: sc.Seed})
	cfg := index.Config{SeriesLen: sc.SeriesLen, Segments: sc.Segments, Bits: sc.Bits}
	rng := rand.New(rand.NewSource(28))
	queries := make([]index.Query, 32)
	for i := range queries {
		queries[i] = index.NewQuery(gen.RandomWalk(rng, sc.SeriesLen), cfg)
	}
	for _, variant := range []string{"CTree", "CLSM"} {
		built, err := assemble.Build(specFor(variant, cfg, assemble.Spec{}), ds)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(variant+"/fixed", func(b *testing.B) {
			b.ReportAllocs()
			before := built.IOStats()
			for i := 0; i < b.N; i++ {
				if _, err := built.ExactSearch(queries[i%len(queries)], 5); err != nil {
					b.Fatal(err)
				}
			}
			diff := built.IOStats().Sub(before)
			b.ReportMetric(diff.Cost(storage.DefaultCostModel)/float64(b.N), "io-cost/query")
		})
	}
}

// --- Sequential-scan benchmark: the page cursor against one pin per page. ---

// BenchmarkScan reads one 2 341-page file front to back per iteration — the
// largest run of the durable_lsm benchmark workload, behind that workload's
// 2 048-frame cache — the way a scan used to (one PinPage per page:
// "file-pinpage", and through the pool "pool-flooded", where every page is
// a miss that evicts a page the next pass wants) and the way it does now
// (PageReader.Scan: "file-cursor" reads ahead a chunk per pread, "pool-bypass"
// keeps the scan's misses out of the cache, "sim" is the simulated disk's
// zero-copy pin). ns/page is the figure to compare.
func BenchmarkScan(b *testing.B) {
	const pages = 2341
	fill := func(d storage.Backend) {
		if err := d.Create("run"); err != nil {
			b.Fatal(err)
		}
		if _, err := d.AppendPages("run", make([]byte, pages*d.PageSize())); err != nil {
			b.Fatal(err)
		}
	}
	sim := storage.NewDisk(0)
	file, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer file.Close()
	fill(sim)
	fill(file)
	pinEach := func(r storage.PageReader) func() error {
		return func() error {
			for p := int64(0); p < pages; p++ {
				h, err := r.PinPage("run", p)
				if err != nil {
					return err
				}
				h.Release()
			}
			return nil
		}
	}
	cursor := func(r storage.PageReader) func() error {
		return func() error {
			cur := r.Scan("run", 0, pages)
			defer cur.Close()
			for p := int64(0); p < pages; p++ {
				if _, err := cur.Pin(p); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, bc := range []struct {
		name string
		scan func() error
	}{
		{"file-pinpage", pinEach(file)},
		{"file-cursor", cursor(file)},
		{"pool-flooded", pinEach(bufpool.New(file, 2048*storage.DefaultPageSize))},
		{"pool-bypass", cursor(bufpool.New(file, 2048*storage.DefaultPageSize))},
		{"sim", cursor(sim)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.scan(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pages, "ns/page")
		})
	}
}

// runBench writes one run of n materialized entries of seriesLen points with
// timestamps 0..n-1 — at length 64 seven to a page, like the durable_lsm and
// stream_window workloads', at 128 three, like static_tree's leaves — and
// returns it with its resident summary.
func runBench(b *testing.B, n, seriesLen int) (s run.Store, r run.Run, q index.Query) {
	cfg := index.Config{SeriesLen: seriesLen, Segments: 16, Bits: 8, Materialized: true}
	rng := rand.New(rand.NewSource(7))
	entries := make([]record.Entry, n)
	for i := range entries {
		key, z := cfg.Summarize(gen.RandomWalk(rng, cfg.SeriesLen))
		entries[i] = record.Entry{Key: key, ID: int64(i), TS: int64(i), Payload: z}
	}
	record.Sort(entries)
	s = run.NewStore(storage.NewDisk(0), nil, cfg, nil)
	r, err := s.Write("run", entries)
	if err != nil {
		b.Fatal(err)
	}
	return s, r, index.NewQuery(gen.RandomWalk(rng, cfg.SeriesLen), cfg)
}

// BenchmarkRunScan is one exact window scan of a 16 384-entry run (2 341
// pages), the newest eighth of its timestamps in the window, into a
// collector a probe has seeded: bounding and window-filtering every entry
// from the resident SAX and timestamp columns ("column"), and with each
// group's and page's envelope tested first and dead stretches left unread
// ("column+envelope", what a search does). ns/page, over every page of the
// run, is the figure to compare. (The page-key scan the columns
// replaced is the equivalence suites' reference, not a benchmark.)
func BenchmarkRunScan(b *testing.B) {
	const n = 16384
	s, r, q := runBench(b, n, 64)
	q = q.WithWindow(n-n/8, n)
	ctx := index.AcquireCtx(q, s.Config)
	defer ctx.Release()
	sc := ctx.Scratch0()
	pages := r.Sum.Pages()
	neverDead := index.NewCollector(1) // empty: rules out no page by its envelope
	for _, bc := range []struct {
		name string
		scan func(col *index.Collector) error
	}{
		{"column", func(col *index.Collector) error {
			return s.Scan(r, 0, 0, pages, obs.PageUnit, q, sc, neverDead, func(q *index.Query, pg *index.Page) error {
				_, err := index.EvalPage(q, pg, nil, col, sc)
				return err
			})
		}},
		{"column+envelope", func(col *index.Collector) error { return s.ScanRun(r, q, col, sc) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col := index.NewCollector(10)
				if err := s.Probe(r, q, col, sc); err != nil {
					b.Fatal(err)
				}
				if err := bc.scan(col); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pages), "ns/page")
		})
	}
}

// BenchmarkRunProbe is one approximate probe of the same run: the covering
// page found by searching the fence keys the resident column holds
// ("fence"), then pinned and evaluated — a CLSM run's probe; and BTP's
// ranked probe of a window query over the newest eighth of the run
// ("ranked"), which bounds the best groups' pages from the resident columns
// and reads up to its budget of eight of them. "ranked-ctree" is a CTree's
// ranked probe, without a window, of a leaf level the size of static_tree's:
// 100 000 materialized series of 128 points, three to a 4 KiB page, 33 334
// pages, built at the row's first run. (Pinning first keys, or the ranked
// candidates, off their pages instead is the equivalence suites' reference,
// not a benchmark.)
func BenchmarkRunProbe(b *testing.B) {
	const n = 16384
	s, r, q := runBench(b, n, 64)
	windowed := q.WithWindow(n-n/8, n)
	ranked := func(kind obs.Kind) func(*run.Store, run.Run, index.Query, *index.Collector, *index.Scratch) error {
		return func(s *run.Store, r run.Run, q index.Query, col *index.Collector, sc *index.Scratch) error {
			return s.RankedProbe(r, kind, q, col, sc)
		}
	}
	var leaves struct { // the leaf level, built once
		s run.Store
		r run.Run
		q index.Query
	}
	for _, bc := range []struct {
		name  string
		data  func(b *testing.B) (run.Store, run.Run, index.Query)
		probe func(*run.Store, run.Run, index.Query, *index.Collector, *index.Scratch) error
	}{
		{"fence", func(*testing.B) (run.Store, run.Run, index.Query) { return s, r, q }, (*run.Store).Probe},
		{"ranked", func(*testing.B) (run.Store, run.Run, index.Query) { return s, r, windowed }, ranked(obs.PageUnit)},
		{"ranked-ctree", func(b *testing.B) (run.Store, run.Run, index.Query) {
			if leaves.r.Sum == nil {
				leaves.s, leaves.r, leaves.q = runBench(b, 100_000, 128)
				if pages := leaves.r.Sum.Pages(); pages != 33_334 {
					b.Fatalf("fixture: %d leaf pages", pages)
				}
			}
			return leaves.s, leaves.r, leaves.q
		}, ranked(obs.LeafUnit)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, r, q := bc.data(b)
			ctx := index.AcquireCtx(q, s.Config)
			defer ctx.Release()
			sc := ctx.Scratch0()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.probe(&s, r, q, index.NewCollector(10), sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Request decoding: the serving tier's JSON in. ---

// BenchmarkRequestDecode decodes request bodies through server.DecodeRequest,
// the one decoder every node and router handler reads a body with: a
// 32 × 128 /api/insert batch, the router's ingest unit, as a node decodes
// it and as the router does (server.InsertLiterals), and a 128-point
// /api/query. The bodies are json.Marshal's, as a Go client sends them.
func BenchmarkRequestDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	batch := make([][]float64, 32)
	for i := range batch {
		batch[i] = gen.RandomWalk(rng, 128)
	}
	for _, bc := range []struct {
		name string
		req  any
		into func() any
	}{
		{"insert-32x128", server.InsertRequest{Build: "build-1", Series: batch, TS: 1}, func() any { return new(server.InsertRequest) }},
		{"insert-32x128-literals", server.InsertRequest{Build: "build-1", Series: batch, TS: 1}, func() any { return new(server.InsertLiterals) }},
		{"query-128", server.QueryRequest{Build: "build-1", Series: batch[0], K: 10, Exact: true}, func() any { return new(server.QueryRequest) }},
	} {
		body, err := json.Marshal(bc.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			rec := httptest.NewRecorder()
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/api/insert", io.NopCloser(rd))
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				if !server.DecodeRequest(rec, req, bc.into()) {
					b.Fatalf("refused: %s", rec.Body)
				}
			}
		})
	}
}

// BenchmarkRoutedInsert times one 32 × 128 insert through the router: a
// router over two in-process nodes on loopback HTTP, each holding every
// shard of a 4-shard CTreeFull cluster build, so each op decodes the
// client's body, writes both replicas and waits for them. The body is
// json.Marshal's, as a Go client sends it. Run it with -benchmem.
func BenchmarkRoutedInsert(b *testing.B) {
	const (
		shards = 4
		length = 128
	)
	post := func(url string, req, out any) {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			b.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			b.Fatal(err)
		}
	}
	all := []int{0, 1, 2, 3}
	var topo cluster.Topology
	topo.Shards, topo.SeriesLen = shards, length
	for _, name := range []string{"a", "b"} {
		node := httptest.NewServer(server.New().Handler())
		defer node.Close()
		var d server.DatasetResponse
		post(node.URL+"/api/datasets", server.DatasetRequest{Kind: "randomwalk", N: 1000, Len: length, Seed: 55}, &d)
		var built server.BuildResponse
		post(node.URL+"/api/build", server.BuildRequest{Dataset: d.ID, Variant: "CTreeFull", ClusterShards: shards, NodeShards: all}, &built)
		topo.Nodes = append(topo.Nodes, cluster.Node{Name: name, URL: node.URL, Build: built.ID, Shards: all})
	}
	r, err := cluster.New(topo, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	h := r.Handler()

	rng := rand.New(rand.NewSource(56))
	batch := make([][]float64, 32)
	for i := range batch {
		batch[i] = gen.RandomWalk(rng, length)
	}
	body, err := json.Marshal(server.InsertRequest{Series: batch, TS: 1})
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/insert", io.NopCloser(rd)))
		if rec.Code != http.StatusOK {
			b.Fatalf("insert: status %d, %s", rec.Code, rec.Body)
		}
	}
}
