package workload

import (
	"fmt"
	"sort"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/heatmap"
	"repro/internal/index"
	"repro/internal/recommender"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/stream"
)

// streamScheme is one Scenario 2 contender and the assembled build under it,
// which the caller closes: every scheme gets the same storage half — a fresh
// disk, and a raw series file on a heap disk of its own — so relative index
// I/O is what the experiment isolates.
type streamScheme struct {
	name string
	stream.Scheme
	b *assemble.Built
}

// StreamSchemes builds the Scenario 2 contenders, in table order: the ADS+
// baselines with PP and TP, the CTree variants, and the recommender's choice
// CLSM+BTP. PP wraps an ordinary (empty) build of its base index; TP and BTP
// manage their own partitions over the storage half of one (assemble.Base),
// as coconut.NewStream has them.
func StreamSchemes(sc Scale, bufferEntries int) ([]streamScheme, error) {
	sc = sc.defaults()
	cfg := sc.config()
	builds := []struct {
		name string
		pp   string // PP: its base index's variant
		tp   func(storage.Backend, storage.PageReader, index.Config, series.RawStore) stream.PartitionFactory
	}{
		{name: "ADS+PP", pp: "ADS+"},
		{name: "ADS+TP", tp: stream.ADSFactory},
		{name: "CLSM+PP", pp: "CLSM"},
		{name: "CTree+TP", tp: stream.CTreeFactory},
		{name: "CLSM+BTP"},
	}
	var out []streamScheme
	for _, bld := range builds {
		// Searches fan out on the default pool, as TP's and BTP's own do.
		spec := sc.spec("CLSM", assemble.Spec{RawInMemory: true, BufferEntries: bufferEntries, Parallelism: -1})
		s := streamScheme{name: bld.name}
		var err error
		if bld.pp != "" {
			spec.Variant = bld.pp
			if s.b, err = assemble.Build(spec, nil); err == nil {
				s.Scheme = stream.NewPP(s.b.Index.(stream.EntryIndex), cfg)
			}
		} else if s.b, err = assemble.Base(spec); err == nil {
			if raw := s.b.Raw; bld.tp != nil {
				s.Scheme, err = stream.NewTP("tp", cfg, bld.tp(s.b.Disk, nil, cfg, raw), bufferEntries, raw)
			} else {
				s.Scheme, err = stream.NewBTP(s.b.Disk, nil, "btp", cfg, bufferEntries, 2, raw)
			}
		}
		if s.b != nil {
			out = append(out, s)
		}
		if err != nil {
			closeSchemes(out)
			return nil, err
		}
		if p, ok := s.Scheme.(interface{ SetPlanner(*index.Planner) }); ok {
			p.SetPlanner(s.b.Planner)
		}
	}
	return out, nil
}

func closeSchemes(schemes []streamScheme) {
	for _, s := range schemes {
		s.b.Close()
	}
}

// E6Streaming regenerates Scenario 2: a seismic stream is ingested by each
// scheme, then windowed exact queries of increasing width are issued.
// Expected shape: CLSM+BTP sustains cheap ingest while keeping window
// queries cheap at every width and partitions bounded; ADS+PP pays for the
// whole history at every query; ADS+TP degrades for wide windows as
// partitions accumulate.
func E6Streaming(sc Scale, batches, batchSize, bufferEntries, numQueries int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("streaming: ingest + windowed exact queries (%d batches x %d series)", batches, batchSize),
		Note:    "window widths as fractions of history; expect CLSM+BTP cheapest overall with bounded partitions",
		Columns: []string{"scheme", "ingest cost", "q 5% win", "q 25% win", "q 100% win", "partitions"},
	}
	data := gen.Seismic(gen.SeismicConfig{
		Batches: batches, BatchSize: batchSize, Len: sc.SeriesLen,
		QuakeProb: 0.02, Seed: sc.Seed + 6,
	})
	maxTS := data[len(data)-1].TS
	queries := gen.TemplateQueries(gen.TemplateEarthquake, sc.SeriesLen, numQueries, 0.2, sc.Seed+7)

	schemes, err := StreamSchemes(sc, bufferEntries)
	if err != nil {
		return nil, err
	}
	defer closeSchemes(schemes)
	cfg := sc.config()
	for _, s := range schemes {
		name, disk := s.name, s.b.Disk
		disk.ResetStats()
		for _, b := range data {
			for _, ser := range b.Series {
				if _, err := s.b.Raw.Append(ser.ZNormalize()); err != nil {
					return nil, fmt.Errorf("E6 %s raw series: %w", name, err)
				}
				if _, err := s.Ingest(ser, b.TS); err != nil {
					return nil, fmt.Errorf("E6 %s ingest: %w", name, err)
				}
			}
		}
		ingestCost := disk.Stats().Cost(sc.Cost)

		runWin := func(frac float64) (float64, error) {
			minTS := maxTS - int64(frac*float64(maxTS))
			disk.ResetStats()
			for _, q := range queries {
				pq := index.NewQuery(q, cfg).WithWindow(minTS, maxTS)
				if _, err := s.ExactSearch(pq, 1); err != nil {
					return 0, err
				}
			}
			return disk.Stats().Cost(sc.Cost) / float64(len(queries)), nil
		}
		q5, err := runWin(0.05)
		if err != nil {
			return nil, fmt.Errorf("E6 %s q5: %w", name, err)
		}
		q25, err := runWin(0.25)
		if err != nil {
			return nil, err
		}
		q100, err := runWin(1.0)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprintf("%.0f", ingestCost),
			fmt.Sprintf("%.1f", q5), fmt.Sprintf("%.1f", q25), fmt.Sprintf("%.1f", q100),
			fmt.Sprintf("%d", s.Partitions()))
	}
	return t, nil
}

// E7Heatmap regenerates the demo's access-pattern comparison: page traces
// of CTree vs ADS+ during construction and exact queries, summarized as
// jump statistics plus ASCII heat maps. Expected shape: CTree's trace is
// near-fully sequential with short jumps; ADS+'s is scattered.
func E7Heatmap(sc Scale, n, numQueries int) (*Table, []string, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("access-pattern heat map at N=%d (%d exact queries)", n, numQueries),
		Note:    "seq frac = accesses continuing the previous one; expect CTree >> ADS+",
		Columns: []string{"variant", "phase", "accesses", "seq frac", "avg jump", "file swaps"},
	}
	ds := sc.dataset(n)
	queries, _ := gen.Queries(ds, numQueries, 0.05, sc.Seed+8)
	var art []string
	for _, v := range []string{"CTree", "ADS+"} {
		// Build under trace.
		rec := heatmap.NewRecorder()
		built, err := assemble.Build(sc.spec(v, assemble.Spec{RawInMemory: true, Tracer: rec}), ds)
		if err != nil {
			return nil, nil, fmt.Errorf("E7 %s: %w", v, err)
		}
		idx := built.Index
		js := rec.Jumps()
		t.AddRow(v, "build", fmt.Sprintf("%d", js.Accesses),
			fmt.Sprintf("%.2f", js.SeqFrac), fmt.Sprintf("%.1f", js.AvgJump), fmt.Sprintf("%d", js.FileSwaps))
		art = append(art, hottestMaps(rec, v+" build", 6)...)
		// Queries under a fresh trace.
		rec.Reset()
		for _, q := range queries {
			pq := index.NewQuery(q, sc.config())
			if _, err := idx.ExactSearch(pq, 1); err != nil {
				return nil, nil, err
			}
		}
		js = rec.Jumps()
		t.AddRow(v, "query", fmt.Sprintf("%d", js.Accesses),
			fmt.Sprintf("%.2f", js.SeqFrac), fmt.Sprintf("%.1f", js.AvgJump), fmt.Sprintf("%d", js.FileSwaps))
		art = append(art, hottestMaps(rec, v+" query", 6)...)
	}
	return t, art, nil
}

// hottestMaps renders the top-k most-accessed files of a trace; ADS+ spawns
// one extent per leaf, so the long cold tail is summarized instead of
// printed.
func hottestMaps(rec *heatmap.Recorder, label string, k int) []string {
	maps := rec.RenderAll(60)
	sort.Slice(maps, func(i, j int) bool { return total(maps[i]) > total(maps[j]) })
	var out []string
	for i, m := range maps {
		if i >= k {
			out = append(out, fmt.Sprintf("[%s] ... and %d more files", label, len(maps)-k))
			break
		}
		out = append(out, fmt.Sprintf("[%s] %s", label, m.ASCII()))
	}
	return out
}

func total(m heatmap.Map) int {
	n := 0
	for _, c := range m.Buckets {
		n += c
	}
	return n
}

// E8Recommender regenerates the recommender decision table over the
// scenario grid, checking the demo's two scripted choices along the way.
func E8Recommender() *Table {
	t := &Table{
		ID:      "E8",
		Title:   "recommender decision table",
		Note:    "Scenario 1 (static, few queries) -> CTree; +queries -> CTreeFull; Scenario 2 (streaming) -> CLSM+BTP",
		Columns: []string{"streaming", "queries", "memory", "storage-tight", "windows", "recommendation"},
	}
	for _, streaming := range []bool{false, true} {
		for _, q := range []int{10, 1000} {
			for _, mem := range []float64{0.01, 0.25} {
				for _, tight := range []bool{false, true} {
					s := recommender.Scenario{
						Streaming:        streaming,
						ExpectedQueries:  q,
						MemoryBudgetFrac: mem,
						StorageTight:     tight,
						SmallWindows:     streaming,
					}
					r := recommender.Recommend(s)
					win := "-"
					if streaming {
						win = "small"
					}
					t.AddRow(fmt.Sprintf("%v", streaming), fmt.Sprintf("%d", q),
						fmt.Sprintf("%.0f%%", mem*100), fmt.Sprintf("%v", tight), win, r.Variant())
				}
			}
		}
	}
	return t
}

// E9Storage regenerates the footprint comparison: index pages per variant
// (raw series file excluded) across dataset sizes. Expected shape: Coconut
// indexes are compact (packed pages); ADS+ leaves are sparse; materialized
// variants pay the payload multiple.
func E9Storage(sc Scale, sizes []int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E9",
		Title:   "index storage footprint (pages, raw file excluded)",
		Note:    "expect CTree <= CLSM < ADS+ within a materialization class",
		Columns: append([]string{"N"}, Variants...),
	}
	for _, n := range sizes {
		ds := sc.dataset(n)
		row := []string{fmt.Sprintf("%d", n)}
		for _, v := range Variants {
			b, err := assemble.Build(sc.spec(v, assemble.Spec{}), ds)
			if err != nil {
				return nil, fmt.Errorf("E9 %s n=%d: %w", v, n, err)
			}
			row = append(row, fmt.Sprintf("%d", b.IndexPages))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// RunAll executes every experiment at the given scale factors and returns
// the tables in order. Used by cmd/coconut-bench.
type RunConfig struct {
	Scale Scale
	// E3Scale and E5Scale default to shorter series (64 points) so that
	// several materialized entries pack per page: the materialization
	// crossover (E3) and the leaf fill factor (E5a) only have room to act
	// when a leaf holds more than one entry. See EXPERIMENTS.md.
	E3Scale     Scale
	E5Scale     Scale
	E1Sizes     []int
	E2N         int
	E2Queries   int
	E3N         int
	E3Counts    []int
	E4N         int
	E4Fracs     []float64
	E5N         int
	E5Inserts   int
	E5Queries   int
	E5Fills     []float64
	E5Growths   []int
	E6Batches   int
	E6BatchSize int
	E6Buffer    int
	E6Queries   int
	E7N         int
	E7Queries   int
	E9Sizes     []int
	E13N        int
	E13Queries  int
	E13K        int
	E13Shards   []int
	E14N        int
	E14Queries  int
	E14K        int
	E14CacheKB  []int
	E15N        int
	E15Queries  int
	E15K        int
	E15Workers  []int
	E16N        int
	E16Queries  int
	E16K        int
	// E16Dir roots the file-backend experiment's page files; empty uses a
	// temp directory removed afterwards.
	E16Dir     string
	E17N       int
	E17Queries int
	E17K       int
}

// DefaultRunConfig returns the laptop-scale defaults used by
// cmd/coconut-bench (a few seconds per experiment).
func DefaultRunConfig() RunConfig {
	return RunConfig{
		E3Scale:     Scale{SeriesLen: 64, Segments: 8, Bits: 8},
		E5Scale:     Scale{SeriesLen: 64, Segments: 8, Bits: 8},
		E1Sizes:     []int{2000, 5000, 10000},
		E2N:         10000,
		E2Queries:   50,
		E3N:         10000,
		E3Counts:    []int{1, 10, 100, 1000, 10000},
		E4N:         10000,
		E4Fracs:     []float64{0.005, 0.02, 0.1, 0.5},
		E5N:         5000,
		E5Inserts:   500,
		E5Queries:   25,
		E5Fills:     []float64{0.5, 0.7, 0.9, 1.0},
		E5Growths:   []int{2, 4, 8},
		E6Batches:   40,
		E6BatchSize: 100,
		E6Buffer:    512,
		E6Queries:   10,
		E7N:         5000,
		E7Queries:   10,
		E9Sizes:     []int{2000, 10000},
		E13N:        10000,
		E13Queries:  64,
		E13K:        5,
		E13Shards:   []int{1, 2, 4, 8},
		E14N:        10000,
		E14Queries:  32,
		// 0 = uncached baseline; 256KB exercises eviction under pressure;
		// 64MB comfortably holds the whole working set (raw file included),
		// demonstrating the zero-miss warm pass.
		E14CacheKB: []int{0, 256, 4096, 65536},
		E14K:       5,
		E15N:       8000,
		E15Queries: 16,
		E15K:       5,
		// 0 = inline merges (the reference); 2 = background workers.
		E15Workers: []int{0, 2},
		E16N:       5000,
		E16Queries: 16,
		E16K:       5,
		E17N:       10000,
		E17Queries: 32,
		E17K:       5,
	}
}
