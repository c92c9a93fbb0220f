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
)

// e6Schemes are the Scenario 2 contenders, in table order: the ADS+
// baselines with PP and TP, the CTree variants, and the recommender's choice
// CLSM+BTP — each a variant and the scheme over it, "" being PP, the
// variant itself.
var e6Schemes = []struct{ name, variant, scheme string }{
	{"ADS+PP", "ADS+", ""},
	{"ADS+TP", "ADS+", "TP"},
	{"CLSM+PP", "CLSM", ""},
	{"CTree+TP", "CTree", "TP"},
	{"CLSM+BTP", "CLSM", "BTP"},
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
	queries := gen.TemplateQueries(gen.TemplateEarthquake, sc.SeriesLen, numQueries, 0.2, sc.Seed+7)
	for _, c := range e6Schemes {
		// Every scheme gets the same storage half — a fresh disk, and a raw
		// series file on a heap disk of its own — so relative index I/O is
		// what the experiment isolates.
		spec := sc.spec(c.variant, assemble.Spec{Scheme: c.scheme, RawInMemory: true, BufferEntries: bufferEntries})
		cells, err := e6Row(spec, sc.Cost, data, queries)
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", c.name, err)
		}
		t.AddRow(append([]string{c.name}, cells...)...)
	}
	return t, nil
}

// e6Row builds one contender, ingests the stream into it and issues the
// window queries: its ingest cost, its per-query cost at each window width
// and its final partition count.
func e6Row(spec assemble.Spec, cost storage.CostModel, data []gen.Batch, queries []series.Series) ([]string, error) {
	b, err := assemble.Build(spec, nil)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	b.Disk.ResetStats()
	for _, batch := range data {
		for _, ser := range batch.Series {
			if err := b.Ingest(ser, batch.TS); err != nil {
				return nil, fmt.Errorf("ingest: %w", err)
			}
		}
	}
	cells := []string{fmt.Sprintf("%.0f", b.Disk.Stats().Cost(cost))}
	maxTS := data[len(data)-1].TS
	for _, frac := range []float64{0.05, 0.25, 1.0} {
		minTS := maxTS - int64(frac*float64(maxTS))
		b.Disk.ResetStats()
		for _, q := range queries {
			if _, err := b.ExactSearch(index.NewQuery(q, b.Config).WithWindow(minTS, maxTS), 1); err != nil {
				return nil, fmt.Errorf("%.0f%% window: %w", frac*100, err)
			}
		}
		cells = append(cells, fmt.Sprintf("%.1f", b.Disk.Stats().Cost(cost)/float64(len(queries))))
	}
	return append(cells, fmt.Sprintf("%d", b.Partitions())), nil
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
		js := rec.Jumps()
		t.AddRow(v, "build", fmt.Sprintf("%d", js.Accesses),
			fmt.Sprintf("%.2f", js.SeqFrac), fmt.Sprintf("%.1f", js.AvgJump), fmt.Sprintf("%d", js.FileSwaps))
		art = append(art, hottestMaps(rec, v+" build", 6)...)
		// Queries under a fresh trace.
		rec.Reset()
		for _, q := range queries {
			pq := index.NewQuery(q, sc.config())
			if _, err := built.ExactSearch(pq, 1); err != nil {
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
	for _, s := range e8Scenarios() {
		win := "-"
		if s.SmallWindows {
			win = "small"
		}
		t.AddRow(fmt.Sprintf("%v", s.Streaming), fmt.Sprintf("%d", s.ExpectedQueries),
			fmt.Sprintf("%.0f%%", s.MemoryBudgetFrac*100), fmt.Sprintf("%v", s.StorageTight), win, recommender.Recommend(s).Variant())
	}
	return t
}

// e8Scenarios is E8's scenario grid, in table order: static and streaming
// (with small windows), few and many queries, tight and ample memory,
// storage tight or not.
func e8Scenarios() []recommender.Scenario {
	var out []recommender.Scenario
	for _, streaming := range []bool{false, true} {
		for _, q := range []int{10, 1000} {
			for _, mem := range []float64{0.01, 0.25} {
				for _, tight := range []bool{false, true} {
					out = append(out, recommender.Scenario{
						Streaming:        streaming,
						ExpectedQueries:  q,
						MemoryBudgetFrac: mem,
						StorageTight:     tight,
						SmallWindows:     streaming,
					})
				}
			}
		}
	}
	return out
}

// E9Storage regenerates the footprint comparison: index pages per variant
// (raw series file excluded) across dataset sizes. Expected shape: Coconut
// indexes are compact (full pages); ADS+ leaves are sparse; materialized
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

// RunConfig holds the sizes cmd/coconut-bench runs E1–E12 at; Scale is the
// summarization shape shared by all but E3 and E5a.
type RunConfig struct {
	Scale Scale
	// E3Scale and E5Scale default to shorter series (64 points) so that
	// several materialized entries pack per page: the materialization
	// crossover (E3) and the leaf fill factor (E5a) only have room to act
	// when a leaf holds more than one entry.
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
	}
}
