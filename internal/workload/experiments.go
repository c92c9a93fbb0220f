package workload

import (
	"fmt"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/storage"
)

// Scale fixes the summarization shape and sizes shared by the experiments.
// The zero value is replaced by the defaults used throughout the paper's
// setting (length-256 series, 16 segments, 8-bit cardinality).
type Scale struct {
	SeriesLen int
	Segments  int
	Bits      int
	Seed      int64
	Cost      storage.CostModel
}

func (s Scale) defaults() Scale {
	if s.SeriesLen == 0 {
		s.SeriesLen = 256
	}
	if s.Segments == 0 {
		s.Segments = 16
	}
	if s.Bits == 0 {
		s.Bits = 8
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Cost == (storage.CostModel{}) {
		s.Cost = storage.DefaultCostModel
	}
	return s
}

func (s Scale) config() index.Config {
	return index.Config{SeriesLen: s.SeriesLen, Segments: s.Segments, Bits: s.Bits}
}

// spec describes a build of variant at this scale: tune carries the
// experiment's own settings, the scale fills in the summarization shape.
func (s Scale) spec(variant string, tune assemble.Spec) assemble.Spec {
	tune.Variant, tune.SeriesLen, tune.Segments, tune.Bits = variant, s.SeriesLen, s.Segments, s.Bits
	return tune
}

func (s Scale) dataset(n int) *series.Dataset {
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: n, Len: s.SeriesLen, FracEvent: 0.05, Seed: s.Seed})
	return ds
}

// E1Construction regenerates the Scenario 1 construction comparison: index
// build I/O cost for every variant across dataset sizes. Expected shape:
// CTree cheapest (external sort, sequential), CLSM close, ADS+ worst and
// degrading fastest (random leaf flushes); materialized variants cost
// proportionally more bytes but keep the same ordering.
func E1Construction(sc Scale, sizes []int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E1",
		Title:   "index construction cost vs dataset size (I/O cost units)",
		Note:    "cost = seq + 10x rand page accesses; lower is better; expect CTree < CLSM << ADS+",
		Columns: append([]string{"N"}, Variants...),
	}
	for _, n := range sizes {
		ds := sc.dataset(n)
		row := []string{fmt.Sprintf("%d", n)}
		for _, v := range Variants {
			b, err := assemble.Build(sc.spec(v, assemble.Spec{}), ds)
			if err != nil {
				return nil, fmt.Errorf("E1 %s n=%d: %w", v, n, err)
			}
			row = append(row, fmt.Sprintf("%.0f", b.BuildCost(sc.Cost)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// E2Query regenerates the Scenario 1 query comparison: per-query I/O cost
// for approximate and exact search on a static collection, using hard
// exploratory queries (patterns with no planted near-duplicate, as when
// hunting for a supernova template). Expected shape: on materialized
// indexes — where layout alone decides cost — CTreeFull's sequential pruned
// scan beats ADSFull's scattered leaf visits; non-materialized variants
// converge because raw-file candidate fetches dominate both equally.
func E2Query(sc Scale, n, numQueries int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("query cost on N=%d static series (I/O cost units per query)", n),
		Note:    "hard exploratory queries; expect CTreeFull < CLSMFull < ADSFull on exact",
		Columns: []string{"variant", "approx", "exact", "mean 1-NN dist"},
	}
	ds := sc.dataset(n)
	queries := sc.walks(sc.Seed+1, numQueries)
	for _, v := range Variants {
		b, err := assemble.Build(sc.spec(v, assemble.Spec{}), ds)
		if err != nil {
			return nil, fmt.Errorf("E2 %s: %w", v, err)
		}
		approx, err := RunQueries(b, queries, sc.config(), 1, false)
		if err != nil {
			return nil, err
		}
		exact, err := RunQueries(b, queries, sc.config(), 1, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(v,
			fmt.Sprintf("%.1f", approx.Cost(sc.Cost)),
			fmt.Sprintf("%.1f", exact.Cost(sc.Cost)),
			fmt.Sprintf("%.3f", exact.MeanDist))
	}
	return t, nil
}

// E3Materialization regenerates the materialization crossover: total cost
// (build + Q x exact query) of CTree vs CTreeFull as the projected query
// count Q grows. Expected shape: non-materialized wins at small Q; a
// crossover appears as Q grows — the point where the recommender switches.
func E3Materialization(sc Scale, n int, queryCounts []int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("materialization crossover at N=%d (total I/O cost: build + Q x query)", n),
		Note:    "expect CTree to win at small Q, CTreeFull beyond the crossover",
		Columns: []string{"Q", "CTree", "CTreeFull", "winner"},
	}
	ds := sc.dataset(n)
	maxQ := 0
	for _, q := range queryCounts {
		if q > maxQ {
			maxQ = q
		}
	}
	// Hard exploratory queries: non-materialized search pays raw-file
	// fetches for every surviving candidate, which is what materialization
	// buys back.
	queries := sc.walks(sc.Seed+2, min(maxQ, 100))

	type variantCost struct{ build, perQuery float64 }
	costs := map[string]variantCost{}
	for _, v := range []string{"CTree", "CTreeFull"} {
		b, err := assemble.Build(sc.spec(v, assemble.Spec{}), ds)
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", v, err)
		}
		qs, err := RunQueries(b, queries, sc.config(), 1, true)
		if err != nil {
			return nil, err
		}
		costs[v] = variantCost{build: b.BuildCost(sc.Cost), perQuery: qs.Cost(sc.Cost)}
	}
	for _, q := range queryCounts {
		nm := costs["CTree"].build + float64(q)*costs["CTree"].perQuery
		m := costs["CTreeFull"].build + float64(q)*costs["CTreeFull"].perQuery
		winner := "CTree"
		if m < nm {
			winner = "CTreeFull"
		}
		t.AddRow(fmt.Sprintf("%d", q), fmt.Sprintf("%.0f", nm), fmt.Sprintf("%.0f", m), winner)
	}
	return t, nil
}

// E4Memory regenerates the memory/construction trade-off: build cost of
// CTree (two-pass external sort) vs ADS+ (in-memory leaf buffering) as the
// memory budget shrinks. Expected shape: CTree degrades gracefully (extra
// merge passes), ADS+ deteriorates sharply (each tiny flush is a scattered
// write).
func E4Memory(sc Scale, n int, fracs []float64) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("construction cost vs memory budget at N=%d", n),
		Note:    "budget as fraction of dataset bytes; expect ADS+ to degrade much faster than CTree",
		Columns: []string{"mem frac", "mem bytes", "CTree", "ADS+", "ADS+/CTree"},
	}
	ds := sc.dataset(n)
	dataBytes := n * series.Size(sc.SeriesLen)
	for _, f := range fracs {
		budget := int(float64(dataBytes) * f)
		if budget < 4096 {
			budget = 4096
		}
		ct, err := assemble.Build(sc.spec("CTree", assemble.Spec{MemBudget: budget}), ds)
		if err != nil {
			return nil, fmt.Errorf("E4 CTree f=%v: %w", f, err)
		}
		ads, err := assemble.Build(sc.spec("ADS+", assemble.Spec{MemBudget: budget}), ds)
		if err != nil {
			return nil, fmt.Errorf("E4 ADS+ f=%v: %w", f, err)
		}
		cc, ac := ct.BuildCost(sc.Cost), ads.BuildCost(sc.Cost)
		t.AddRow(fmt.Sprintf("%.3f", f), fmt.Sprintf("%d", budget),
			fmt.Sprintf("%.0f", cc), fmt.Sprintf("%.0f", ac), fmt.Sprintf("%.1fx", ac/cc))
	}
	return t, nil
}

// E5FillFactor regenerates the CTree read/write knob: a mixed workload of
// inserts then exact queries under different leaf fill factors. Expected
// shape: low fill factors absorb inserts with few splits (cheap writes) but
// lengthen scans (costlier reads); fill 1.0 is read-optimal, write-worst.
func E5FillFactor(sc Scale, n, inserts, queries int, fills []float64) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E5a",
		Title:   fmt.Sprintf("CTree fill-factor sweep (N=%d, %d inserts, %d exact queries)", n, inserts, queries),
		Note:    "expect insert cost to fall and query cost to rise as fill factor drops",
		Columns: []string{"fill", "build", "insert cost", "query cost", "leaves"},
	}
	ds := sc.dataset(n)
	extra := sc.walks(sc.Seed+3, inserts)
	qs, _ := gen.Queries(ds, queries, 0.05, sc.Seed+4)
	for _, fill := range fills {
		b, err := assemble.Build(sc.spec("CTreeFull", assemble.Spec{FillFactor: fill}), ds)
		if err != nil {
			return nil, fmt.Errorf("E5a fill=%v: %w", fill, err)
		}
		tree := b.Index.(interface {
			Insert(series.Series, int64) error
			Leaves() int
		})
		before := b.Disk.Stats()
		for _, s := range extra {
			if err := tree.Insert(s, 1); err != nil {
				return nil, err
			}
		}
		insertCost := b.Disk.Stats().Sub(before).Cost(sc.Cost)
		qstats, err := RunQueries(b, qs, sc.config(), 1, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", fill),
			fmt.Sprintf("%.0f", b.BuildCost(sc.Cost)),
			fmt.Sprintf("%.0f", insertCost),
			fmt.Sprintf("%.1f", qstats.Cost(sc.Cost)),
			fmt.Sprintf("%d", tree.Leaves()))
	}
	return t, nil
}

// E5GrowthFactor regenerates the CLSM read/write knob: ingest plus exact
// queries under different growth factors. Expected shape: larger T ingests
// cheaper (fewer merges) but leaves more runs, making queries costlier.
func E5GrowthFactor(sc Scale, n, queries int, growths []int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E5b",
		Title:   fmt.Sprintf("CLSM growth-factor sweep (N=%d, %d exact queries)", n, queries),
		Note:    "expect ingest cost to fall and query cost to rise as T grows",
		Columns: []string{"T", "ingest cost", "query cost", "runs", "merges"},
	}
	ds := sc.dataset(n)
	qs, _ := gen.Queries(ds, queries, 0.05, sc.Seed+5)
	for _, g := range growths {
		b, err := assemble.Build(sc.spec("CLSMFull", assemble.Spec{GrowthFactor: g, MemBudget: 64 * 1024}), ds)
		if err != nil {
			return nil, fmt.Errorf("E5b T=%d: %w", g, err)
		}
		lsm := b.Index.(interface {
			Runs() int
			Merges() int64
		})
		qstats, err := RunQueries(b, qs, sc.config(), 1, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", g),
			fmt.Sprintf("%.0f", b.BuildCost(sc.Cost)),
			fmt.Sprintf("%.1f", qstats.Cost(sc.Cost)),
			fmt.Sprintf("%d", lsm.Runs()),
			fmt.Sprintf("%d", lsm.Merges()))
	}
	return t, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
