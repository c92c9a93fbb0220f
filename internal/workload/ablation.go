package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/sax"
	"repro/internal/series"
	"repro/internal/sortable"
)

// E10Ablation quantifies why bit-interleaving is the contribution: it
// compares the interleaved (z-order) key against the naive segment-major
// concatenation under two measures on the same data:
//
//   - locality: the mean true distance between series adjacent in sorted
//     key order (what a bulk-loaded leaf packs together), and
//   - approximate-search quality: how often the true nearest neighbor of a
//     query lands within the same leaf-sized window of the sorted order as
//     the query's key ("hit@leaf").
//
// Expected shape: interleaving gives markedly lower adjacent distance and
// higher hit rates; concatenation clusters by the series' beginning only.
func E10Ablation(sc Scale, n, numQueries, leafEntries int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E10",
		Title:   fmt.Sprintf("ablation: interleaved vs concatenated key order (N=%d)", n),
		Note:    "locality = mean true distance of key-order neighbors (lower better); hit@leaf = true NN within the query's leaf window",
		Columns: []string{"ordering", "locality", "hit@leaf", "mean prefix bits to NN"},
	}
	ds := sc.dataset(n)
	type item struct {
		z      series.Series
		inter  sortable.Key
		concat sortable.Key
	}
	items := make([]item, ds.Count())
	cfg := sc.config()
	for i := range items {
		s, _ := ds.Get(i)
		z := s.ZNormalize()
		w := sax.FromSeries(z, cfg.Segments, cfg.Bits)
		items[i] = item{z: z, inter: sortable.Interleave(w), concat: concat(w)}
	}
	// Noisy derived queries: enough perturbation that the query's key
	// differs from its source's, so landing near the source actually tests
	// the ordering's locality rather than exact key equality.
	queries, qIDs := gen.Queries(ds, numQueries, 0.35, sc.Seed+9)

	for _, ord := range []struct {
		name string
		key  func(item) sortable.Key
		enc  func(sax.Word) sortable.Key
	}{
		{"interleaved", func(it item) sortable.Key { return it.inter }, sortable.Interleave},
		{"concatenated", func(it item) sortable.Key { return it.concat }, concat},
	} {
		order := make([]int, len(items))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return ord.key(items[order[a]]).Less(ord.key(items[order[b]]))
		})
		// Locality: mean distance between sorted neighbors.
		locality := 0.0
		for i := 1; i < len(order); i++ {
			locality += math.Sqrt(items[order[i-1]].z.SqDist(items[order[i]].z))
		}
		locality /= float64(len(order) - 1)

		// Position of each item in the sorted order.
		pos := make([]int, len(items))
		for p, id := range order {
			pos[id] = p
		}
		// Hit@leaf: query lands at its key's insertion point; its source
		// series (the planted true NN) should be within leafEntries/2.
		hits := 0
		prefixSum := 0
		for qi, q := range queries {
			zq := q.ZNormalize()
			qw := sax.FromSeries(zq, cfg.Segments, cfg.Bits)
			qk := ord.enc(qw)
			insertAt := sort.Search(len(order), func(i int) bool {
				return qk.Less(ord.key(items[order[i]])) || qk == ord.key(items[order[i]])
			})
			nnPos := pos[qIDs[qi]]
			d := nnPos - insertAt
			if d < 0 {
				d = -d
			}
			if d <= leafEntries/2 {
				hits++
			}
			prefixSum += qk.CommonPrefixLen(ord.key(items[qIDs[qi]]))
		}
		t.AddRow(ord.name,
			fmt.Sprintf("%.3f", locality),
			fmt.Sprintf("%.2f", float64(hits)/float64(len(queries))),
			fmt.Sprintf("%.1f", float64(prefixSum)/float64(len(queries))))
	}
	return t, nil
}

// concat encodes an iSAX word segment-major: all bits of segment 0, then all
// bits of segment 1, and so on, from the key's top bit down. This is the
// naive sortable encoding the paper argues against — sorting by it clusters
// series by their first segment (the beginning of the series) and ignores the
// rest, so similar series end up arbitrarily far apart — and E10 measures it
// against interleaving.
func concat(w sax.Word) sortable.Key {
	if total := len(w.Symbols) * w.Bits; total > 128 {
		panic(fmt.Sprintf("workload: %d segments x %d bits = %d > 128 bits", len(w.Symbols), w.Bits, total))
	}
	var k sortable.Key
	pos := 0
	for _, sym := range w.Symbols {
		for b := w.Bits - 1; b >= 0; b-- {
			if sym>>uint(b)&1 != 0 {
				if pos < 64 {
					k.Hi |= 1 << uint(63-pos)
				} else {
					k.Lo |= 1 << uint(127-pos)
				}
			}
			pos++
		}
	}
	return k
}

// E11Cardinality sweeps the per-segment cardinality (bits) and reports the
// pruning power of the resulting lower bounds: the mean MINDIST/true-dist
// tightness ratio and the fraction of candidates pruned during exact CTree
// search. Expected shape: tightness and pruning improve monotonically with
// bits while the key (and index) size grows linearly — the space/pruning
// dial of the summarization.
func E11Cardinality(sc Scale, n, numQueries int, bitsList []int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E11",
		Title:   fmt.Sprintf("ablation: cardinality bits vs pruning power (N=%d)", n),
		Note:    "tightness = mean lower-bound / true distance (1.0 is perfect); higher prunes more",
		Columns: []string{"bits", "tightness", "exact query cost", "key bits"},
	}
	ds := sc.dataset(n)
	rng := rand.New(rand.NewSource(sc.Seed + 10))
	queries := make([]series.Series, numQueries)
	for i := range queries {
		queries[i] = gen.RandomWalk(rng, sc.SeriesLen)
	}
	for _, bits := range bitsList {
		cfg := index.Config{SeriesLen: sc.SeriesLen, Segments: sc.Segments, Bits: bits}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		// Tightness over random pairs.
		tight := 0.0
		pairs := 0
		for i := 0; i < 200; i++ {
			a, _ := ds.Get(rng.Intn(ds.Count()))
			b, _ := ds.Get(rng.Intn(ds.Count()))
			q := index.NewQuery(a, cfg)
			kb, zb := cfg.Summarize(b)
			trueD := math.Sqrt(q.Norm.SqDist(zb))
			if trueD < 1e-9 {
				continue
			}
			ctx := index.AcquireCtx(q, cfg)
			tight += math.Sqrt(ctx.P.MinDistSqKey(kb)) / trueD
			ctx.Release()
			pairs++
		}
		// Exact query cost on a CTree at this cardinality.
		atBits := sc
		atBits.Bits = bits
		b, err := assemble.Build(atBits.spec("CTree", assemble.Spec{}), ds)
		if err != nil {
			return nil, err
		}
		qs, err := RunQueries(b, queries, cfg, 1, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", bits),
			fmt.Sprintf("%.3f", tight/float64(pairs)),
			fmt.Sprintf("%.1f", qs.Cost(sc.Cost)),
			fmt.Sprintf("%d", bits*sc.Segments))
	}
	return t, nil
}

// E12Recall measures approximate-search quality per variant: how often the
// one-page approximate answer is the true nearest neighbor (recall@1), the
// mean distance inflation of the approximate answer, and the cost ratio
// against exact search. This quantifies the demo's approximate-vs-exact
// query toggle. Expected shape: high recall everywhere at a small fraction
// of exact cost; materialized variants are not more accurate, only cheaper
// per candidate.
func E12Recall(sc Scale, n, numQueries int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("approximate search quality (N=%d, %d queries)", n, numQueries),
		Note:    "recall@1 = approx answer equals true NN; inflation = approx dist / true dist",
		Columns: []string{"variant", "recall@1", "dist inflation", "approx/exact cost"},
	}
	ds := sc.dataset(n)
	queries, _ := gen.Queries(ds, numQueries, 0.2, sc.Seed+11)
	cfg := sc.config()
	for _, v := range Variants {
		b, err := assemble.Build(sc.spec(v, assemble.Spec{}), ds)
		if err != nil {
			return nil, fmt.Errorf("E12 %s: %w", v, err)
		}
		hits := 0
		inflation := 0.0
		inflN := 0
		approxBefore := b.Disk.Stats()
		type answer struct {
			id   int64
			dist float64
		}
		approxAns := make([]answer, len(queries))
		for i, q := range queries {
			pq := index.NewQuery(q, cfg)
			rs, err := b.Index.ApproxSearch(pq, 1)
			if err != nil {
				return nil, err
			}
			if len(rs) > 0 {
				approxAns[i] = answer{rs[0].ID, rs[0].Dist}
			}
		}
		approxCost := b.Disk.Stats().Sub(approxBefore).Cost(sc.Cost)
		exactBefore := b.Disk.Stats()
		for i, q := range queries {
			pq := index.NewQuery(q, cfg)
			rs, err := b.Index.ExactSearch(pq, 1)
			if err != nil {
				return nil, err
			}
			if len(rs) == 0 {
				continue
			}
			if rs[0].ID == approxAns[i].id {
				hits++
			}
			if rs[0].Dist > 1e-9 {
				inflation += approxAns[i].dist / rs[0].Dist
				inflN++
			}
		}
		exactCost := b.Disk.Stats().Sub(exactBefore).Cost(sc.Cost)
		ratio := 0.0
		if exactCost > 0 {
			ratio = approxCost / exactCost
		}
		t.AddRow(v,
			fmt.Sprintf("%.2f", float64(hits)/float64(len(queries))),
			fmt.Sprintf("%.3f", inflation/float64(max(1, inflN))),
			fmt.Sprintf("%.3f", ratio))
	}
	return t, nil
}
