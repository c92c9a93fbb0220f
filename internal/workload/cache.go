package workload

import (
	"fmt"

	"repro/internal/assemble"
)

// E14CacheSweep measures the buffer-pool layer: exact k-NN queries against
// a non-materialized CTree (raw series file on disk, so every verified
// candidate pays a page fetch) at increasing cache sizes. For each size the
// query set runs twice — cold (cache empty after the build's stats reset)
// and warm (same queries again) — and the table reports the warm hit
// ratio, the I/O cost per query on both passes, and warm throughput.
//
// Two properties are asserted rather than merely reported, failing the
// experiment instead of publishing a wrong table:
//
//   - results at every cache size, cold and warm, are byte-identical to
//     the uncached run's;
//   - whenever the cache is large enough to hold the whole working set,
//     the warm pass's I/O cost per query is strictly below the cold
//     pass's (with a full-fit cache the warm pass performs no disk reads
//     at all). Partial caches are reported but not asserted: absorbing
//     some reads of a sequential scan legitimately reclassifies its
//     neighbors as random, so a too-small cache can even cost more.
func E14CacheSweep(sc Scale, n, numQueries, k int, cacheKB []int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID:    "E14",
		Title: fmt.Sprintf("buffer-pool sweep over N=%d series, %d exact %d-NN queries (CTree, raw file on disk)", n, numQueries, k),
		Note: "cold = first pass after build, warm = same queries repeated; hit% is the warm pass's; " +
			"answers byte-identical to uncached at every size (verified); warm io-cost strictly below cold at full-fit sizes (verified)",
		Columns: []string{"cache", "hit%", "cold io/q", "warm io/q", "warm q/s", "evictions"},
	}
	ds := sc.dataset(n)
	iqs := sc.walkQueries(sc.Seed+14, numQueries)

	refBuilt, err := assemble.Build(sc.spec("CTree", assemble.Spec{}), ds)
	if err != nil {
		return nil, fmt.Errorf("E14 uncached reference: %w", err)
	}
	reference, _, err := exactPass(refBuilt, iqs, k)
	if err != nil {
		return nil, fmt.Errorf("E14 uncached reference: %w", err)
	}
	for _, kb := range cacheKB {
		b, err := assemble.Build(sc.spec("CTree", assemble.Spec{
			CacheBytes: int64(kb) * 1024,
		}), ds)
		if err != nil {
			return nil, fmt.Errorf("E14 cache=%dKB: %w", kb, err)
		}
		cold, coldQS, err := exactPass(b, iqs, k)
		if err != nil {
			return nil, fmt.Errorf("E14 cache=%dKB cold: %w", kb, err)
		}
		warm, warmQS, err := exactPass(b, iqs, k)
		if err != nil {
			return nil, fmt.Errorf("E14 cache=%dKB warm: %w", kb, err)
		}
		coldCost, warmCost, warmStats := coldQS.Cost(sc.Cost), warmQS.Cost(sc.Cost), warmQS.Stats

		if err := sameResults(reference, cold); err != nil {
			return nil, fmt.Errorf("E14 cache=%dKB: cold diverged from uncached: %w", kb, err)
		}
		if err := sameResults(reference, warm); err != nil {
			return nil, fmt.Errorf("E14 cache=%dKB: warm diverged from uncached: %w", kb, err)
		}
		var evictions int64
		fullFit := false
		if b.Cache != nil {
			evictions = b.Cache.Evictions()
			fullFit = b.Cache.CapacityFrames() >= b.Disk.TotalPages()
		}
		if fullFit && !(warmCost < coldCost) {
			return nil, fmt.Errorf("E14 cache=%dKB: warm io-cost/query %.1f not below cold %.1f despite full-fit cache",
				kb, warmCost, coldCost)
		}
		label := fmt.Sprintf("%dKB", kb)
		if kb == 0 {
			label = "off"
		}
		t.AddRow(
			label,
			fmt.Sprintf("%.1f", 100*warmStats.HitRatio()),
			fmt.Sprintf("%.0f", coldCost),
			fmt.Sprintf("%.0f", warmCost),
			fmt.Sprintf("%.0f", float64(len(iqs))/warmQS.WallTime.Seconds()),
			fmt.Sprintf("%d", evictions),
		)
	}
	return t, nil
}
