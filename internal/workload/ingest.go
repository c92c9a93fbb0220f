package workload

import (
	"fmt"
	"os"
	"time"

	"repro/internal/assemble"
	"repro/internal/index"
)

// E15Ingest measures the durable ingest subsystem end to end, in two
// sections sharing one table:
//
// Durability rows (wal=off / wal=batched / wal=sync) measure what crash
// safety costs at ingest time: N series inserted into a CLSM with the WAL
// disabled, group-committed, or fsynced per insert. The syncs column shows
// the group commit working — batched durability acknowledges the same
// inserts with a small fraction of the fsyncs.
//
// Compaction rows (workers=0 / workers=N) measure what moving merges off
// the foreground path buys, and prove its safety property: with background
// workers, exact k-NN queries issued immediately after the last insert —
// while level merges are still in flight — must return results
// byte-identical to a fully quiesced index over the same data, and to the
// inline (workers=0) build. A divergence fails the experiment rather than
// publishing a wrong table.
func E15Ingest(sc Scale, n, numQueries, k int, workers []int) (*Table, error) {
	sc = sc.defaults()
	t := &Table{
		ID: "E15",
		Title: fmt.Sprintf("durable ingest + background compaction over N=%d series, %d exact %d-NN queries (CLSM)",
			n, numQueries, k),
		Note: "wal rows: ingest cost of durability (group commit vs per-insert fsync); " +
			"worker rows: searches issued mid-compaction are byte-identical to the quiesced index (verified)",
		Columns: []string{"mode", "ingest ms", "series/s", "wal syncs", "mid q/s", "quiesced q/s"},
	}
	ds := sc.dataset(n)
	iqs := sc.walkQueries(sc.Seed+15, numQueries)
	// A small memory budget keeps the buffer tiny, so ingest produces many
	// runs and real merge cascades — the regime the subsystem exists for.
	base := assemble.Spec{MemBudget: 16 << 10, RawInMemory: true}

	// --- Durability section ---
	for _, mode := range []string{"wal=off", "wal=batched", "wal=sync"} {
		opts := base
		if mode != "wal=off" {
			dir, err := os.MkdirTemp("", "coconut-e15-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			opts.WALDir = dir
			opts.Durability = mode[len("wal="):]
		}
		b, err := assemble.Build(sc.spec("CLSM", opts), ds)
		if err != nil {
			return nil, fmt.Errorf("E15 %s: %w", mode, err)
		}
		syncs := "-"
		if st, ok := b.WALStats(); ok {
			syncs = fmt.Sprintf("%d", st.Syncs)
		}
		t.AddRow(
			mode,
			fmt.Sprintf("%d", b.BuildTime.Milliseconds()),
			fmt.Sprintf("%.0f", float64(n)/b.BuildTime.Seconds()),
			syncs,
			"-", "-",
		)
		if err := b.Close(); err != nil {
			return nil, fmt.Errorf("E15 %s close: %w", mode, err)
		}
	}

	// --- Compaction section ---
	// The inline build is the byte-identity reference: same inserts, same
	// flush boundaries, merges cascading synchronously.
	var reference [][]index.Result
	for _, w := range workers {
		opts := base
		opts.CompactionWorkers = w
		b, err := assemble.Build(sc.spec("CLSM", opts), ds)
		if err != nil {
			return nil, fmt.Errorf("E15 workers=%d: %w", w, err)
		}
		// Mid-compaction pass: with workers > 0 this overlaps whatever
		// merges the tail of the ingest left in flight.
		mid, midQS, err := exactPass(b, iqs, k)
		if err != nil {
			return nil, fmt.Errorf("E15 workers=%d mid: %w", w, err)
		}
		if err := b.Quiesce(); err != nil {
			return nil, fmt.Errorf("E15 workers=%d quiesce: %w", w, err)
		}
		quiesced, quiescedQS, err := exactPass(b, iqs, k)
		if err != nil {
			return nil, fmt.Errorf("E15 workers=%d quiesced: %w", w, err)
		}
		if err := sameResults(mid, quiesced); err != nil {
			return nil, fmt.Errorf("E15 workers=%d: mid-compaction diverged from quiesced: %w", w, err)
		}
		if reference == nil {
			reference = quiesced
		} else if err := sameResults(reference, quiesced); err != nil {
			return nil, fmt.Errorf("E15 workers=%d: diverged from workers=%d: %w", w, workers[0], err)
		}
		qps := func(d time.Duration) float64 { return float64(len(iqs)) / d.Seconds() }
		t.AddRow(
			fmt.Sprintf("workers=%d", w),
			fmt.Sprintf("%d", b.BuildTime.Milliseconds()),
			fmt.Sprintf("%.0f", float64(n)/b.BuildTime.Seconds()),
			"-",
			fmt.Sprintf("%.0f", qps(midQS.WallTime)),
			fmt.Sprintf("%.0f", qps(quiescedQS.WallTime)),
		)
		if err := b.Close(); err != nil {
			return nil, fmt.Errorf("E15 workers=%d close: %w", w, err)
		}
	}
	return t, nil
}
