package workload

import (
	"testing"

	"repro/internal/assemble"
	"repro/internal/index"
	"repro/internal/series"
)

// TestE15IngestSmoke ingests into a CLSM with a small memory budget, so the
// build produces many runs and real merge cascades. Every WAL mode builds
// and logs each insert; with background compaction workers, exact searches
// issued while merges may still be in flight answer byte-identically to the
// quiesced index, and to the inline build.
func TestE15IngestSmoke(t *testing.T) {
	sc := Scale{}.defaults()
	ds := sc.dataset(1500)
	iqs := make([]index.Query, 4)
	for i, w := range sc.walks(sc.Seed+15, len(iqs)) {
		iqs[i] = index.NewQuery(w, sc.config())
	}
	base := assemble.Spec{MemBudget: 16 << 10, RawInMemory: true}
	for _, durability := range []string{"", "batched", "sync"} {
		opts := base
		if durability != "" {
			opts.WALDir, opts.Durability = t.TempDir(), durability
		}
		b, err := assemble.Build(sc.spec("CLSM", opts), ds)
		if err != nil {
			t.Fatalf("wal=%q: %v", durability, err)
		}
		if st, ok := b.WALStats(); durability != "" && (!ok || st.Appends != int64(ds.Count())) {
			t.Fatalf("wal=%s: stats %+v ok=%v after %d inserts", durability, st, ok, ds.Count())
		}
		if err := b.Close(); err != nil {
			t.Fatalf("wal=%q close: %v", durability, err)
		}
	}
	var reference [][]index.Result
	for _, workers := range []int{0, 2} {
		opts := base
		opts.CompactionWorkers = workers
		b, err := assemble.Build(sc.spec("CLSM", opts), ds)
		if err != nil {
			t.Fatal(err)
		}
		mid, _, err := exactPass(b, iqs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Quiesce(); err != nil {
			t.Fatal(err)
		}
		quiesced, _, err := exactPass(b, iqs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(mid, quiesced); err != nil {
			t.Fatalf("workers=%d: mid-compaction diverged from quiesced: %v", workers, err)
		}
		if reference == nil {
			reference = quiesced
		} else if err := sameResults(reference, quiesced); err != nil {
			t.Fatalf("workers=%d: diverged from the inline build: %v", workers, err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuiltDurableIngestLifecycle(t *testing.T) {
	sc := Scale{}.defaults()
	ds := sc.dataset(800)
	b, err := assemble.Build(sc.spec("CLSM", assemble.Spec{
		MemBudget: 16 << 10, RawInMemory: true,
		WALDir: t.TempDir(), Durability: "sync", CompactionWorkers: 2,
	}), ds)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := b.WALStats(); !ok || st.Appends != 800 {
		t.Fatalf("wal stats: %+v ok=%v", st, ok)
	}
	// Live ingest keeps working post-build, raw store included.
	s, _ := ds.Get(0)
	before := b.Index.Count()
	if err := b.Ingest(append(series.Series(nil), s...), 7); err != nil {
		t.Fatal(err)
	}
	if b.Index.Count() != before+1 {
		t.Fatalf("count after ingest = %d, want %d", b.Index.Count(), before+1)
	}
	if err := b.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if cst, ok := b.CompactionStats(); !ok || !cst.Background {
		t.Fatalf("compaction stats: %+v ok=%v", cst, ok)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBuiltIngestGuards(t *testing.T) {
	sc := Scale{}.defaults()
	ds := sc.dataset(300)
	// Non-materialized with the raw series in a file on the build's disk:
	// ingest appends to the file, and the series is searchable at once.
	b, err := assemble.Build(sc.spec("CLSM", assemble.Spec{}), ds)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s := sc.walks(sc.Seed+28, 1)[0]
	if err := b.Ingest(s, 0); err != nil {
		t.Fatalf("ingest into a build with its raw series file on disk: %v", err)
	}
	res, err := b.ExactSearch(index.NewQuery(s, b.Config), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != int64(ds.Count()) || res[0].Dist > 1e-9 {
		t.Fatalf("ingested series %d not found: %+v", ds.Count(), res)
	}
	// A WAL directory that already holds a log must be refused.
	dir := t.TempDir()
	b2, err := assemble.Build(sc.spec("CLSM", assemble.Spec{RawInMemory: true, WALDir: dir}), ds)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if _, err := assemble.Build(sc.spec("CLSM", assemble.Spec{RawInMemory: true, WALDir: dir}), ds); err == nil {
		t.Fatal("reusing a WAL dir should fail the build")
	}
}
