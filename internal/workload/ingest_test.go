package workload

import (
	"testing"

	"repro/internal/assemble"
	"repro/internal/series"
)

func TestE15IngestSmoke(t *testing.T) {
	tbl, err := E15Ingest(Scale{}, 1500, 4, 3, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (3 wal modes + 2 worker modes)", len(tbl.Rows))
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
	// Non-materialized with the raw series in a sealed on-disk file: ingest
	// must refuse rather than corrupt searches.
	b, err := assemble.Build(sc.spec("CLSM", assemble.Spec{}), ds)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ds.Get(0)
	if err := b.Ingest(s, 0); err == nil {
		t.Fatal("sealed-raw-file build should refuse ingest")
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
