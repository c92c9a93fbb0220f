package workload

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/assemble"
	"repro/internal/gen"
	"repro/internal/series"
)

// TestE16BackendEquivalence runs the storage-backend experiment at test
// scale: it asserts internally that every variant — ADS+ included, the one
// index the facade-level equivalence suite cannot reach — returns
// byte-identical answers with identical I/O accounting on the simulated
// disk and the file-backed page store.
func TestE16BackendEquivalence(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 8, Seed: 7}
	tbl, err := E16Backend(sc, 1200, 6, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Variants) {
		t.Fatalf("expected %d rows, got %d", len(Variants), len(tbl.Rows))
	}
}

// TestBuildVariantFileBackendSharded pins the per-shard directory layout:
// a sharded file-backed build keeps each shard's pages in its own
// shard-NNN subdirectory, and answers match the simulated sharded build.
func TestBuildVariantFileBackendSharded(t *testing.T) {
	sc := Scale{SeriesLen: 64, Segments: 8, Bits: 8, Seed: 8}
	ds := sc.dataset(900)
	dir := filepath.Join(t.TempDir(), "store")
	sim, err := assemble.Build(sc.spec("CTree", assemble.Spec{Shards: 3}), ds)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	file, err := assemble.Build(sc.spec("CTree", assemble.Spec{Shards: 3, StorageDir: dir}), ds)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if got := len(file.Parts); got != 3 {
		t.Fatalf("expected 3 shard disks, got %d", got)
	}
	for i, p := range file.Parts {
		if d := p.Disk; d.Kind() != "file" {
			t.Fatalf("shard %d backend %q, want file", i, d.Kind())
		}
	}
	rng := rand.New(rand.NewSource(99))
	queries := make([]series.Series, 5)
	for i := range queries {
		queries[i] = gen.RandomWalk(rng, sc.SeriesLen)
	}
	simQS, err := RunQueries(sim, queries, sc.config(), 5, true)
	if err != nil {
		t.Fatal(err)
	}
	fileQS, err := RunQueries(file, queries, sc.config(), 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if simQS.MeanDist != fileQS.MeanDist {
		t.Fatalf("mean best distance diverged: sim %v, file %v", simQS.MeanDist, fileQS.MeanDist)
	}
	if simQS.Stats != fileQS.Stats {
		t.Fatalf("query accounting diverged:\nsim:  %+v\nfile: %+v", simQS.Stats, fileQS.Stats)
	}
	// Each shard's pages live under its own subdirectory of the root.
	for i := 0; i < 3; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
		if fi, err := os.Stat(sub); err != nil || !fi.IsDir() {
			t.Fatalf("shard %d dir %s missing: %v", i, sub, err)
		}
	}
}
