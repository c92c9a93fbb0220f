package assemble_test

import (
	"io/fs"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assemble"
	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
)

// countingFS counts the file handles opened through it and not yet closed.
type countingFS struct {
	fsx.FS
	open atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countedFile{File: f, fs: c}, nil
}

type countedFile struct {
	fsx.File
	fs   *countingFS
	once sync.Once
}

func (f *countedFile) Close() error {
	f.once.Do(func() { f.fs.open.Add(-1) })
	return f.File.Close()
}

// backgroundGoroutines returns the stacks of goroutines still running
// compaction-scheduler or write-ahead-log code, after giving ones that are
// on their way out a moment to exit.
func backgroundGoroutines() string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var leaked []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "repro/internal/compact.") || strings.Contains(g, "repro/internal/wal.") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
	}
}

// TestBuildFaultInjectionCleansUp fails a sharded, file-backed, durable
// build with background compaction after every possible number of
// filesystem operations. Whatever the step that failed — a page file, a
// log segment, a flush, shard 2 after shards 0 and 1 were complete (or, above
// one proc, beside them: the shards build concurrently) — the build must
// return an error or a working index, and either way leave no compaction or
// WAL goroutine running and no file handle open.
func TestBuildFaultInjectionCleansUp(t *testing.T) {
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 90, Len: 32, FracEvent: 0.05, Seed: 5})
	spec := assemble.Spec{
		Variant: "CLSMFull", SeriesLen: 32, Segments: 8, Bits: 6,
		Shards: 3, Parallelism: -1, RawInMemory: true, BufferEntries: 8, GrowthFactor: 2,
		StorageDir: "/store", WALDir: "/wal", CompactionWorkers: 2,
	}
	run := func(failAfter int64) (ops int64, err error) {
		mem := fsx.NewMemFS()
		if failAfter >= 0 {
			mem.FailAfter(failAfter, nil)
		}
		cfs := &countingFS{FS: mem}
		spec.FS = cfs
		b, err := assemble.Build(spec, ds)
		if err == nil {
			if got := b.Index.Count(); got != int64(ds.Count()) {
				t.Fatalf("fail after %d ops: build succeeded with %d of %d series", failAfter, got, ds.Count())
			}
			// The fault may still hit the final syncs; what matters is that
			// Close releases everything regardless.
			b.Close()
		}
		if n := cfs.open.Load(); n != 0 {
			t.Fatalf("fail after %d ops (build error: %v): %d file handles left open", failAfter, err, n)
		}
		if g := backgroundGoroutines(); g != "" {
			t.Fatalf("fail after %d ops (build error: %v): background goroutines survive:\n%s", failAfter, err, g)
		}
		return mem.Ops(), err
	}
	ops, err := run(-1)
	if err != nil {
		t.Fatalf("clean build: %v", err)
	}
	failed := 0
	for k := int64(0); k <= ops; k++ {
		if _, err := run(k); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("no build failed over %d fault points: the schedule injected nothing", ops)
	}
	t.Logf("%d fault points, %d failed builds, all cleaned up", ops+1, failed)
}

// TestCrashRecoveryRebuildOverDirs builds a durable CLSM, closes it and
// builds again over the same directories with no dataset: the second build
// recovers every series, answering exactly as the first did. The first row
// keeps its raw series in a file on the store, so flushes truncate the log —
// the 2 500 series fill more than one 4 MiB segment — and only the store's
// manifest covers the log's missing head. The last keeps them in memory
// beside a non-materialized index on the store: its exact searches read that
// mirror, which replay refills from the whole log, the head the store's
// manifest covers included.
func TestCrashRecoveryRebuildOverDirs(t *testing.T) {
	const n, length = 2500, 256
	rng := rand.New(rand.NewSource(9))
	ds := series.NewDataset(length)
	for i := 0; i < n; i++ {
		ds.Append(gen.RandomWalk(rng, length))
	}
	queries := make([]series.Series, 8)
	for i := range queries {
		queries[i] = gen.RandomWalk(rng, length)
	}
	for _, row := range []struct {
		name string
		spec assemble.Spec
	}{
		{"file-raw-truncating-log", assemble.Spec{Variant: "CLSMFull", StorageDir: "store"}},
		{"file-raw-in-memory", assemble.Spec{Variant: "CLSMFull", StorageDir: "store", RawInMemory: true}},
		{"sim-raw-in-memory", assemble.Spec{Variant: "CLSM", RawInMemory: true}},
		{"file-raw-in-memory-nonmaterialized", assemble.Spec{Variant: "CLSM", StorageDir: "store", RawInMemory: true}},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := row.spec
			spec.SeriesLen, spec.Segments, spec.Bits, spec.BufferEntries, spec.GrowthFactor = length, 16, 8, 128, 3
			dir := t.TempDir()
			spec.WALDir = filepath.Join(dir, "wal")
			if spec.StorageDir != "" {
				spec.StorageDir = filepath.Join(dir, spec.StorageDir)
			}
			answers := func(b *assemble.Built) [][]index.Result {
				out := make([][]index.Result, len(queries))
				for i, q := range queries {
					res, err := b.Index.ExactSearch(index.NewQuery(q, b.Config), 5)
					if err != nil {
						t.Fatal(err)
					}
					out[i] = res
				}
				return out
			}
			b, err := assemble.Build(spec, ds)
			if err != nil {
				t.Fatal(err)
			}
			want := answers(b)
			if st, _ := b.WALStats(); (st.FirstLSN > 0) != (spec.StorageDir != "" && !spec.RawInMemory) {
				t.Fatalf("log starts at LSN %d; the row wants it truncated only when the raw series live on the store", st.FirstLSN)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b, err = assemble.Build(spec, nil)
			if err != nil {
				t.Fatalf("rebuild over the same directories: %v", err)
			}
			defer b.Close()
			if got := b.Index.Count(); got != int64(ds.Count()) {
				t.Fatalf("rebuild holds %d series, want %d", got, ds.Count())
			}
			if got := answers(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("rebuild answers %v, want %v", got, want)
			}
		})
	}
}
