package stream

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clsm"
	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/storage"
)

// TestCLSMFlushAndBTPSealWriteTheSameRun is the cross-index case of the
// run package's table: a CLSM level run and a BTP partition are the same
// object, so the same entries flushed by one and sealed by the other give
// byte-identical files and equal synopses.
func TestCLSMFlushAndBTPSealWriteTheSameRun(t *testing.T) {
	const n = 200
	ss, ts := streamData(n, 11)
	raw := &memRaw{}
	lsmDisk, btpDisk := storage.NewDisk(0), storage.NewDisk(0)
	lsm, err := clsm.Open(clsm.Options{Disk: lsmDisk, Config: testConfig(false), BufferEntries: n, Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	btp, err := NewBTP(btpDisk, nil, "btp", testConfig(false), n, raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ss {
		if err := lsm.Insert(s, ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	ingestAll(t, btp, raw, ss, ts)
	if lsm.Runs() != 1 || btp.Partitions() != 1 {
		t.Fatalf("%d runs, %d partitions, want 1 and 1", lsm.Runs(), btp.Partitions())
	}

	part := btp.parts[0]
	const runFile = "clsm.run.000001"
	pages, err := btpDisk.NumPages(part.File)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := lsmDisk.NumPages(runFile); err != nil || got != pages {
		t.Fatalf("run has %d pages (%v), partition %d", got, err, pages)
	}
	a, b := make([]byte, lsmDisk.PageSize()), make([]byte, btpDisk.PageSize())
	for p := int64(0); p < pages; p++ {
		na, errA := lsmDisk.ReadPage(runFile, p, a)
		nb, errB := btpDisk.ReadPage(part.File, p, b)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a[:na], b[:nb]) {
			t.Fatalf("page %d differs between the run and the partition", p)
		}
	}
	syns, complete := lsm.PlanSynopses()
	if !complete || len(syns) != 1 || !reflect.DeepEqual(syns[0], part.Syn) {
		t.Fatalf("run synopsis %+v (complete=%v), partition synopsis %+v", syns, complete, part.Syn)
	}
}

// TestBTPFaultInjection fails one storage operation inside Seal's write,
// inside a bounding merge's write, and inside the removal of a merged
// input. Whatever fails, no partial file stays behind, every partition the
// scheme lists is on the disk, and every ingested series is still found.
func TestBTPFaultInjection(t *testing.T) {
	const bufferCap = 64
	ss, ts := streamData(2*bufferCap, 13)
	cases := []struct {
		name, op, file string
		absent         []string // partial outputs that must not survive
		parts          int
	}{
		{"seal write", "write", "btp.btp.000002", []string{"btp.btp.000002"}, 1},
		{"merge write", "write", "btp.btp.000003", []string{"btp.btp.000003"}, 2},
		// The second input's removal: the first is already gone by then.
		{"input remove", "remove", "btp.btp.000002", nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := fsx.NewMemFS()
			disk, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "d", FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			raw := &memRaw{}
			btp, err := NewBTP(disk, nil, "btp", testConfig(false), bufferCap, raw)
			if err != nil {
				t.Fatal(err)
			}
			last := len(ss) - 1
			ingestAll(t, btp, raw, ss[:last], ts[:last]) // one partition, a buffer one short of full
			fsys.SetFaultHook(func(op, path string) error {
				if op == tc.op && strings.Contains(path, tc.file) {
					return fsx.ErrInjected
				}
				return nil
			})
			raw.add(ss[last])
			if err := btp.Insert(ss[last], ts[last]); !errors.Is(err, fsx.ErrInjected) {
				t.Fatalf("Insert: %v, want the injected fault", err)
			}
			fsys.SetFaultHook(nil)

			for _, f := range tc.absent {
				if disk.Exists(f) {
					t.Errorf("partial output %q left on the disk", f)
				}
			}
			if btp.Partitions() != tc.parts {
				t.Errorf("%d partitions listed, want %d", btp.Partitions(), tc.parts)
			}
			for _, p := range btp.parts {
				if !disk.Exists(p.File) {
					t.Errorf("listed partition %q is not on the disk", p.File)
					continue
				}
				// Sealed or merged, before the fault or around it, a listed
				// partition's resident summary is its file's.
				if err := btp.store.Verify(p.Run); err != nil {
					t.Errorf("partition %q: %v", p.File, err)
				}
			}
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 4; trial++ {
				qs := gen.RandomWalk(rng, 64)
				want := bruteWindowKNN(qs, ss, ts, math.MinInt64, math.MaxInt64, 5)
				got, err := exactSearch(btp, index.NewQuery(qs, testConfig(false)), 5)
				if err != nil {
					t.Fatalf("search after the fault: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("trial %d result %d: %+v, want %+v", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}
