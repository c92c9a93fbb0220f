package clsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/compact"
	"repro/internal/fsx"
	"repro/internal/record"
	"repro/internal/run"
	"repro/internal/sortable"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestLifecycleTable runs one ingest through every way an LSM comes to be
// and every compaction mode: scheduler ∈ {nil, zero workers, two workers,
// two workers closed mid-ingest} × origin ∈ {fresh, Save → Open, crash →
// Open + Replay over a manifest, snapshot + log → Open + Replay over a meta
// file, durable snapshot → Open without a log → Save → Open}. The first half
// of the series reaches the origin, the second half the LSM under test;
// every row must answer as brute force does, hold its tiering invariant once
// quiesced, report its compaction mode, keep each run's resident summary the
// one its file rebuilds.
func TestLifecycleTable(t *testing.T) {
	const n, half, growth, buf = 480, 240, 3, 32
	ds := makeDataset(n, 81)
	insert := func(t *testing.T, l *LSM, from, to int) {
		t.Helper()
		for id := from; id < to; id++ {
			s, _ := ds.Get(id)
			if err := l.Insert(s, int64(id)); err != nil {
				t.Fatalf("insert %d: %v", id, err)
			}
		}
	}
	openWAL := func(t *testing.T, dir string) *wal.Log {
		t.Helper()
		w, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return w
	}
	mustOpen := func(t *testing.T, opts Options) *LSM {
		t.Helper()
		l, err := Open(opts)
		if err == nil {
			err = l.Replay(nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// snapshot copies a disk the way SaveFile and Open do.
	snapshot := func(t *testing.T, d *storage.Disk) func() *storage.Disk {
		t.Helper()
		mem := fsx.NewMemFS()
		if err := d.SaveFile(mem, "snap"); err != nil {
			t.Fatal(err)
		}
		return func() *storage.Disk {
			c, err := storage.LoadDiskFile(mem, "snap")
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	// Each origin returns the LSM under test over opts (Disk, WAL and shape
	// filled in here) holding the first half of the series.
	origins := []struct {
		name string
		open func(t *testing.T, opts Options) *LSM
	}{
		{"fresh", func(t *testing.T, opts Options) *LSM {
			opts.Disk, opts.Config, opts.GrowthFactor, opts.BufferEntries = storage.NewDisk(0), testConfig(false), growth, buf
			l := mustOpen(t, opts)
			insert(t, l, 0, half)
			return l
		}},
		{"save-open", func(t *testing.T, opts Options) *LSM {
			disk := storage.NewDisk(0)
			saved := mustOpen(t, Options{Disk: disk, Config: testConfig(false), GrowthFactor: growth, BufferEntries: buf, Raw: opts.Raw})
			insert(t, saved, 0, half)
			if err := saved.Save(); err != nil {
				t.Fatal(err)
			}
			opts.Disk = disk
			return mustOpen(t, opts)
		}},
		{"crash-manifest", func(t *testing.T, opts Options) *LSM {
			disk, dir := storage.NewDisk(0), t.TempDir()
			w := openWAL(t, dir)
			crashed := mustOpen(t, Options{Disk: disk, Config: testConfig(false), GrowthFactor: growth, BufferEntries: buf, Raw: opts.Raw,
				WAL: w})
			insert(t, crashed, 0, half)
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if !disk.Exists("clsm" + lsmManifestFileSfx) {
				t.Fatal("the crashed LSM persisted no manifest")
			}
			opts.Disk, opts.WAL = disk, openWAL(t, dir)
			return mustOpen(t, opts)
		}},
		{"snapshot-meta", func(t *testing.T, opts Options) *LSM {
			// A snapshot saved without a log holds a meta file only; reopened
			// over a copy with a log, the LSM takes the rest of the half and
			// crashes with the copy. The snapshot plus the log recover it.
			disk := storage.NewDisk(0)
			saved := mustOpen(t, Options{Disk: disk, Config: testConfig(false), GrowthFactor: growth, BufferEntries: buf, Raw: opts.Raw})
			insert(t, saved, 0, half/2)
			if err := saved.Save(); err != nil {
				t.Fatal(err)
			}
			load, dir := snapshot(t, disk), t.TempDir()
			w := openWAL(t, dir)
			crashed := mustOpen(t, Options{Disk: load(), Raw: opts.Raw, WAL: w})
			insert(t, crashed, half/2, half)
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			opts.Disk, opts.WAL = load(), openWAL(t, dir)
			if opts.Disk.Exists("clsm" + lsmManifestFileSfx) {
				t.Fatal("the snapshot holds a manifest; the row wants a meta file only")
			}
			return mustOpen(t, opts)
		}},
		{"durable-save-open-save", func(t *testing.T, opts Options) *LSM {
			// A durable LSM's snapshot holds a manifest beside its meta file.
			// Reopened without a log, the LSM flushes and merges past both
			// and saves again; that snapshot must reopen to its Save.
			disk := storage.NewDisk(0)
			durable := mustOpen(t, Options{Disk: disk, Config: testConfig(false), GrowthFactor: growth, BufferEntries: buf, Raw: opts.Raw,
				WAL: openWAL(t, t.TempDir())})
			insert(t, durable, 0, half/2)
			if err := durable.Save(); err != nil {
				t.Fatal(err)
			}
			if !disk.Exists("clsm" + lsmManifestFileSfx) {
				t.Fatal("the durable snapshot holds no manifest")
			}
			copied := snapshot(t, disk)()
			reopened := mustOpen(t, Options{Disk: copied, Raw: opts.Raw})
			insert(t, reopened, half/2, half)
			if err := reopened.Save(); err != nil {
				t.Fatal(err)
			}
			if reopened.Merges() <= durable.Merges() {
				t.Fatalf("the reopened LSM merged %d times, the durable one %d; the row wants a merge past the manifest", reopened.Merges(), durable.Merges())
			}
			opts.Disk = snapshot(t, copied)()
			return mustOpen(t, opts)
		}},
	}
	schedulers := []struct {
		name       string
		new        func() *compact.Scheduler
		closeAfter bool // close the scheduler after the third quarter
		background bool // CompactionStats.Background once quiesced
	}{
		{"nil", func() *compact.Scheduler { return nil }, false, false},
		{"zero-workers", func() *compact.Scheduler { return compact.NewScheduler(0) }, false, false},
		{"two-workers", func() *compact.Scheduler { return compact.NewScheduler(2) }, false, true},
		{"closed-after-ingest", func() *compact.Scheduler { return compact.NewScheduler(2) }, true, false},
	}
	for _, sc := range schedulers {
		for _, or := range origins {
			t.Run(sc.name+"/"+or.name, func(t *testing.T) {
				sched := sc.new()
				if sched != nil {
					defer sched.Close()
				}
				l := or.open(t, Options{Raw: normStore{ds}, Scheduler: sched})
				if l.Config() != testConfig(false) || l.opts.GrowthFactor != growth || l.opts.BufferEntries != buf {
					t.Fatalf("shape %+v, growth %d, buffer %d; want the persisted ones", l.Config(), l.opts.GrowthFactor, l.opts.BufferEntries)
				}
				insert(t, l, half, 3*n/4)
				if sc.closeAfter {
					sched.Close()
				}
				insert(t, l, 3*n/4, n)
				if err := l.Quiesce(); err != nil {
					t.Fatal(err)
				}
				assertAllSearchable(t, l, ds, n, 4, 81)
				st := l.CompactionStats()
				if st.Background != sc.background || st.Pending || st.Flushes == 0 || st.Merges == 0 || st.Levels != l.Depth() {
					t.Fatalf("compaction stats %+v", st)
				}
				for lvl, runs := range l.cur.Load().man.levels {
					if len(runs) >= growth {
						t.Fatalf("quiesced level %d holds %d runs, growth factor %d", lvl, len(runs), growth)
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFailedMerge fails the first merge's output writes on a file-backed
// disk, once inline and once on two workers. The error surfaces — from the
// Flush that ran the merge inline, from Quiesce in the background — and is
// the LSM's sticky error, which Close returns; the merge leaves no partial
// run file; every acknowledged insert still answers; and later flushes still
// write level-0 runs while compaction stays halted.
func TestFailedMerge(t *testing.T) {
	const growth, buf = 3, 32
	ds := makeDataset(4*buf, 82)
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fsys := fsx.NewMemFS()
			disk, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "store", FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			var sched *compact.Scheduler
			if workers > 0 {
				sched = compact.NewScheduler(workers)
				defer sched.Close()
			}
			l, err := Open(Options{Disk: disk, Config: testConfig(false), GrowthFactor: growth, BufferEntries: 1 << 10,
				Raw: normStore{ds}, Scheduler: sched})
			if err != nil {
				t.Fatal(err)
			}
			// Flushes write runs 1 to 3; the merge they trigger writes run 4.
			merged := fmt.Sprintf("clsm.run.%06d", growth+1)
			fsys.SetFaultHook(func(op, path string) error {
				if op == "write" && strings.Contains(path, merged) {
					return fsx.ErrInjected
				}
				return nil
			})
			flushBatch := func(b int) error {
				for id := b * buf; id < (b+1)*buf; id++ {
					s, _ := ds.Get(id)
					if err := l.Insert(s, int64(id)); err != nil {
						t.Fatalf("insert %d: %v", id, err)
					}
				}
				return l.Flush()
			}
			for b := 0; b < growth-1; b++ {
				if err := flushBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			err = flushBatch(growth - 1)
			if workers == 0 {
				if !errors.Is(err, fsx.ErrInjected) {
					t.Fatalf("the Flush that ran the merge inline returned %v, want the injected fault", err)
				}
			} else if err != nil {
				t.Fatalf("the Flush that scheduled the merge returned %v", err)
			}
			if err := l.Quiesce(); !errors.Is(err, fsx.ErrInjected) {
				t.Fatalf("Quiesce returned %v, want the injected fault", err)
			}
			if err := l.Close(); !errors.Is(err, fsx.ErrInjected) {
				t.Fatalf("Close returned %v, want the injected fault", err)
			}
			fsys.SetFaultHook(nil)
			want := []string{"clsm.run.000001", "clsm.run.000002", "clsm.run.000003"}
			if files := disk.Files(); !reflect.DeepEqual(files, want) {
				t.Fatalf("files after the failed merge: %v, want %v", files, want)
			}
			assertAllSearchable(t, l, ds, growth*buf, 4, 82)

			if err := flushBatch(growth); err != nil {
				t.Fatalf("a flush after the failed merge returned %v", err)
			}
			if got := len(l.cur.Load().man.levels[0]); got != growth+1 || l.Merges() != 0 || !disk.Exists("clsm.run.000005") {
				t.Fatalf("after the failed merge a flush left %d level-0 runs, %d merges, files %v", got, l.Merges(), disk.Files())
			}
			assertAllSearchable(t, l, ds, (growth+1)*buf, 4, 83)
			if err := l.Close(); !errors.Is(err, fsx.ErrInjected) {
				t.Fatalf("Close returned %v, want the sticky fault", err)
			}
		})
	}
}

// storedSynopsis is r's synopsis as versions 2 and 3 stored it — synLen u32
// | count u64 | minTS u64 | maxTS u64 | key range 32 B | bits u8 |
// segments u8 | envelope minima | maxima — with the envelope narrowed to the
// top symbol of every segment: a bound that, trusted, rules out a run the
// answers are in.
func storedSynopsis(r run.Run) []byte {
	le, syn := binary.LittleEndian, r.Syn
	buf := le.AppendUint32(nil, uint32(58+2*syn.Segments))
	buf = le.AppendUint64(buf, uint64(syn.Count))
	buf = le.AppendUint64(buf, uint64(syn.MinTS))
	buf = le.AppendUint64(buf, uint64(syn.MaxTS))
	buf = append(buf, make([]byte, 2*sortable.KeyBytes)...)
	buf = append(buf, uint8(syn.Bits), uint8(syn.Segments))
	return append(buf, bytes.Repeat([]byte{uint8(1<<syn.Bits - 1)}, 2*syn.Segments)...)
}

// olderPayload is a persisted payload of l's current run set at a format
// version: the given one's counters, options, shape and level count, then
// per run its name and count, from version 2 and to 3 a stored synopsis
// (storedSynopsis), from version 3 its layout byte — 1, the packed layout
// older builds could write, for the run named packedRun, 0 for the others.
func olderPayload(l *LSM, payload []byte, version uint32, packedRun string) []byte {
	le, buf := binary.LittleEndian, slices.Clone(payload[:65])
	for _, lvl := range l.cur.Load().man.levels {
		buf = le.AppendUint32(buf, uint32(len(lvl)))
		for _, r := range lvl {
			buf = le.AppendUint32(buf, uint32(len(r.File)))
			buf = le.AppendUint64(append(buf, r.File...), uint64(r.Count))
			if version == 2 || version == 3 {
				buf = append(buf, storedSynopsis(r)...)
			}
			if version >= 3 {
				packed := byte(0)
				if r.File == packedRun {
					packed = 1
				}
				buf = append(buf, packed)
			}
		}
	}
	return buf
}

// TestOpenOldMetaVersions: Open adopts a meta file of every format version.
// The older ones are the current payload without each run's layout byte
// (before version 3) and with a stored synopsis (versions 2 and 3), which
// Open skips: every version's runs come back with the synopses the live
// LSM holds, PlanSynopses is complete, and they answer the same.
func TestOpenOldMetaVersions(t *testing.T) {
	ds := makeDataset(300, 84)
	l, disk := buildLSM(t, ds, false, 3, 64)
	if err := l.Save(); err != nil {
		t.Fatal(err)
	}
	current, _, err := readBlob(disk, "clsm"+lsmMetaFileSfx, lsmMetaMagic, lsmMetaVersion, 0)
	if err != nil {
		t.Fatal(err)
	}
	live, _ := l.PlanSynopses()
	for version := uint32(1); version <= lsmMetaVersion; version++ {
		payload := current
		if version < lsmMetaVersion {
			payload = olderPayload(l, current, version, "")
		}
		if err := storage.WriteBlob(disk, "clsm"+lsmMetaFileSfx, lsmMetaMagic, version, nil, payload); err != nil {
			t.Fatal(err)
		}
		got, err := Open(Options{Disk: disk, Raw: normStore{ds}})
		if err != nil {
			t.Fatalf("version %d: %v", version, err)
		}
		if got.Count() != l.Count() || got.Runs() != l.Runs() {
			t.Fatalf("version %d: count %d, runs %d; want %d, %d", version, got.Count(), got.Runs(), l.Count(), l.Runs())
		}
		if syns, complete := got.PlanSynopses(); !complete || !reflect.DeepEqual(syns, live) {
			t.Fatalf("version %d: synopses %+v (complete=%v), the live LSM's %+v", version, syns, complete, live)
		}
		assertAllSearchable(t, got, ds, ds.Count(), 3, int64(version))
	}
}

// TestOpenIgnoresStoredSynopses: versions 2 and 3 of the meta file stored
// each run's synopsis, and a planner bounds and skips a run by its synopsis
// alone. Stored ones narrowed away from the query make exact answers wrong
// if trusted; Open rebuilds every synopsis from the run's entries instead,
// so they stay brute force's.
func TestOpenIgnoresStoredSynopses(t *testing.T) {
	ds := makeDataset(300, 85)
	l, disk := buildLSM(t, ds, false, 3, 64)
	if err := l.Save(); err != nil {
		t.Fatal(err)
	}
	current, _, err := readBlob(disk, "clsm"+lsmMetaFileSfx, lsmMetaMagic, lsmMetaVersion, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlob(disk, "clsm"+lsmMetaFileSfx, lsmMetaMagic, 3, nil, olderPayload(l, current, 3, "")); err != nil {
		t.Fatal(err)
	}
	got, err := Open(Options{Disk: disk, Raw: normStore{ds}})
	if err != nil {
		t.Fatal(err)
	}
	assertAllSearchable(t, got, ds, ds.Count(), 20, 85)
}

// TestRecoverIgnoresStoredSynopses is TestOpenIgnoresStoredSynopses through
// a durable LSM's manifest: the run set a crash recovery adopts, with the
// log's unflushed tail replayed beside it.
func TestRecoverIgnoresStoredSynopses(t *testing.T) {
	ds := makeDataset(300, 86)
	disk, dir := crashDisk(t, ds), t.TempDir()
	l, w := durableLSM(t, disk, dir, ds, 64)
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if err := l.Insert(s, int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Runs() < 2 {
		t.Fatalf("test needs several runs, has %d", l.Runs())
	}
	current, _, err := readBlob(disk, "clsm"+lsmManifestFileSfx, lsmManifestMagic, lsmManifestVersion, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlob(disk, "clsm"+lsmManifestFileSfx, lsmManifestMagic, 3, current[:8], olderPayload(l, current[8:], 3, "")); err != nil {
		t.Fatal(err)
	}
	rec, w2 := recoverLSM(t, disk, dir, ds, 64)
	defer w2.Close()
	assertAllSearchable(t, rec, ds, ds.Count(), 20, 86)
}

// TestOpenRefusesPackedRuns: a meta file or a durable LSM's manifest whose
// layout byte says a run is packed, the layout older builds could write,
// does not open, at either version that holds the byte: the error is
// record.ErrPacked, naming the file and the run.
func TestOpenRefusesPackedRuns(t *testing.T) {
	ds := makeDataset(300, 87)
	saved, disk := buildLSM(t, ds, false, 3, 64)
	if err := saved.Save(); err != nil {
		t.Fatal(err)
	}
	meta, _, err := readBlob(disk, "clsm"+lsmMetaFileSfx, lsmMetaMagic, lsmMetaVersion, 0)
	if err != nil {
		t.Fatal(err)
	}
	crashed, dir := crashDisk(t, ds), t.TempDir()
	durable, w := durableLSM(t, crashed, dir, ds, 64)
	for id := 0; id < ds.Count(); id++ {
		s, _ := ds.Get(id)
		if err := durable.Insert(s, int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	manifest, _, err := readBlob(crashed, "clsm"+lsmManifestFileSfx, lsmManifestMagic, lsmManifestVersion, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint32{3, 4} {
		packedRun := allRuns(saved.cur.Load().man)[0].File
		if err := storage.WriteBlob(disk, "clsm"+lsmMetaFileSfx, lsmMetaMagic, version, nil, olderPayload(saved, meta, version, packedRun)); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Options{Disk: disk, Raw: normStore{ds}})
		if !errors.Is(err, record.ErrPacked) || !strings.Contains(err.Error(), "clsm"+lsmMetaFileSfx) || !strings.Contains(err.Error(), packedRun) {
			t.Errorf("meta v%d with run %s packed: %v; want record.ErrPacked naming the file and the run", version, packedRun, err)
		}

		packedRun = allRuns(durable.cur.Load().man)[0].File
		if err := storage.WriteBlob(crashed, "clsm"+lsmManifestFileSfx, lsmManifestMagic, version, manifest[:8], olderPayload(durable, manifest[8:], version, packedRun)); err != nil {
			t.Fatal(err)
		}
		opts, w2 := crashOpts(t, crashed, dir, ds, 64)
		_, err = Open(opts)
		w2.Close()
		if !errors.Is(err, record.ErrPacked) || !strings.Contains(err.Error(), "clsm"+lsmManifestFileSfx) || !strings.Contains(err.Error(), packedRun) {
			t.Errorf("manifest v%d with run %s packed: %v; want record.ErrPacked naming the file and the run", version, packedRun, err)
		}
	}
}
