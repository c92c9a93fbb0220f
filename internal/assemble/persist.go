package assemble

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/clsm"
	"repro/internal/compact"
	"repro/internal/ctree"
	"repro/internal/fsx"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/simd"
	"repro/internal/storage"
)

// File names inside a build's disk. Saved snapshots hold the index names,
// so they cannot change; mirrorFile is the snapshot's copy of the in-memory
// raw store, so non-materialized indexes reopen self-contained.
const (
	treeName   = "ctree"
	lsmName    = "clsm"
	mirrorFile = "coconut.raw"
)

// SaveFile persists the build — index pages, structure metadata and the raw
// series store — into one snapshot file on the host filesystem (Spec.FS),
// reopened with Open. CLSM write buffers are flushed first, and with a WAL a
// successful save is a checkpoint: what the snapshot holds leaves the log. A
// partitioned build owning every shard saves as a file set — a JSON manifest
// at path plus one such snapshot per shard at path.shardNNN — reopened with
// OpenSharded.
func (b *Built) SaveFile(path string) error {
	if b.Group != nil {
		return b.saveParts(path)
	}
	saver, ok := b.Index.(interface{ Save() error })
	if !ok || b.mem == nil {
		return fmt.Errorf("assemble: %s cannot be saved: snapshots hold a CTree or CLSM built with RawInMemory", b.Index.Name())
	}
	if err := saver.Save(); err != nil {
		return err
	}
	ss := b.mem.Snapshot()
	if _, err := writeRawFile(b.Disk, mirrorFile, b.Config.SeriesLen, len(ss), func(i int) series.Series { return ss[i] }); err != nil {
		return err
	}
	// The snapshot write is atomic-and-durable (temp file, fsync, rename,
	// parent-dir fsync) before the log is touched; only then may the
	// checkpoint truncate. Reversing the order — or truncating after a
	// non-durable write — loses acknowledged inserts if the machine dies
	// between the truncation reaching disk and the snapshot doing so.
	if err := b.Disk.SaveFile(b.Spec.FS, path); err != nil {
		return err
	}
	if b.WAL != nil {
		// Checkpoint: every logged entry is in the snapshot (Save flushed
		// the buffer); the whole retained log is obsolete.
		if err := b.WAL.Sync(); err != nil {
			return err
		}
		return b.WAL.Checkpoint(b.WAL.NextLSN() - 1)
	}
	return nil
}

// partsManifest is the JSON header of a partitioned snapshot: everything
// needed to reopen the shard files and rebuild the global ID space (the
// hash placement is a pure function of count and shard count, so the
// local-to-global mappings are not stored).
type partsManifest struct {
	Format string `json:"format"` // partsFormat
	Kind   string `json:"kind"`   // "tree" or "lsm"
	Shards int    `json:"shards"`
	Count  int64  `json:"count"`
}

const partsFormat = "coconut-sharded"

// kinds maps an index family to the manifest's name for it.
var kinds = map[string]string{familyCTree: "tree", familyCLSM: "lsm"}

// Kind returns the snapshot kind of the build's index family: "tree" for
// CTree variants, "lsm" for CLSM variants, "" for ADS+.
func (b *Built) Kind() string {
	fam, _, _ := family(b.Spec.Variant)
	return kinds[fam]
}

// shardFilePath names shard i's snapshot file within a partitioned file set.
func shardFilePath(path string, i int) string { return fmt.Sprintf("%s.shard%03d", path, i) }

func (b *Built) saveParts(path string) error {
	if len(b.Parts) != b.Group.NShards() {
		return fmt.Errorf("assemble: %s holds %d of %d shards; only a group owning every shard saves as one snapshot",
			b.Index.Name(), len(b.Parts), b.Group.NShards())
	}
	for i, p := range b.Parts {
		if err := p.SaveFile(shardFilePath(path, i)); err != nil {
			return fmt.Errorf("assemble: saving shard %d: %w", i, err)
		}
	}
	buf, err := json.Marshal(partsManifest{Format: partsFormat, Kind: b.Kind(), Shards: len(b.Parts), Count: b.Group.Count()})
	if err != nil {
		return err
	}
	// The manifest commits the shard file set: write it atomically and
	// durably (temp, fsync, rename, dir fsync) so a crash leaves either
	// the previous complete snapshot or the new one, never a torn header
	// over freshly truncated shard logs.
	return fsx.WriteFileAtomic(fsx.OrOS(b.Spec.FS), path, func(w io.Writer) error {
		_, werr := w.Write(buf)
		return werr
	})
}

// Open reopens an unpartitioned snapshot written by SaveFile. The snapshot
// defines the index shape; spec names the index family by its Variant
// ("CTree" or "CLSM", either form) and carries what a snapshot does not
// hold: FS (where the file lives), DisablePlanner and Kernels, and for CLSM
// Compress (a property of each run: existing runs keep theirs, new flushes
// and merges follow the setting), WALDir and Durability (the log tail past
// the snapshot is replayed — the crash story), CompactionWorkers (with a
// WAL), and GrowthFactor / BufferEntries to override the persisted shape.
// Other fields are ignored: parallelism and caching are not part of a
// snapshot (SetParallelism, EnableCache).
func Open(path string, spec Spec) (*Built, error) {
	sh := openShared(spec)
	b, err := openOne(path, spec, sh)
	if err != nil {
		if sh.sched != nil {
			sh.sched.Close()
		}
		return nil, err
	}
	b.ownsSched = true
	return b, nil
}

// openShared returns the planner and — only with a log to recover through,
// for without one nothing runs in the background — the scheduler a reopened
// build's parts share.
func openShared(spec Spec) shared {
	sh := shared{planner: &index.Planner{Disabled: spec.DisablePlanner}}
	if spec.WALDir != "" && spec.CompactionWorkers > 0 {
		sh.sched = compact.NewScheduler(spec.CompactionWorkers)
	}
	return sh
}

// openOne loads one snapshot file into a simulated disk and reopens the
// index on it, re-attaching the WAL when the spec names one. On error
// everything it opened is closed.
func openOne(path string, spec Spec, sh shared) (b *Built, err error) {
	if spec.Kernels != "" {
		if err := simd.Select(spec.Kernels); err != nil {
			return nil, fmt.Errorf("assemble: %w", err)
		}
	}
	disk, err := storage.LoadDiskFile(spec.FS, path)
	if err != nil {
		return nil, err
	}
	b = &Built{Disk: disk, Planner: sh.planner, Compactor: sh.sched, mem: &MemStore{}}
	b.Raw = b.mem
	defer func() {
		if err != nil {
			b.Close()
			b = nil
		}
	}()
	var saved clsm.Saved
	fam, _, _ := family(spec.Variant)
	// The raw mirror covers exactly the snapshot-resident entries; WAL
	// replay appends past it.
	var resident int64
	switch fam {
	case familyCTree:
		var tree *ctree.Tree
		if tree, err = ctree.Open(disk, treeName, b.mem); err != nil {
			return
		}
		tree.SetPlanner(b.Planner)
		b.Index, b.Config, resident = tree, tree.Config(), tree.Count()
	case familyCLSM:
		var found bool
		if saved, found, err = clsm.SavedState(disk, lsmName); err == nil && !found {
			err = fmt.Errorf("assemble: %s holds no saved CLSM", path)
		}
		if err != nil {
			return
		}
		b.Config, resident = saved.Config, saved.Count
	default:
		err = fmt.Errorf("assemble: no snapshot format for variant %q (want a CTree or CLSM variant)", spec.Variant)
		return
	}
	spec.Variant = VariantOf(fam, b.Config.Materialized)
	spec.SeriesLen, spec.Segments, spec.Bits = b.Config.SeriesLen, b.Config.Segments, b.Config.Bits
	spec.RawInMemory = true
	spec.Parallelism = -1 // not part of a snapshot: a reopened index takes the default pool
	b.Spec = spec
	if err = spec.Validate(); err != nil {
		return
	}
	if err = loadMirror(disk, b.mem, b.Config.SeriesLen, resident); err != nil || fam == familyCTree {
		return
	}
	var lsm *clsm.LSM
	if spec.WALDir == "" {
		if lsm, err = clsm.Open(disk, lsmName, b.mem); err != nil {
			return
		}
		lsm.SetPlanner(b.Planner)
		err = lsm.SetCompress(spec.Compress)
	} else {
		// Durable reopen: recover through manifest + WAL tail, with the
		// persisted growth factor and buffer size unless the spec overrides.
		if b.WAL, err = openWAL(spec); err != nil {
			return
		}
		opts := clsm.Options{
			Disk: disk, Name: lsmName, Config: b.Config,
			GrowthFactor: spec.GrowthFactor, BufferEntries: spec.BufferEntries, Raw: b.mem,
			WAL: b.WAL, Scheduler: b.Compactor, Planner: b.Planner, Compress: spec.Compress,
		}
		if opts.GrowthFactor == 0 {
			opts.GrowthFactor = saved.GrowthFactor
		}
		if opts.BufferEntries == 0 {
			opts.BufferEntries = saved.BufferEntries
		}
		lsm, err = clsm.Recover(opts, b.replayed)
	}
	if err == nil {
		b.Index = lsm
	}
	return
}

// loadMirror reads the snapshot's raw series mirror back into memory.
func loadMirror(disk storage.Backend, mem *MemStore, seriesLen int, count int64) error {
	if !disk.Exists(mirrorFile) {
		return fmt.Errorf("assemble: snapshot missing raw store %q", mirrorFile)
	}
	rf, err := storage.OpenRecordFile(disk, mirrorFile, series.Size(seriesLen))
	if err != nil {
		return err
	}
	for i := int64(0); i < count; i++ {
		rec, err := rf.Get(i)
		if err != nil {
			return fmt.Errorf("assemble: reading raw series %d: %w", i, err)
		}
		s, err := series.DecodeBinary(rec, seriesLen)
		if err != nil {
			return err
		}
		mem.Append(s)
	}
	return nil
}

// OpenSharded reopens a partitioned snapshot saved with SaveFile: the
// manifest names the shard files, each shard reopens as an unpartitioned
// snapshot under spec (see Open; a WALDir is the root of the per-shard
// logs), and the global ID space is rebuilt from the deterministic hash
// placement. Shards scan serially and the cross-shard pool takes the
// default size (GOMAXPROCS); SetParallelism changes it.
func OpenSharded(path string, spec Spec) (*Built, error) {
	buf, err := fsx.OrOS(spec.FS).ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m partsManifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("assemble: %s is not a sharded snapshot manifest: %w", path, err)
	}
	if m.Format != partsFormat {
		return nil, fmt.Errorf("assemble: %s has format %q, want %q", path, m.Format, partsFormat)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("assemble: manifest %s names %d shards", path, m.Shards)
	}
	spec.Variant = ""
	for fam, kind := range kinds {
		if kind == m.Kind {
			spec.Variant = fam
		}
	}
	if spec.Variant == "" {
		return nil, fmt.Errorf("assemble: manifest %s has unknown kind %q", path, m.Kind)
	}
	inner := spec
	sh := openShared(spec)
	b := &Built{Planner: sh.planner, Compactor: sh.sched, ownsSched: true}
	owned := make([]int, m.Shards)
	var total int64
	for i := range owned {
		owned[i] = i
		if spec.WALDir != "" {
			inner.WALDir = shardDir(spec.WALDir, i)
		}
		p, err := openOne(shardFilePath(path, i), inner, sh)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("assemble: opening shard %d: %w", i, err)
		}
		p.SetParallelism(1)
		b.Parts = append(b.Parts, p)
		total += p.Index.Count()
	}
	b.Spec, b.Config = b.Parts[0].Spec, b.Parts[0].Config
	b.Spec.Shards, b.Spec.WALDir = m.Shards, spec.WALDir
	if err := b.group(m.Shards, owned, shard.Partition(total, m.Shards), -1); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}
