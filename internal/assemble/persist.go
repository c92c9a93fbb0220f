package assemble

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/clsm"
	"repro/internal/ctree"
	"repro/internal/fsx"
	"repro/internal/shard"
	"repro/internal/storage"
)

// File names inside a build's disk. Saved snapshots hold the index names,
// so they cannot change; mirrorFile is the snapshot's copy of the raw series
// file of a non-materialized RawInMemory build, so such an index reopens
// self-contained.
const (
	treeName   = "ctree"
	lsmName    = "clsm"
	mirrorFile = "coconut.raw"
)

// SaveFile persists the build — index pages, structure metadata and, when
// not materialized, the raw series file — into one snapshot file on the host
// filesystem (Spec.FS), reopened with Open. CLSM write buffers are flushed
// first, and with a WAL a successful save is a checkpoint: what the snapshot
// holds leaves the log. A partitioned build owning every shard saves as a
// file set — a JSON manifest at path plus one such snapshot per shard at
// path.shardNNN — reopened with OpenSharded.
func (b *Built) SaveFile(path string) error {
	if b.Group != nil {
		return b.saveParts(path)
	}
	saver, ok := b.Index.(interface{ Save() error })
	if !ok {
		return fmt.Errorf("assemble: %s cannot be saved: snapshots hold a CTree or CLSM", b.Index.Name())
	}
	if err := saver.Save(); err != nil {
		return err
	}
	if b.Raw != nil && b.Raw.Disk() != b.Disk {
		// A raw series file on the build's disk is in the snapshot already.
		if err := b.Disk.Remove(mirrorFile); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return err
		}
		if _, err := storage.CreateRawFile(b.Disk, mirrorFile, b.Config.SeriesLen, b.Raw.Count(), b.Raw.Get); err != nil {
			return err
		}
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
// hold: FS (where the file lives), CacheBytes (a buffer pool over the
// snapshot's pages, as Build puts one), and for CLSM Compress (a property of
// each run: existing runs keep theirs, new flushes and merges follow the
// setting), WALDir and Durability (the log tail past the snapshot is
// replayed — the crash story), CompactionWorkers, and GrowthFactor /
// BufferEntries to override the persisted shape. Other fields are ignored:
// parallelism is not part of a snapshot (SetParallelism).
func Open(path string, spec Spec) (*Built, error) {
	disk, err := storage.LoadDiskFile(spec.FS, path)
	if err != nil {
		return nil, err
	}
	spec.PageSize = disk.PageSize() // the cache's frames hold the snapshot's pages
	return owned(spec, func(sh shared) (*Built, error) { return openOne(disk, spec, sh) })
}

// openOne reopens the index on disk, a loaded snapshot, behind a pool on the
// shared cache, re-attaching the WAL when the spec names one. On error
// everything it opened, disk included, is closed.
func openOne(disk storage.Backend, spec Spec, sh shared) (b *Built, err error) {
	b = &Built{Disk: disk, Planner: sh.planner, Compactor: sh.sched}
	defer func() {
		if err != nil {
			b.Close()
			b = nil
		}
	}()
	if err = b.attach(sh.cache); err != nil {
		return
	}
	// Only the index can say whether it reads a raw series file, and of how
	// many series: it takes one that is opened once it has.
	b.Raw = new(storage.RawFile)
	fam, _, _ := family(spec.Variant)
	switch fam {
	case familyCTree:
		var tree *ctree.Tree
		if tree, err = ctree.Open(ctree.Options{
			Disk: disk, Reader: b.Reader(), Name: treeName, Raw: b.RawStore(), Planner: b.Planner,
		}); err != nil {
			return
		}
		b.Index, b.Config = tree, tree.Config()
	case familyCLSM:
		if spec.WALDir != "" {
			if b.WAL, err = openWAL(spec); err != nil {
				return
			}
		}
		var lsm *clsm.LSM
		if lsm, err = clsm.Open(clsm.Options{
			Disk: disk, Reader: b.Reader(), Name: lsmName, GrowthFactor: spec.GrowthFactor, BufferEntries: spec.BufferEntries,
			Raw: b.RawStore(), WAL: b.WAL, Scheduler: b.Compactor, Planner: b.Planner, Compress: spec.Compress,
		}); err != nil {
			return
		}
		b.Index, b.Config = lsm, lsm.Config()
	default:
		err = fmt.Errorf("assemble: no snapshot format for variant %q (want a CTree or CLSM variant)", spec.Variant)
		return
	}
	spec.Variant = VariantOf(fam, b.Config.Materialized)
	spec.SeriesLen, spec.Segments, spec.Bits = b.Config.SeriesLen, b.Config.Segments, b.Config.Bits
	// The raw series file stays where the build kept it.
	spec.RawInMemory = !disk.Exists(rawFile)
	spec.Parallelism = -1 // not part of a snapshot: a reopened index takes the default pool
	b.Spec = spec
	if err = spec.Validate(); err != nil {
		return
	}
	if b.Config.Materialized {
		// A snapshot written while materialized builds kept raw series still
		// holds them; they go, so that a new snapshot holds none.
		b.Raw = nil
		if disk.Exists(mirrorFile) {
			if err = disk.Remove(mirrorFile); err != nil {
				return
			}
		}
	} else if err = b.loadRaw(); err != nil {
		return
	}
	if lsm, ok := b.Index.(*clsm.LSM); ok {
		if err = b.replay(lsm); err != nil {
			return
		}
	}
	err = b.inStep()
	return
}

// loadRaw reopens the snapshot's raw series file where the build that saved
// it kept it, holding what the index holds: on the disk, or, copied from the
// mirror, on a heap disk of its own. A log's tail replays past it.
func (b *Built) loadRaw() error {
	n, count, d := b.Config.SeriesLen, b.Index.Count(), b.Disk
	if b.Spec.RawInMemory {
		if !b.Disk.Exists(mirrorFile) {
			return fmt.Errorf("assemble: snapshot missing raw store %q", mirrorFile)
		}
		var mirror storage.RawFile
		if err := mirror.Open(b.Disk, mirrorFile, n, count); err != nil {
			return err
		}
		d = heapRawDisk(n)
		if _, err := storage.CreateRawFile(d, rawFile, n, int(count), mirror.Get); err != nil {
			return err
		}
	}
	if err := b.Raw.Open(d, rawFile, n, count); err != nil {
		return err
	}
	b.useRaw()
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
	// Every shard's snapshot holds pages of one size, the cache's frames.
	disk, err := storage.LoadDiskFile(spec.FS, shardFilePath(path, 0))
	if err != nil {
		return nil, fmt.Errorf("assemble: opening shard 0: %w", err)
	}
	spec.PageSize = disk.PageSize()
	return owned(spec, func(sh shared) (*Built, error) {
		b := &Built{Cache: sh.cache, Planner: sh.planner, Compactor: sh.sched}
		inner := spec
		all := make([]int, m.Shards)
		var total int64
		for i := range all {
			all[i] = i
			if spec.WALDir != "" {
				inner.WALDir = shardDir(spec.WALDir, i)
			}
			var p *Built
			if i > 0 {
				disk, err = storage.LoadDiskFile(spec.FS, shardFilePath(path, i))
			}
			if err == nil {
				p, err = openOne(disk, inner, sh)
			}
			if err != nil {
				return b, fmt.Errorf("assemble: opening shard %d: %w", i, err)
			}
			p.SetParallelism(1)
			b.Parts = append(b.Parts, p)
			total += p.Index.Count()
		}
		b.Spec, b.Config = b.Parts[0].Spec, b.Parts[0].Config
		b.Spec.Shards, b.Spec.WALDir = m.Shards, spec.WALDir
		return b, b.group(m.Shards, all, shard.Partition(total, m.Shards), -1)
	})
}
