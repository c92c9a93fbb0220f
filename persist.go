package coconut

import "repro/internal/assemble"

// openSpec maps the optional Options of the Open functions onto the build
// description the snapshot is reopened under.
func openSpec(fam string, opts []Options) assemble.Spec {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	spec := o.spec(fam)
	// The snapshot defines the index shape: the persisted LSM buffer size
	// stands unless the caller explicitly overrides it.
	spec.BufferEntries = o.BufferEntries
	return spec
}

// OpenTree reopens a tree saved with SaveFile. Searches, inserts, and
// statistics work exactly as on the original. Parallelism is not part of
// the snapshot: reopened trees use the default (GOMAXPROCS) worker pool;
// call SetParallelism to change it.
//
// An optional Options value says where and how to reopen: FS names the
// filesystem the snapshot was saved on, and CacheBytes puts a buffer pool of
// that size between the tree and its pages, as in BuildTree (frames take the
// snapshot's page size). Other Options fields are ignored; the snapshot
// defines the index shape.
func OpenTree(path string, opts ...Options) (*Tree, error) {
	b, err := assemble.Open(path, openSpec("CTree", opts))
	if err != nil {
		return nil, err
	}
	return newTree(b), nil
}

// OpenLSM reopens an LSM saved with SaveFile. Parallelism is not part of
// the snapshot: reopened indexes use the default (GOMAXPROCS) worker pool;
// call SetParallelism to change it.
//
// An optional Options value re-attaches the ingest machinery: WALDir
// replays the log tail past the snapshot (recovering acknowledged inserts
// the snapshot missed — the crash story), Durability applies as in NewLSM,
// and so do CompactionWorkers, with or without a WAL, and CacheBytes, as in
// OpenTree. CompressRuns also applies: run encoding is a property of each
// run, so existing runs keep the encoding they were written with while new
// flushes and merges follow the reopened setting. GrowthFactor and
// BufferEntries, when set, override the persisted ones. Other Options fields
// are ignored; the snapshot defines the index shape.
func OpenLSM(path string, opts ...Options) (*LSM, error) {
	b, err := assemble.Open(path, openSpec("CLSM", opts))
	if err != nil {
		return nil, err
	}
	return newLSM(b), nil
}

// OpenSharded reopens a sharded index saved with SaveFile: the manifest
// names the shard files, each shard reopens as an unsharded snapshot, and
// the global ID space is rebuilt from the deterministic hash placement.
// Parallelism is not part of the snapshot: reopened sharded indexes probe
// shards on the default (GOMAXPROCS) pool with serial per-shard scans; call
// SetParallelism to change the cross-shard pool. An optional Options value
// applies to every shard as in OpenTree / OpenLSM (WALDir is the root of
// the per-shard logs; CacheBytes sizes one pool all shards share).
func OpenSharded(path string, opts ...Options) (*Sharded, error) {
	b, err := assemble.OpenSharded(path, openSpec("", opts))
	if err != nil {
		return nil, err
	}
	return &Sharded{handle{b: b, cfg: b.Config}}, nil
}
