// Package assemble turns the description of one index configuration into a
// running index. It is the single assembly stack of the repository: the
// public coconut facade, the algorithms server and the experiment harness
// all describe a build as a Spec and obtain it from Build (or Open, for a
// saved snapshot), so every design choice the paper's recommender navigates
// — variant × materialization × streaming scheme × buffer × growth × cache ×
// backend × WAL × shards — is declared, validated, wired and torn down in
// one place.
//
// Build performs, in order: storage backend (simulated disk or file-backed
// page store) → buffer pool on the build's shared cache → raw series file
// (non-materialized only: on the build's disk or a heap disk of its own) →
// write-ahead log (opened, and replayed when it already holds entries) →
// compaction scheduler → the CTree / CLSM / ADS+ index, or the streaming
// scheme over it → for partitioned builds, one such shard per owned
// partition on the shared cache and scheduler, wrapped in a shard.Group.
//
// A stream is a build. PP, the post-processing scheme, is the variant
// itself, ingesting arrivals through Built.Ingest and filtering windows as
// it searches. TP and BTP (Spec.Scheme) partition the arrivals themselves —
// TP into partitions of the variant, BTP into CLSM runs — on the same disk,
// pool and raw series file, and are the build's Index: every search entry of
// Built serves them unchanged. The build's search pool and query
// planner are made once, for the whole build; parts hold neither. The
// returned Built owns everything it opened; a build that fails part-way
// closes what it had opened before returning the error.
package assemble

import (
	"fmt"
	"strings"

	"repro/internal/fsx"
	"repro/internal/index"
	"repro/internal/storage"
)

// Variants lists the index variants Build accepts, matching Figure 1 of the
// paper. A "Full" suffix selects the materialized form (series stored inline
// in the index).
var Variants = []string{"ADS+", "ADSFull", "CTree", "CTreeFull", "CLSM", "CLSMFull"}

// Index families behind the variant names.
const (
	familyADS   = "ADS"
	familyCTree = "CTree"
	familyCLSM  = "CLSM"
)

// Spec describes one index build. The zero value of every field selects the
// paper-faithful default: simulated disk, no cache, serial execution, inline
// merges, no WAL, unsharded. Results are byte-identical whatever the cache,
// parallelism, partitioning, backend and page-encoding fields say;
// they move I/O cost and wall-clock time only.
type Spec struct {
	// Variant names the index, one of Variants; SeriesLen is the fixed
	// length of every series (required); Segments (default 16) and Bits
	// (default 8) shape the iSAX summarization.
	Variant   string `json:"variant"`
	SeriesLen int    `json:"series_len"`
	Segments  int    `json:"segments,omitempty"`
	Bits      int    `json:"bits,omitempty"`
	// FillFactor (CTree) is the fraction of each leaf filled at build time,
	// in (0,1], default 1.0; GrowthFactor (CLSM) the runs per level before
	// merging, default 4.
	FillFactor   float64 `json:"fill_factor,omitempty"`
	GrowthFactor int     `json:"growth_factor,omitempty"`
	// MemBudget is the construction memory in bytes (default 1 MiB): the
	// external sort's working memory for CTree and, unless BufferEntries
	// sizes it in entries, the CLSM write buffer / ADS+ insert buffer.
	MemBudget     int `json:"mem_budget,omitempty"`
	BufferEntries int `json:"buffer_entries,omitempty"`
	// PageSize of the storage backend (default 4096).
	PageSize int `json:"page_size,omitempty"`
	// CacheBytes sizes the buffer pool between the index and its disk(s);
	// partitioned builds share one pool of this size. 0 keeps every read on
	// the backend's accounting.
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	// Parallelism bounds the workers of construction sorting, shard
	// construction and searches: 0 or 1 is fully serial (the paper's
	// single-stream I/O accounting), negative selects GOMAXPROCS.
	Parallelism int `json:"parallelism,omitempty"`
	// Shards >= 1 hash-partitions the series across that many shards of the
	// variant, each on its own disk, behind a shard.Group owning all of
	// them; 0 builds the plain index. ClusterShards > 0 instead builds one
	// node's share of a distributed index: the same partition, of which only
	// the NodeShards subset (each in [0, ClusterShards), no duplicates) is
	// materialized, and inserts carry router-assigned global IDs.
	Shards        int   `json:"shards,omitempty"`
	ClusterShards int   `json:"cluster_shards,omitempty"`
	NodeShards    []int `json:"node_shards,omitempty"`
	// RawInMemory puts a non-materialized build's raw series file on a heap
	// disk of its own, whose fetches no Stats, cache or page count sees.
	// The default puts it on the build's disk and charges its page reads, as
	// the paper charges its raw data file. A materialized build keeps no raw
	// series file, and ignores it.
	RawInMemory bool `json:"raw_in_memory,omitempty"`
	// WALDir (CLSM) logs every insert to a segmented write-ahead log in this
	// directory before acknowledging it, under the Durability group-commit
	// policy ("" or "batched": several inserts per fsync; "sync": every
	// insert). A directory that already holds a log is replayed — crash
	// recovery — which needs a build that starts empty. CompactionWorkers
	// (CLSM) > 0 runs level merges on that many background workers.
	// Partitioned builds keep one log per shard (shard-NNN subdirectories)
	// and share one worker pool.
	WALDir            string `json:"wal_dir,omitempty"`
	Durability        string `json:"durability,omitempty"`
	CompactionWorkers int    `json:"compaction_workers,omitempty"`
	// StorageDir selects the file-backed page store rooted at this host
	// directory (partitioned builds: one shard-NNN subdirectory per shard);
	// empty keeps the simulated disk. FS overrides the host filesystem
	// behind page files, WAL and snapshots (nil: the real one;
	// fault-injection tests put fsx.MemFS here).
	StorageDir string `json:"storage_dir,omitempty"`
	FS         fsx.FS `json:"-"`
	// Scheme puts a streaming scheme over the variant (Section 3 of the
	// paper): "TP" seals every BufferEntries arrivals into a partition of a
	// CTree or ADS+ variant, "BTP" into a CLSM run that bounded merges
	// consolidate. "" builds the variant itself, which is the PP scheme when
	// it ingests a stream. A scheme build starts empty, unpartitioned and
	// without a WAL or background compaction, and takes its series through
	// Ingest.
	Scheme string `json:"scheme,omitempty"`
	// Tracer, when set, observes every page access of the build's disk(s)
	// from the first write of construction on (SetTracer installs one
	// afterwards); partitioned builds prefix file names per shard.
	Tracer storage.Tracer `json:"-"`
}

// family splits a variant name into its index family and whether it is the
// materialized form; ok is false for a name not in Variants.
func family(variant string) (fam string, materialized, ok bool) {
	for _, v := range Variants {
		ok = ok || v == variant
	}
	materialized = strings.HasSuffix(variant, "Full")
	return strings.TrimSuffix(strings.TrimSuffix(variant, "Full"), "+"), materialized, ok
}

// VariantOf names the variant of an index family ("CTree", "CLSM") in its
// plain or materialized form.
func VariantOf(fam string, materialized bool) string {
	if materialized {
		return fam + "Full"
	}
	return fam
}

// Partitioned reports whether the spec asks for a hash-partitioned build (a
// shard.Group), in-process or cluster.
func (s Spec) Partitioned() bool { return s.Shards > 0 || s.ClusterShards > 0 }

// Config returns the summarization configuration the spec describes, with
// the Segments and Bits defaults applied.
func (s Spec) Config() index.Config {
	_, materialized, _ := family(s.Variant)
	cfg := index.Config{SeriesLen: s.SeriesLen, Segments: s.Segments, Bits: s.Bits, Materialized: materialized}
	if cfg.Segments == 0 {
		cfg.Segments = 16
	}
	if cfg.Bits == 0 {
		cfg.Bits = 8
	}
	return cfg
}

// Streaming schemes Spec.Scheme names.
const (
	schemeTP  = "TP"
	schemeBTP = "BTP"
)

// Validate is the one check of a build description: variant, summarization
// shape, partitioning, the durability enum and the streaming scheme. Callers
// facing outside input add their own resource caps on top.
func (s Spec) Validate() error {
	if _, _, ok := family(s.Variant); !ok {
		return fmt.Errorf("assemble: unknown variant %q (want one of %v)", s.Variant, Variants)
	}
	if err := s.Config().Validate(); err != nil {
		return err
	}
	if s.Shards < 0 {
		return fmt.Errorf("assemble: shards must be >= 0, got %d", s.Shards)
	}
	if s.ClusterShards > 0 || len(s.NodeShards) > 0 {
		if s.Shards > 0 {
			return fmt.Errorf("assemble: cluster builds partition by cluster_shards; shards must stay unset")
		}
		if s.ClusterShards < 1 {
			return fmt.Errorf("assemble: node_shards needs cluster_shards >= 1, got %d", s.ClusterShards)
		}
		if len(s.NodeShards) == 0 {
			return fmt.Errorf("assemble: cluster build needs node_shards (which of the %d shards this node holds)", s.ClusterShards)
		}
		seen := make(map[int]bool, len(s.NodeShards))
		for _, si := range s.NodeShards {
			if si < 0 || si >= s.ClusterShards {
				return fmt.Errorf("assemble: node shard %d outside [0, %d)", si, s.ClusterShards)
			}
			if seen[si] {
				return fmt.Errorf("assemble: node shard %d listed twice", si)
			}
			seen[si] = true
		}
	}
	switch s.Durability {
	case "", "batched", "sync":
	default:
		return fmt.Errorf("assemble: unknown durability %q (want \"batched\" or \"sync\")", s.Durability)
	}
	return s.validScheme()
}

// validScheme checks the streaming scheme against the variant it goes over
// and the settings a stream has no use for.
func (s Spec) validScheme() error {
	fam, _, _ := family(s.Variant)
	switch {
	case s.Scheme == "":
		return nil
	case s.Scheme != schemeTP && s.Scheme != schemeBTP:
		return fmt.Errorf("assemble: unknown scheme %q (want \"TP\", \"BTP\", or none for PP)", s.Scheme)
	case s.Scheme == schemeTP && fam == familyCLSM:
		return fmt.Errorf("assemble: TP partitions a CTree or ADS+ variant, not %s (BTP is the CLSM scheme)", s.Variant)
	case s.Scheme == schemeBTP && fam != familyCLSM:
		return fmt.Errorf("assemble: BTP partitions are CLSM runs, not %s", s.Variant)
	case s.Partitioned():
		return fmt.Errorf("assemble: a %s stream is unpartitioned; shards and cluster shards must stay unset", s.Scheme)
	case s.WALDir != "" || s.CompactionWorkers > 0:
		return fmt.Errorf("assemble: a %s stream keeps no write-ahead log and runs no background compaction; wal_dir and compaction_workers must stay unset", s.Scheme)
	}
	return nil
}

// resolve validates the spec and applies Build's defaults.
func (s Spec) resolve() (Spec, index.Config, error) {
	if err := s.Validate(); err != nil {
		return s, index.Config{}, err
	}
	if s.MemBudget == 0 {
		s.MemBudget = 1 << 20
	}
	if s.Parallelism == 0 {
		s.Parallelism = 1
	}
	cfg := s.Config()
	s.Segments, s.Bits = cfg.Segments, cfg.Bits
	return s, cfg, nil
}
