package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// maxUnitDetail caps the per-unit records a trace keeps; beyond it only
// the per-kind aggregates grow (UnitsTruncated counts the overflow).
const maxUnitDetail = 256

// QueryTrace records one query's execution for the ?trace=1 / explain
// surface: which probe units (runs, partitions, leaves, shards) were
// probed vs. skipped and at what synopsis bound, candidate verification
// counts, and per-phase wall time. Every method
// is safe on a nil receiver — the untraced hot path pays one nil check
// and nothing else. A traced query may take the internal mutex and
// allocate freely; traces are per-request and never shared across
// queries.
type QueryTrace struct {
	mu        sync.Mutex
	units     []UnitSnapshot
	truncated int
	kinds     []KindCount
	phases    []PhaseSnapshot

	seen, verified, abandoned, pruned atomic.Int64
	undecoded                         atomic.Int64
}

// NewQueryTrace returns an empty trace.
func NewQueryTrace() *QueryTrace { return &QueryTrace{} }

// UnitSnapshot is one probe unit's record: a run, stream partition,
// tree leaf, or shard, identified by its index within its kind, with
// the synopsis lower bound the planner computed for it (squared
// distance; 0 when no bound was computed).
type UnitSnapshot struct {
	Kind    string  `json:"kind"`
	Idx     int     `json:"idx"`
	BoundSq float64 `json:"bound_sq"`
	Skipped bool    `json:"skipped,omitempty"`
}

// KindCount aggregates probed/skipped totals for one unit kind.
type KindCount struct {
	Kind    string `json:"kind"`
	Probed  int64  `json:"probed"`
	Skipped int64  `json:"skipped"`
}

// PhaseSnapshot is accumulated wall time for one named phase.
type PhaseSnapshot struct {
	Name   string `json:"name"`
	Micros int64  `json:"micros"`
}

// CandidateCounts tallies candidate handling during verification.
type CandidateCounts struct {
	// Seen is candidates inside the query window that reached the
	// verifier; Verified entered a full distance computation; Abandoned
	// started one but crossed the early-abandon limit; Pruned were
	// rejected by a lower bound before any distance work.
	Seen      int64 `json:"seen"`
	Verified  int64 `json:"verified"`
	Abandoned int64 `json:"abandoned"`
	Pruned    int64 `json:"pruned"`
}

// IOSnapshot is the query's page accounting, filled by the serving
// layer from before/after storage-stats deltas.
type IOSnapshot struct {
	SeqReads    int64   `json:"seq_reads"`
	RandReads   int64   `json:"rand_reads"`
	SeqWrites   int64   `json:"seq_writes"`
	RandWrites  int64   `json:"rand_writes"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Cost        float64 `json:"cost"`
}

// TraceSnapshot is the JSON-ready rendering of a QueryTrace. Mode, K,
// Kernel, IO, and WallMicros are filled by the serving layer.
type TraceSnapshot struct {
	Mode           string          `json:"mode,omitempty"`
	K              int             `json:"k,omitempty"`
	Kernel         string          `json:"kernel,omitempty"`
	PlannedSkips   int64           `json:"planned_skips"`
	Kinds          []KindCount     `json:"kinds,omitempty"`
	Units          []UnitSnapshot  `json:"units,omitempty"`
	UnitsTruncated int             `json:"units_truncated,omitempty"`
	Candidates     CandidateCounts `json:"candidates"`
	// UndecodedPages is how many of the probed pages (they are counted as
	// probed units of their kind, and as page reads in IO) were released
	// without a byte of them read: resident symbols had pruned every entry.
	UndecodedPages int64           `json:"undecoded_pages,omitempty"`
	Phases         []PhaseSnapshot `json:"phases,omitempty"`
	IO             IOSnapshot      `json:"io"`
	WallMicros     int64           `json:"wall_micros,omitempty"`
}

// bump updates the per-kind aggregate; caller holds t.mu.
func (t *QueryTrace) bump(kind string, probed, skipped int64) {
	for i := range t.kinds {
		if t.kinds[i].Kind == kind {
			t.kinds[i].Probed += probed
			t.kinds[i].Skipped += skipped
			return
		}
	}
	t.kinds = append(t.kinds, KindCount{Kind: kind, Probed: probed, Skipped: skipped})
}

// NoteUnit records one probe unit (probed or skipped) with its synopsis
// bound, keeping per-unit detail up to the cap and aggregates beyond. An
// infinite bound (an empty unit, or one outside the query window) is
// stored as -1 so snapshots stay JSON-serializable.
func (t *QueryTrace) NoteUnit(kind string, idx int, boundSq float64, skipped bool) {
	if t == nil {
		return
	}
	if math.IsInf(boundSq, 0) || math.IsNaN(boundSq) {
		boundSq = -1
	}
	t.mu.Lock()
	if skipped {
		t.bump(kind, 0, 1)
	} else {
		t.bump(kind, 1, 0)
	}
	if len(t.units) < maxUnitDetail {
		t.units = append(t.units, UnitSnapshot{Kind: kind, Idx: idx, BoundSq: boundSq, Skipped: skipped})
	} else {
		t.truncated++
	}
	t.mu.Unlock()
}

// NoteSkips adds n skipped units of the kind to the aggregates without
// per-unit detail — for paths (tree leaf runs) whose unit count would
// swamp the detail cap.
func (t *QueryTrace) NoteSkips(kind string, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	t.bump(kind, 0, n)
	t.mu.Unlock()
}

// NoteProbes adds n probed units of the kind to the aggregates without
// per-unit detail.
func (t *QueryTrace) NoteProbes(kind string, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	t.bump(kind, n, 0)
	t.mu.Unlock()
}

// NoteCands adds candidate-verification tallies (safe from concurrent
// search workers).
func (t *QueryTrace) NoteCands(seen, verified, abandoned, pruned int64) {
	if t == nil {
		return
	}
	t.seen.Add(seen)
	t.verified.Add(verified)
	t.abandoned.Add(abandoned)
	t.pruned.Add(pruned)
}

// NoteUndecoded adds n probed pages released without being decoded (safe
// from concurrent search workers).
func (t *QueryTrace) NoteUndecoded(n int64) {
	if t == nil {
		return
	}
	t.undecoded.Add(n)
}

// Span measures one phase; obtained from Start, closed with End. The
// zero Span (from a nil trace) is a no-op.
type Span struct {
	t     *QueryTrace
	name  string
	start time.Time
}

// Start begins timing a named phase. Same-named phases accumulate.
func (t *QueryTrace) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// End records the span's elapsed time into its trace.
func (s Span) End() {
	if s.t == nil {
		return
	}
	us := time.Since(s.start).Microseconds()
	s.t.mu.Lock()
	for i := range s.t.phases {
		if s.t.phases[i].Name == s.name {
			s.t.phases[i].Micros += us
			s.t.mu.Unlock()
			return
		}
	}
	s.t.phases = append(s.t.phases, PhaseSnapshot{Name: s.name, Micros: us})
	s.t.mu.Unlock()
}

// Snapshot renders the trace. The caller owns the result and typically
// fills Mode/K/Kernel/IO/WallMicros before serializing. Nil-safe (nil
// trace → nil snapshot).
func (t *QueryTrace) Snapshot() *TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &TraceSnapshot{
		Units:          append([]UnitSnapshot(nil), t.units...),
		UnitsTruncated: t.truncated,
		Kinds:          append([]KindCount(nil), t.kinds...),
		Phases:         append([]PhaseSnapshot(nil), t.phases...),
		Candidates: CandidateCounts{
			Seen:      t.seen.Load(),
			Verified:  t.verified.Load(),
			Abandoned: t.abandoned.Load(),
			Pruned:    t.pruned.Load(),
		},
		UndecodedPages: t.undecoded.Load(),
	}
	for _, k := range s.Kinds {
		s.PlannedSkips += k.Skipped
	}
	return s
}
