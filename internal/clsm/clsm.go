// Package clsm implements CoconutLSM (CLSM), the write-optimized index of
// the Coconut infrastructure: a log-structured merge-tree over sortable
// summarizations. Incoming series accumulate in an in-memory buffer; each
// flush writes a sorted run with sequential I/O, and runs of the same level
// are sort-merged once the growth factor's worth of them accumulate
// (tiering). The growth factor is the read/write knob the demo exposes:
// larger T means fewer, cheaper merges (faster ingest) but more runs to
// inspect per query.
//
// # Concurrency: snapshot-isolated manifests
//
// The on-disk run set lives in an immutable manifest, and what one search
// sees — manifest plus a snapshot of the in-memory buffer — is published as
// a single atomically-swapped view. Searches pin a view and run lock-free
// against it; inserts append to the buffer and publish a new view; flushes
// and merges build a replacement manifest and swap it in atomically. A
// search therefore always observes every acknowledged entry exactly once
// (in the buffer snapshot or in a run, never neither), and because the
// collectors of package index are order-independent pure functions of the
// candidate set, results are byte-identical whether a merge is mid-flight
// or the index is quiesced.
//
// Obsolete manifests retire in version order: once the last search unpins a
// retired manifest, the run files its successor dropped are reclaimed
// (Disk.Remove — which also invalidates any buffer-pool pages of those
// files), epoch-style, so no reader ever loses a file out from under it.
//
// # Durability and background compaction
//
// Open is the one constructor: it adopts whatever the disk holds under the
// index's name — the crash-consistent manifest, else the meta file of the
// last Save, else nothing — and Replay then re-inserts the write-ahead log's
// tail past it. With Options.WAL set, every insert is appended to the log
// before it is buffered, and every manifest swap persists the manifest to
// the index's disk, so Open + Replay rebuild the exact index after a crash.
// Without a WAL nothing keeps a manifest current, so Save removes one.
// Level merges always go to Options.Scheduler: on its workers they run as
// background jobs while inserts and searches keep running against the
// pre-merge manifest until the swap; a scheduler without workers (nil, zero
// workers, or closed) runs them inline, cascading inside the Flush that
// filled the level. Either way the first merge error is the index's one
// sticky error, and compaction halts on it.
package clsm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/compact"
	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/run"
	"repro/internal/series"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/zonestat"
)

// Options configures a CLSM index.
type Options struct {
	Disk storage.Backend
	Name string // file name prefix
	// Config is the summarization shape; Materialized selects CLSMFull. Zero
	// takes the persisted shape; a given one must match it.
	Config index.Config
	// GrowthFactor T: runs per level tolerated before they are merged into
	// the next level. Zero takes the persisted value, else 4.
	GrowthFactor int
	// BufferEntries is the in-memory write buffer capacity. Zero takes the
	// persisted value, else 1024.
	BufferEntries int
	// Raw is consulted by non-materialized searches. Series inserted into
	// the index must appear in Raw at the same IDs (insertion order,
	// starting at 0). A search that fans out calls Get concurrently. A
	// storage.RawFile on Disk keeps the series as durable as the runs are,
	// which lets flushes truncate the log (WAL).
	Raw series.RawStore
	// Reader serves every page read of the run files during search. nil
	// selects the Disk itself (uncached); pass a buffer pool over the same
	// disk to serve hot run pages from memory. Writes (flushes, merges)
	// always go to Disk, which invalidates through any attached pool.
	Reader storage.PageReader
	// WAL, when set, makes ingest durable: Insert appends the encoded entry
	// to the log before buffering it (acknowledgement follows the log's
	// group-commit policy), and every flush or merge persists the run
	// manifest to Disk so Open + Replay can rebuild the index from manifest +
	// WAL tail. A flush also retires the log segments it covered when Disk
	// then holds everything the log would restore: Disk is file-backed, and
	// the series are materialized or in a storage.RawFile on Disk. Disk's
	// files then stand in for the retired segments across a process crash;
	// they reach stable storage on Close (Disk.Sync), not at each flush.
	// Otherwise the log keeps every entry until a snapshot checkpoint of the
	// disk (the facade's SaveFile) truncates it. The log is owned by the
	// caller (it outlives this index and is closed by whoever opened it).
	WAL *wal.Log
	// Scheduler runs level merges: as background jobs on its workers, or —
	// nil, zero workers, or closed — inline, as the synchronous cascade
	// inside Flush that is the paper-faithful single-stream accounting.
	// Flushes always run inline. The scheduler is owned by the caller and may
	// be shared across many indexes (one background-work budget for a whole
	// sharded deployment).
	Scheduler *compact.Scheduler
}

// setDefaults fills what o leaves zero from the persisted state st (nil when
// nothing is persisted), then from the defaults, and validates the result.
func (o *Options) setDefaults(st *metaState) error {
	if st != nil {
		if o.Config == (index.Config{}) {
			o.Config = st.cfg
		} else if err := sameShape(st.cfg, o.Config); err != nil {
			return err
		}
		if o.GrowthFactor == 0 {
			o.GrowthFactor = st.growth
		}
		if o.BufferEntries == 0 {
			o.BufferEntries = st.bufferEntries
		}
	}
	if o.Config == (index.Config{}) {
		return fmt.Errorf("clsm: no LSM persisted as %q and no Config given", o.Name)
	}
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.GrowthFactor == 0 {
		o.GrowthFactor = 4
	}
	if o.GrowthFactor < 2 {
		return fmt.Errorf("clsm: GrowthFactor must be >= 2, got %d", o.GrowthFactor)
	}
	if o.BufferEntries == 0 {
		o.BufferEntries = 1024
	}
	if o.BufferEntries < 1 {
		return fmt.Errorf("clsm: BufferEntries must be positive, got %d", o.BufferEntries)
	}
	return nil
}

// ReplayedEntry is the entry type Replay's callback observes — an alias
// so facade layers need not import the record package for the one type.
type ReplayedEntry = record.Entry

// manifest is one immutable version of the on-disk run set. Searches pin
// the manifest they run against; writers never mutate a published manifest,
// they swap in a clone. Retired manifests form a version-ordered chain
// (next) along which run files dropped by each transition are reclaimed
// once every earlier pin is gone.
type manifest struct {
	version int64
	levels  [][]run.Run // levels[l] = runs at level l, oldest first; never mutated
	// durableLSN is the WAL LSN of the last entry contained in these runs
	// (-1 when none, or when no WAL is configured). Recovery replays the
	// log strictly after it.
	durableLSN int64

	pins    atomic.Int64             // searches currently pinned to this version
	next    atomic.Pointer[manifest] // successor; non-nil once retired
	dropped []string                 // run files the transition to next dropped; set before next
}

// runsIn counts the runs a manifest references.
func (m *manifest) runsIn() int {
	n := 0
	for _, lvl := range m.levels {
		n += len(lvl)
	}
	return n
}

// entriesIn sums the entry counts of every run.
func (m *manifest) entriesIn() int64 {
	var n int64
	for _, lvl := range m.levels {
		for _, r := range lvl {
			n += r.Count
		}
	}
	return n
}

// view is what one search observes: a manifest and a snapshot of the write
// buffer, published together in one atomic pointer so an entry moving from
// buffer to run during a flush is always visible in exactly one of the two.
type view struct {
	man *manifest
	buf index.Buffer // immutable prefix snapshot, entries and column; appends land beyond both
}

// LSM is a CoconutLSM index. Completed and in-construction indexes are safe
// for fully concurrent use: any number of searches may overlap with
// inserts, flushes, and background merges. (Save, Replay, and Close still
// require that no insert is concurrently in flight.)
type LSM struct {
	opts  Options
	store run.Store // writes, merges, probes and scans the run files

	// mu guards buffer growth, WAL append ordering, and every publication
	// of cur. Searches never take it.
	mu       sync.Mutex
	buffer   index.Buffer // append-only between flush commits
	bufBase  int64        // WAL LSN of the buffer's first entry (valid when WAL is set)
	walFrame []byte       // the WAL frame being appended, reused across inserts

	cur atomic.Pointer[view]

	// writeMu serializes structure commits (flush, merge, manifest
	// persistence) against each other; flushMu serializes whole Flush
	// calls so concurrent auto-flush triggers collapse into one.
	writeMu sync.Mutex
	flushMu sync.Mutex

	// reclaimMu guards the retired-manifest cursor.
	reclaimMu sync.Mutex
	oldest    *manifest
	reclaimed atomic.Int64 // obsolete run files removed

	seq     atomic.Int64 // run file name counter
	count   atomic.Int64
	nextID  atomic.Int64
	flushes atomic.Int64
	merges  atomic.Int64

	adopted    source // the persisted file Open read; Replay's join check
	replaying  bool   // set during Replay; suppresses WAL re-appends
	compacting atomic.Bool
	cerrMu     sync.Mutex
	cerr       error // first merge error, sticky
}

// Name implements index.Index; "CLSM" or "CLSMFull" when materialized.
func (l *LSM) Name() string {
	if l.opts.Config.Materialized {
		return "CLSMFull"
	}
	return "CLSM"
}

// Count returns the number of indexed series (buffered included).
func (l *LSM) Count() int64 { return l.count.Load() }

// Config returns the summarization configuration the LSM was created with.
func (l *LSM) Config() index.Config { return l.opts.Config }

// Runs returns the current number of on-disk runs.
func (l *LSM) Runs() int { return l.cur.Load().man.runsIn() }

// Depth returns the number of levels currently holding runs.
func (l *LSM) Depth() int { return len(l.cur.Load().man.levels) }

// Flushes returns how many buffer flushes have occurred.
func (l *LSM) Flushes() int64 { return l.flushes.Load() }

// Merges returns how many run merges have occurred.
func (l *LSM) Merges() int64 { return l.merges.Load() }

// pinView pins the current view for a search: the manifest cannot have its
// dropped files reclaimed while pinned. The retry loop closes the race with
// a concurrent swap — once the re-check sees the manifest still current,
// its retirement (and therefore any reclaim that could free its files)
// necessarily observes the pin.
func (l *LSM) pinView() *view {
	for {
		v := l.cur.Load()
		v.man.pins.Add(1)
		if l.cur.Load().man == v.man {
			return v
		}
		v.man.pins.Add(-1)
	}
}

// unpinView releases a pinned view and advances reclamation.
func (l *LSM) unpinView(v *view) {
	v.man.pins.Add(-1)
	l.reclaim()
}

// reclaim walks retired manifests in version order, deleting the run files
// each transition dropped once the manifest has no pins. In-order
// reclamation is what makes the pin a full barrier: any file an older
// pinned manifest still references is dropped by a transition at or after
// it, which cannot be reached before the pinned manifest itself reclaims.
func (l *LSM) reclaim() {
	l.reclaimMu.Lock()
	defer l.reclaimMu.Unlock()
	for {
		m := l.oldest
		next := m.next.Load()
		if next == nil || m.pins.Load() != 0 {
			return
		}
		for _, f := range m.dropped {
			// Remove also invalidates any buffer-pool pages of the file, so
			// no stale cached page survives the reclaim.
			if err := l.opts.Disk.Remove(f); err == nil {
				l.reclaimed.Add(1)
			}
		}
		l.oldest = next
	}
}

// retire links old -> new on the manifest chain, recording the files the
// transition dropped. Callers hold l.mu (the swap lock), so retirements are
// ordered; dropped is set before the successor pointer publishes it.
func retire(old, new *manifest, dropped []string) {
	old.dropped = dropped
	old.next.Store(new)
}

// Insert adds one series with the given ingestion timestamp. IDs are
// assigned in insertion order starting at 0.
func (l *LSM) Insert(s series.Series, ts int64) error {
	key, z := l.opts.Config.Summarize(s)
	e := record.Entry{Key: key, ID: l.nextID.Add(1) - 1, TS: ts}
	if l.opts.Config.Materialized {
		e.Payload = z
	}
	return l.insertEntry(e, z)
}

func (l *LSM) raiseNextID(id int64) {
	for {
		cur := l.nextID.Load()
		if id < cur {
			return
		}
		if l.nextID.CompareAndSwap(cur, id+1) {
			return
		}
	}
}

// insertEntry logs, buffers, and publishes one entry. walSeries, the
// z-normalized series, is logged alongside the entry header so recovery can
// refill a raw series file as well as the index.
func (l *LSM) insertEntry(e record.Entry, walSeries series.Series) error {
	l.mu.Lock()
	if l.opts.WAL != nil && !l.replaying {
		l.walFrame = appendWALFrame(l.walFrame[:0], e, walSeries)
		lsn, err := l.opts.WAL.Append(l.walFrame)
		if err != nil {
			l.mu.Unlock()
			return fmt.Errorf("clsm: wal append: %w", err)
		}
		if want := l.bufBase + int64(l.buffer.Len()); lsn != want {
			l.mu.Unlock()
			return fmt.Errorf("clsm: wal LSN %d, want %d (log shared with another writer?)", lsn, want)
		}
	}
	l.buffer.Add(e)
	full := l.buffer.Len() >= l.opts.BufferEntries
	l.cur.Store(&view{man: l.cur.Load().man, buf: l.buffer})
	l.mu.Unlock()
	l.count.Add(1)
	if full {
		return l.Flush()
	}
	return nil
}

// Flush sorts the in-memory buffer into a level-0 run and triggers
// compaction — a background job on a scheduler with workers, else the
// inline cascade, whose merge error Flush returns. Safe to call concurrently
// with inserts and searches; a no-op on an empty buffer.
func (l *LSM) Flush() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	// Snapshot the buffer prefix to flush. The buffer stays visible to
	// searches until the commit swaps run and buffer in one step.
	l.mu.Lock()
	n := l.buffer.Len()
	if n == 0 {
		l.mu.Unlock()
		return nil
	}
	snap := l.buffer.Entries()[:n:n]
	flushedLSN := l.bufBase + int64(n) - 1
	l.mu.Unlock()

	if l.opts.WAL != nil && !l.replaying {
		// The run must never get ahead of the log: sync through the last
		// entry being flushed before the manifest can supersede it.
		if err := l.opts.WAL.Sync(); err != nil {
			return err
		}
	}

	// Sort a copy — searches are scanning the live buffer.
	sorted := make([]record.Entry, n)
	copy(sorted, snap)
	record.Sort(sorted)
	flushed, err := l.store.Write(l.runName(), sorted)
	if err != nil {
		return err
	}

	// Commit: new manifest with the run, buffer minus the flushed prefix
	// (entries and column alike), one atomic view swap.
	l.writeMu.Lock()
	l.mu.Lock()
	v := l.cur.Load()
	man := addRun(v.man, 0, flushed)
	if l.opts.WAL != nil {
		man.durableLSN = flushedLSN
	}
	l.buffer.Drop(n)
	l.bufBase += int64(n)
	l.cur.Store(&view{man: man, buf: l.buffer})
	retire(v.man, man, nil)
	l.mu.Unlock()
	perr := l.persistManifest(man)
	l.writeMu.Unlock()
	l.flushes.Add(1)
	l.reclaim()
	if perr != nil {
		return perr
	}
	if l.truncates() && !l.replaying {
		// The flushed entries are in a run behind a persisted manifest; the
		// segments that held them are obsolete.
		if err := l.opts.WAL.TruncateThrough(flushedLSN); err != nil {
			return err
		}
	}
	return l.maybeSchedule()
}

// truncates reports whether a flush retires the log segments it covered:
// only when the disk then holds everything the log would restore (see
// Options.WAL).
func (l *LSM) truncates() bool {
	o := l.opts
	if o.WAL == nil || o.Disk.Kind() != "file" {
		return false
	}
	raw, ok := o.Raw.(*storage.RawFile)
	return o.Config.Materialized || ok && raw.Disk() == o.Disk
}

func (l *LSM) runName() string {
	return fmt.Sprintf("%s.run.%06d", l.opts.Name, l.seq.Add(1))
}

// addRun returns a clone of m with r appended at the given level.
func addRun(m *manifest, level int, r run.Run) *manifest {
	depth := len(m.levels)
	if level >= depth {
		depth = level + 1
	}
	levels := make([][]run.Run, depth)
	copy(levels, m.levels)
	lvl := make([]run.Run, len(levels[level])+1)
	copy(lvl, levels[level])
	lvl[len(lvl)-1] = r
	levels[level] = lvl
	return &manifest{version: m.version + 1, levels: levels, durableLSN: m.durableLSN}
}

// needsCompact reports whether any level holds GrowthFactor or more runs.
func (l *LSM) needsCompact(m *manifest) bool {
	for _, lvl := range m.levels {
		if len(lvl) >= l.opts.GrowthFactor {
			return true
		}
	}
	return false
}

// maybeSchedule submits at most one outstanding compaction job for this
// index, returning the merge error of a job the scheduler ran inline. The
// job re-checks after clearing the flag, closing the race where a flush
// observes the flag set just as the job is finishing.
func (l *LSM) maybeSchedule() error {
	if l.CompactionErr() != nil || !l.needsCompact(l.cur.Load().man) || !l.compacting.CompareAndSwap(false, true) {
		return nil
	}
	return l.opts.Scheduler.Submit(func() error {
		err := l.compactNow()
		if err != nil {
			l.setCompactionErr(err)
		}
		l.compacting.Store(false)
		if err != nil {
			return err
		}
		return l.maybeSchedule()
	})
}

func (l *LSM) setCompactionErr(err error) {
	l.cerrMu.Lock()
	if l.cerr == nil {
		l.cerr = err
	}
	l.cerrMu.Unlock()
}

// CompactionErr returns the first error a merge hit, or nil. Compaction
// halts on it; it also surfaces from Quiesce, Save, and Close.
func (l *LSM) CompactionErr() error {
	l.cerrMu.Lock()
	defer l.cerrMu.Unlock()
	return l.cerr
}

// compactNow merges over-full levels until none remain, committing one
// manifest swap per merge. Single-flighted: only the one outstanding
// compaction job calls it.
func (l *LSM) compactNow() error {
	for {
		man := l.cur.Load().man
		level := -1
		for i, lvl := range man.levels {
			if len(lvl) >= l.opts.GrowthFactor {
				level = i
				break
			}
		}
		if level < 0 {
			return nil
		}
		victims := man.levels[level]
		files := make([]string, len(victims))
		for i, r := range victims {
			files[i] = r.File
		}
		merged, err := l.store.Merge(victims, l.runName())
		if err != nil {
			return err
		}

		// Commit: drop the victims (still the prefix of the level — only
		// compactNow removes runs and it is single-flighted; concurrent
		// flushes only append), add the merged run one level up.
		l.writeMu.Lock()
		l.mu.Lock()
		v := l.cur.Load()
		newMan, err := afterMerge(v.man, level, victims, merged)
		if err != nil {
			l.mu.Unlock()
			l.writeMu.Unlock()
			return err
		}
		l.cur.Store(&view{man: newMan, buf: l.buffer})
		retire(v.man, newMan, files)
		l.mu.Unlock()
		perr := l.persistManifest(newMan)
		l.writeMu.Unlock()
		l.merges.Add(1)
		l.reclaim()
		if perr != nil {
			return perr
		}
	}
}

// afterMerge clones m, replacing the victim prefix of level with nothing
// and appending mergedRun at level+1.
func afterMerge(m *manifest, level int, victims []run.Run, mergedRun run.Run) (*manifest, error) {
	if len(m.levels) <= level || len(m.levels[level]) < len(victims) {
		return nil, fmt.Errorf("clsm: merge commit lost level %d", level)
	}
	for i, r := range victims {
		if m.levels[level][i].File != r.File {
			return nil, fmt.Errorf("clsm: merge victims no longer prefix level %d", level)
		}
	}
	depth := len(m.levels)
	if level+1 >= depth {
		depth = level + 2
	}
	levels := make([][]run.Run, depth)
	copy(levels, m.levels)
	levels[level] = m.levels[level][len(victims):]
	up := make([]run.Run, len(levels[level+1])+1)
	copy(up, levels[level+1])
	up[len(up)-1] = mergedRun
	levels[level+1] = up
	return &manifest{version: m.version + 1, levels: levels, durableLSN: m.durableLSN}, nil
}

// Quiesce waits until no compaction work is pending or in flight: every
// over-full level has merged — inline, if the scheduler has no workers left
// — and the outstanding job has drained. It checks under flushMu, which a
// merge running inline in another goroutine's Flush holds, so it blocks on
// that merge instead of spinning. Returns the sticky compaction error, if
// any.
func (l *LSM) Quiesce() error {
	for {
		l.opts.Scheduler.Drain()
		if err := l.CompactionErr(); err != nil {
			return err
		}
		l.flushMu.Lock()
		idle := !l.compacting.Load() && !l.needsCompact(l.cur.Load().man)
		var err error
		if !idle {
			err = l.maybeSchedule()
		}
		l.flushMu.Unlock()
		if idle || err != nil {
			return err
		}
	}
}

// Close waits out in-flight merges and surfaces their first error. It does
// not close the WAL or the scheduler — both are owned by whoever created
// them. Idempotent; call with no insert in flight.
func (l *LSM) Close() error {
	l.opts.Scheduler.Drain()
	return l.CompactionErr()
}

// CompactionStats describes the state of the ingest/compaction machinery. Its
// JSON form is the body of /api/stats's compaction section.
type CompactionStats struct {
	Background        bool  `json:"background"`         // merges run on scheduler workers
	Flushes           int64 `json:"flushes"`            // buffer flushes so far
	Merges            int64 `json:"merges"`             // level merges so far
	Levels            int   `json:"levels"`             // levels currently holding runs
	Runs              int   `json:"runs"`               // on-disk runs in the current manifest
	ManifestVersion   int64 `json:"manifest_version"`   // version of the current manifest
	RetainedManifests int   `json:"retained_manifests"` // manifest versions not yet reclaimed (current included)
	ReclaimedRuns     int64 `json:"reclaimed_runs"`     // obsolete run files deleted so far
	Pending           bool  `json:"pending"`            // a compaction job is queued or in flight
	DurableLSN        int64 `json:"durable_lsn"`        // WAL LSN safely in runs (-1 when none/no WAL)
}

// CompactionStats returns a snapshot of the ingest/compaction state.
func (l *LSM) CompactionStats() CompactionStats {
	man := l.cur.Load().man
	st := CompactionStats{
		Flushes:         l.flushes.Load(),
		Merges:          l.merges.Load(),
		Levels:          len(man.levels),
		Runs:            man.runsIn(),
		ManifestVersion: man.version,
		ReclaimedRuns:   l.reclaimed.Load(),
		Background:      l.opts.Scheduler.Workers() > 0,
		Pending:         l.compacting.Load(),
		DurableLSN:      man.durableLSN,
	}
	l.reclaimMu.Lock()
	for m := l.oldest; m != nil; m = m.next.Load() {
		st.RetainedManifests++
	}
	l.reclaimMu.Unlock()
	return st
}

// allRuns returns every on-disk run of a manifest, newest level first
// (level 0 holds the freshest data).
func allRuns(m *manifest) []run.Run {
	var out []run.Run
	for _, lvl := range m.levels {
		out = append(out, lvl...)
	}
	return out
}

// PlanSynopses implements zonestat.Provider for shard-level planning: one
// synopsis per on-disk run of the current view. complete is false whenever
// the write buffer holds entries — a shard-level bound would then not cover
// every entry, so the caller must always probe this index.
func (l *LSM) PlanSynopses() ([]*zonestat.Synopsis, bool) {
	v := l.cur.Load()
	runs := allRuns(v.man)
	syns := make([]*zonestat.Synopsis, len(runs))
	for i, r := range runs {
		syns[i] = r.Syn
	}
	return syns, v.buf.Len() == 0
}

var _ zonestat.Provider = (*LSM)(nil)
