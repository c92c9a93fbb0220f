// Package wal implements the durable write-ahead log beneath the ingest
// path: a segmented, CRC-framed, append-only log on the host filesystem.
// Every acknowledged insert is first appended here, so the in-memory write
// buffer of an LSM — the only index state that is not already in an on-disk
// run — survives a crash and is replayed on reopen.
//
// # Format
//
// The log is a directory of segment files named wal-<firstLSN>.seg. Each
// segment holds consecutive frames:
//
//	length  u32  payload length in bytes
//	crc     u32  CRC-32C (Castagnoli) of the payload
//	payload length bytes
//
// Log sequence numbers (LSNs) are assigned densely in append order starting
// at 0; a frame's LSN is implicit in its position (segment first LSN plus
// frame index), so the format carries no per-frame LSN and torn frames
// cannot masquerade as gaps.
//
// # Group commit
//
// Append buffers frames in user space and fsyncs on a configurable cadence:
// every SyncEvery appends, whenever SyncInterval has elapsed since the last
// sync, or on an explicit Sync. With both knobs zero every append syncs
// before returning — the strict-durability setting. Durability therefore
// means: an insert is crash-safe once the log has synced past its LSN; the
// batched modes trade a bounded window of recent acknowledgements for
// ingest throughput, exactly the group-commit trade databases make.
//
// # Recovery and truncation
//
// Replay streams frames in LSN order. A torn tail — a frame whose header or
// payload is cut short, or whose CRC mismatches, at the end of the final
// segment — ends replay cleanly: it is the expected signature of a crash
// mid-write. The same damage anywhere else is corruption and fails replay.
// Open tolerates a torn tail the same way and continues appending after the
// last whole frame. TruncateThrough removes segments made obsolete once
// their entries are durable elsewhere (flushed into an on-disk run, or
// covered by a snapshot checkpoint — the owner decides which).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fsx"
)

const (
	frameHeader = 8 // u32 length + u32 crc
	segPrefix   = "wal-"
	segSuffix   = ".seg"

	// DefaultSegmentBytes rotates segments at 4 MiB — small enough that
	// truncation reclaims space promptly, large enough that rotation cost
	// vanishes.
	DefaultSegmentBytes = 4 << 20
	// MaxFrameBytes bounds one payload; a length field beyond it is treated
	// as a torn/corrupt frame rather than an allocation request.
	MaxFrameBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// Dir is the directory holding the segment files. Required; created if
	// missing.
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default DefaultSegmentBytes.
	SegmentBytes int64
	// SyncEvery fsyncs after this many unsynced appends. 0 with a zero
	// SyncInterval means sync on every append (strict durability).
	SyncEvery int
	// SyncInterval fsyncs when this much time has passed since the last
	// sync, checked on append. 0 disables the timer.
	SyncInterval time.Duration
	// FS overrides the host filesystem; nil means the real one. Crash
	// tests inject fsx.MemFS here.
	FS fsx.FS
}

// BatchedOptions returns the standard group-commit policy for dir: sync
// every 64 appends or 2ms, whichever comes first. Every layer that offers
// "batched" durability derives it from here, so the trade stays uniform
// (and tunable in one place).
func BatchedOptions(dir string) Options {
	return Options{Dir: dir, SyncEvery: 64, SyncInterval: 2 * time.Millisecond}
}

// SyncOptions returns the strict policy for dir: fsync on every append.
func SyncOptions(dir string) Options {
	return Options{Dir: dir}
}

// Stats is a snapshot of the log's accounting. Its JSON form is the body of
// /api/stats's wal section.
type Stats struct {
	Segments      int   `json:"segments"`           // live segment files (active included)
	FirstLSN      int64 `json:"first_lsn"`          // oldest retained LSN (== NextLSN when empty)
	NextLSN       int64 `json:"next_lsn"`           // LSN the next append will receive
	Appends       int64 `json:"appends"`            // frames appended this session
	Syncs         int64 `json:"syncs"`              // fsyncs issued this session
	Rotations     int64 `json:"rotations"`          // segment rotations this session
	Truncated     int64 `json:"truncated_segments"` // segments removed by TruncateThrough this session
	BytesAppended int64 `json:"bytes_appended"`     // payload+framing bytes appended this session
}

// segment is one on-disk segment file.
type segment struct {
	path  string
	first int64 // LSN of its first frame
	count int64 // whole frames it holds
	size  int64 // bytes of whole frames (torn tails excluded)
}

func (s *segment) last() int64 { return s.first + s.count - 1 }

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use; appends are serialized internally, which is what lets a batched sync
// cover every append since the previous one (group commit).
type Log struct {
	opts Options
	fs   fsx.FS

	mu       sync.Mutex
	segs     []*segment // in LSN order; last is active
	active   fsx.File   // open for append
	unsynced int        // appends since last fsync
	lastSync time.Time
	closed   bool

	appends, syncs, rotations, truncated, bytes int64
}

// Open opens (or creates) the log in opts.Dir, scanning existing segments
// to recover the next LSN. A torn final frame is truncated away so the log
// appends after the last whole frame.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	fsys := fsx.OrOS(opts.FS)
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	l := &Log{opts: opts, fs: fsys, lastSync: time.Now()}
	names, err := listSegments(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	for i, p := range names {
		seg, terr := scanSegment(fsys, p, i == len(names)-1)
		if terr != nil {
			return nil, terr
		}
		if len(l.segs) > 0 {
			if prev := l.segs[len(l.segs)-1]; seg.first != prev.first+prev.count {
				return nil, fmt.Errorf("wal: segment %s starts at LSN %d, want %d (gap or misordered truncation)",
					filepath.Base(seg.path), seg.first, prev.first+prev.count)
			}
		}
		l.segs = append(l.segs, seg)
	}
	if len(l.segs) == 0 {
		if err := l.rotateLocked(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Reopen the last segment for appending, dropping any torn tail so the
	// next frame lands right after the last whole one.
	tail := l.segs[len(l.segs)-1]
	f, err := fsys.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(tail.size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.active = f
	return l, nil
}

// listSegments returns the segment paths in LSN order.
func listSegments(fsys fsx.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			names = append(names, filepath.Join(dir, n))
		}
	}
	sort.Slice(names, func(i, j int) bool {
		return segFirstLSN(names[i]) < segFirstLSN(names[j])
	})
	return names, nil
}

// segFirstLSN parses the first LSN out of a segment file name; malformed
// names sort first and fail scanSegment loudly.
func segFirstLSN(path string) int64 {
	n := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), segPrefix), segSuffix)
	v, err := strconv.ParseInt(n, 16, 64)
	if err != nil {
		return -1
	}
	return v
}

// scanSegment walks a segment's frames, returning its metadata. A torn tail
// is tolerated only when isLast; anywhere else it is corruption.
func scanSegment(fsys fsx.FS, path string, isLast bool) (*segment, error) {
	first := segFirstLSN(path)
	if first < 0 {
		return nil, fmt.Errorf("wal: malformed segment name %q", filepath.Base(path))
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	seg := &segment{path: path, first: first}
	off := int64(0)
	for {
		n, ok := nextFrame(data[off:])
		if !ok {
			if int(off) != len(data) && !isLast {
				return nil, fmt.Errorf("wal: corrupt frame at %s+%d (not the final segment)", filepath.Base(path), off)
			}
			break // clean end, or a torn tail of the final segment
		}
		off += n
		seg.count++
	}
	seg.size = off
	return seg, nil
}

// nextFrame validates the frame at the start of buf, returning its total
// length. ok is false when the frame is incomplete or its CRC mismatches.
func nextFrame(buf []byte) (int64, bool) {
	if len(buf) < frameHeader {
		return 0, false
	}
	length := binary.LittleEndian.Uint32(buf)
	if length > MaxFrameBytes || int(length) > len(buf)-frameHeader {
		return 0, false
	}
	crc := binary.LittleEndian.Uint32(buf[4:])
	payload := buf[frameHeader : frameHeader+int(length)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, false
	}
	return frameHeader + int64(length), true
}

// rotateLocked opens a fresh active segment whose first LSN is firstLSN.
// Callers hold l.mu.
func (l *Log) rotateLocked(firstLSN int64) error {
	if l.active != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return err
		}
		l.active = nil
		l.rotations++
	}
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Make the segment's dirent durable before anything is appended to it:
	// a synced, acknowledged batch in a freshly rotated segment must not be
	// able to vanish with an unsynced directory entry on crash.
	if err := l.fs.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		l.fs.Remove(path)
		return err
	}
	l.active = f
	l.segs = append(l.segs, &segment{path: path, first: firstLSN})
	return nil
}

// nextLSNLocked returns the LSN the next append receives.
func (l *Log) nextLSNLocked() int64 {
	if len(l.segs) == 0 {
		return 0
	}
	tail := l.segs[len(l.segs)-1]
	return tail.first + tail.count
}

// Append appends one payload, returning its LSN. Durability follows the
// group-commit policy; call Sync (or configure strict syncing) when the
// caller must not acknowledge past the returned LSN before it is on disk.
func (l *Log) Append(payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(payload)
}

func (l *Log) appendLocked(payload []byte) (int64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if len(payload) > MaxFrameBytes {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds frame limit %d", len(payload), MaxFrameBytes)
	}
	tail := l.segs[len(l.segs)-1]
	if tail.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(tail.first + tail.count); err != nil {
			return 0, err
		}
		tail = l.segs[len(l.segs)-1]
	}
	lsn := tail.first + tail.count
	var head [frameHeader]byte
	binary.LittleEndian.PutUint32(head[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:], crc32.Checksum(payload, castagnoli))
	if _, err := l.active.Write(head[:]); err != nil {
		return 0, err
	}
	if _, err := l.active.Write(payload); err != nil {
		return 0, err
	}
	tail.count++
	tail.size += frameHeader + int64(len(payload))
	l.appends++
	l.bytes += frameHeader + int64(len(payload))
	l.unsynced++
	if l.shouldSyncLocked() {
		return lsn, l.syncLocked()
	}
	return lsn, nil
}

// shouldSyncLocked applies the group-commit policy.
func (l *Log) shouldSyncLocked() bool {
	if l.opts.SyncEvery <= 0 && l.opts.SyncInterval <= 0 {
		return true // strict: every append syncs
	}
	if l.opts.SyncEvery > 0 && l.unsynced >= l.opts.SyncEvery {
		return true
	}
	return l.opts.SyncInterval > 0 && time.Since(l.lastSync) >= l.opts.SyncInterval
}

// Sync flushes the active segment to stable storage. Every LSN returned by
// a completed Append is durable once Sync returns.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.unsynced == 0 {
		l.lastSync = time.Now()
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.unsynced = 0
	l.lastSync = time.Now()
	l.syncs++
	return nil
}

// NextLSN returns the LSN the next append will receive (== total appends
// ever, since LSNs are dense from 0).
func (l *Log) NextLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSNLocked()
}

// FirstLSN returns the oldest retained LSN; NextLSN when nothing is
// retained.
func (l *Log) FirstLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].first
}

// Replay streams every retained frame with LSN >= from, in order. A torn
// tail on the final segment ends replay cleanly; corruption elsewhere is an
// error. fn must not call back into the log.
func (l *Log) Replay(from int64, fn func(lsn int64, payload []byte) error) error {
	l.mu.Lock()
	if err := l.syncNoClosedLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	segs := make([]*segment, len(l.segs))
	copy(segs, l.segs)
	l.mu.Unlock()
	for i, seg := range segs {
		if seg.last() < from {
			continue
		}
		data, err := l.fs.ReadFile(seg.path)
		if err != nil {
			return err
		}
		off, lsn := int64(0), seg.first
		for {
			n, ok := nextFrame(data[off:])
			if !ok {
				if int(off) != len(data) && i != len(segs)-1 {
					return fmt.Errorf("wal: corrupt frame at %s+%d", filepath.Base(seg.path), off)
				}
				break
			}
			if lsn >= from {
				if err := fn(lsn, data[off+frameHeader:off+n]); err != nil {
					return err
				}
			}
			off += n
			lsn++
		}
	}
	return nil
}

// syncNoClosedLocked syncs when open; replay of a closed log reads what was
// already flushed by Close.
func (l *Log) syncNoClosedLocked() error {
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// TruncateThrough removes whole segments every frame of which has LSN <=
// lsn. The active segment is never removed — rotation bounds how promptly
// space is reclaimed. The caller asserts those entries are durable
// elsewhere (an on-disk run behind a persisted manifest, or a snapshot
// checkpoint).
func (l *Log) TruncateThrough(lsn int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncateLocked(lsn)
}

// Checkpoint is TruncateThrough for snapshot checkpoints: when the active
// segment itself is fully covered it is first rotated out (leaving an
// empty active segment), so a checkpoint of the whole log reclaims all of
// it rather than leaving the covered tail segment in place.
func (l *Log) Checkpoint(lsn int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tail := l.segs[len(l.segs)-1]
	if tail.count > 0 && tail.last() <= lsn {
		if err := l.rotateLocked(tail.first + tail.count); err != nil {
			return err
		}
	}
	return l.truncateLocked(lsn)
}

func (l *Log) truncateLocked(lsn int64) error {
	kept := l.segs[:0]
	removed := false
	for i, seg := range l.segs {
		if i < len(l.segs)-1 && seg.last() <= lsn {
			if err := l.fs.Remove(seg.path); err != nil {
				// Keep the log consistent: stop at the first failure.
				l.segs = append(kept, l.segs[i:]...)
				if removed {
					l.fs.SyncDir(l.opts.Dir)
				}
				return err
			}
			removed = true
			l.truncated++
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	if removed {
		// Make the removals durable. Without this a crash can resurrect a
		// truncated segment; because removal runs oldest-first, resurrected
		// segments always form a prefix and reopen cleanly, but they would
		// replay entries the checkpoint already covers.
		return l.fs.SyncDir(l.opts.Dir)
	}
	return nil
}

// Stats returns a snapshot of the log's accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Segments:      len(l.segs),
		FirstLSN:      l.segs[0].first,
		NextLSN:       l.nextLSNLocked(),
		Appends:       l.appends,
		Syncs:         l.syncs,
		Rotations:     l.rotations,
		Truncated:     l.truncated,
		BytesAppended: l.bytes,
	}
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Close syncs and closes the active segment; the segment's handle is
// released even when the sync fails (the error is reported). The log stays
// readable via a fresh Open; appends after Close fail. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	return err
}
