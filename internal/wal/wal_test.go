package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fsx"
)

func openTest(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func collect(t *testing.T, l *Log, from int64) (lsns []int64, payloads [][]byte) {
	t.Helper()
	err := l.Replay(from, func(lsn int64, p []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	want := make([][]byte, 100)
	for i := range want {
		want[i] = []byte(fmt.Sprintf("payload-%03d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i))))
		lsn, err := l.Append(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if lsn != int64(i) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	lsns, got := collect(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if lsns[i] != int64(i) || !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d: lsn=%d payload mismatch", i, lsns[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: NextLSN continues, frames survive.
	l2 := openTest(t, dir, Options{})
	defer l2.Close()
	if l2.NextLSN() != 100 {
		t.Fatalf("reopened NextLSN = %d, want 100", l2.NextLSN())
	}
	_, got2 := collect(t, l2, 0)
	if len(got2) != 100 || !bytes.Equal(got2[42], want[42]) {
		t.Fatalf("reopened replay lost frames: %d", len(got2))
	}
}

func TestReplayFromOffset(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{})
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append([]byte{byte(i)})
	}
	lsns, _ := collect(t, l, 7)
	if len(lsns) != 3 || lsns[0] != 7 || lsns[2] != 9 {
		t.Fatalf("replay from 7: %v", lsns)
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentBytes: 256})
	payload := bytes.Repeat([]byte{7}, 100)
	for i := 0; i < 12; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	// Truncate everything below the active tail.
	if err := l.TruncateThrough(st.NextLSN - 1); err != nil {
		t.Fatal(err)
	}
	st2 := l.Stats()
	if st2.Segments != 1 {
		t.Fatalf("after truncate: %d segments, want 1 (active)", st2.Segments)
	}
	if st2.Truncated == 0 {
		t.Fatal("truncated counter not advanced")
	}
	// Remaining frames still replay, from the new first LSN.
	lsns, _ := collect(t, l, 0)
	if len(lsns) == 0 || lsns[0] != st2.FirstLSN {
		t.Fatalf("replay after truncate: lsns=%v first=%d", lsns, st2.FirstLSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen after truncation: LSNs keep counting from where they were.
	l2 := openTest(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if l2.NextLSN() != st.NextLSN {
		t.Fatalf("NextLSN after reopen = %d, want %d", l2.NextLSN(), st.NextLSN)
	}
}

func TestTruncatePartialCoverageKeepsSegment(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		l.Append(bytes.Repeat([]byte{1}, 40))
	}
	defer l.Close()
	before := l.Stats()
	// Truncating through an LSN in the middle of a segment must keep that
	// segment (only wholly-covered segments go).
	mid := before.NextLSN / 2
	if err := l.TruncateThrough(mid); err != nil {
		t.Fatal(err)
	}
	lsns, _ := collect(t, l, mid+1)
	want := before.NextLSN - mid - 1
	if int64(len(lsns)) != want {
		t.Fatalf("frames beyond %d: %d, want %d", mid, len(lsns), want)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	for i := 0; i < 5; i++ {
		l.Append([]byte(fmt.Sprintf("entry-%d", i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append a frame header + partial payload, as a crash
	// mid-write would leave.
	segs, _ := listSegments(fsx.OS, dir)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}) // length 255, then cut off
	f.Close()

	l2 := openTest(t, dir, Options{})
	lsns, _ := collect(t, l2, 0)
	if len(lsns) != 5 {
		t.Fatalf("replay over torn tail: %d frames, want 5", len(lsns))
	}
	// Appending after recovery lands at LSN 5, replacing the torn bytes.
	lsn, err := l2.Append([]byte("after-crash"))
	if err != nil || lsn != 5 {
		t.Fatalf("append after torn-tail recovery: lsn=%d err=%v", lsn, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openTest(t, dir, Options{})
	defer l3.Close()
	_, got := collect(t, l3, 0)
	if len(got) != 6 || string(got[5]) != "after-crash" {
		t.Fatalf("frames after recovery: %d", len(got))
	}
}

func TestCorruptionMidLogFails(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		l.Append(bytes.Repeat([]byte{byte(i)}, 30))
	}
	l.Close()
	segs, _ := listSegments(fsx.OS, dir)
	if len(segs) < 3 {
		t.Fatalf("need multiple segments, got %d", len(segs))
	}
	// Flip a payload byte in the first segment: CRC must catch it and
	// reopen must fail loudly (not silently drop acknowledged entries).
	data, _ := os.ReadFile(segs[0])
	data[frameHeader] ^= 0xff
	os.WriteFile(segs[0], data, 0o644)
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt non-final segment should fail Open")
	}
}

func TestGroupCommitBatchesSyncs(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{SyncEvery: 50, SyncInterval: time.Hour})
	defer l.Close()
	for i := 0; i < 100; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Syncs != 2 {
		t.Fatalf("batched syncs = %d, want 2 for 100 appends at SyncEvery=50", st.Syncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestStrictSyncEveryAppend(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{})
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append([]byte("x"))
	}
	if st := l.Stats(); st.Syncs != 10 {
		t.Fatalf("strict mode syncs = %d, want 10", st.Syncs)
	}
}

// TestAppendIsOneWrite: each Append hands its whole frame, header and
// payload, to one write call, and the frames are the ones replay reads: the
// same payloads, each behind its length and CRC-32C.
func TestAppendIsOneWrite(t *testing.T) {
	fsys := fsx.NewMemFS()
	var writes []string
	fsys.SetFaultHook(func(op, path string) error {
		if op == "write" {
			writes = append(writes, path)
		}
		return nil
	})
	l := openTest(t, "wal", Options{FS: fsys, SyncEvery: 1000, SyncInterval: time.Hour})
	payloads := [][]byte{[]byte("x"), bytes.Repeat([]byte{7}, 4000), {}, []byte("last")}
	var want []byte
	for i, p := range payloads {
		writes = writes[:0]
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		if len(writes) != 1 {
			t.Fatalf("append %d (%d bytes) made %d write calls, want 1", i, len(p), len(writes))
		}
		want = binary.LittleEndian.AppendUint32(want, uint32(len(p)))
		want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(p, castagnoli))
		want = append(want, p...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(fsys, "wal")
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	if got, err := fsys.ReadFile(segs[0]); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes (%v), want the %d bytes of the frames", len(got), err, len(want))
	}
	reopened := openTest(t, "wal", Options{FS: fsys})
	defer reopened.Close()
	_, got := collect(t, reopened, 0)
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("replayed payload %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{SyncEvery: 64})
	defer l.Close()
	var wg sync.WaitGroup
	const g, per = 8, 50
	seen := make([]bool, g*per)
	var mu sync.Mutex
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.Append([]byte{byte(w)})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[lsn] {
					t.Errorf("duplicate LSN %d", lsn)
				}
				seen[lsn] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if l.NextLSN() != g*per {
		t.Fatalf("NextLSN = %d, want %d", l.NextLSN(), g*per)
	}
}

func TestOpenRejectsGappedSegments(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		l.Append(bytes.Repeat([]byte{1}, 30))
	}
	l.Close()
	segs, _ := listSegments(fsx.OS, dir)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Removing a middle segment leaves a gap Open must refuse.
	os.Remove(segs[1])
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("gapped log should fail Open")
	}
}

func TestCloseIdempotentAndDirSurvives(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	l.Append([]byte("x"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("y")); err == nil {
		t.Fatal("append after close should fail")
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 0, segSuffix))); err != nil {
		t.Fatal(err)
	}
}
