package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsx"
)

// refFrames parses seg independently of the log: the payloads of its whole,
// checksummed frames from the start, and whether they end exactly at the
// end of seg (no torn or corrupt tail).
func refFrames(seg []byte) (payloads [][]byte, clean bool) {
	for off := 0; ; {
		if off == len(seg) {
			return payloads, true
		}
		if len(seg)-off < frameHeader {
			return payloads, false
		}
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		if n > MaxFrameBytes || n > len(seg)-off-frameHeader {
			return payloads, false
		}
		p := seg[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(seg[off+4:]) {
			return payloads, false
		}
		payloads = append(payloads, p)
		off += frameHeader + n
	}
}

// frame encodes one payload as the log does.
func frame(p []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, castagnoli))
	return append(b, p...)
}

// writeSegment puts a segment file of the given first LSN and bytes on fsys.
func writeSegment(t *testing.T, fsys fsx.FS, first int64, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(filepath.Join("wal", fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzReplay drives Open and Replay over arbitrary segment bytes on an
// in-memory filesystem: an older segment (none when empty) at LSN 0, and
// the final segment at the LSN after the older one's whole frames (1 when
// it holds none: it is damaged then, and keeps a file of its own). Neither
// may panic. Damage in the older segment is corruption, which Open refuses;
// otherwise the log opens, and Replay yields exactly the frames an
// independent parse finds — every one with a valid CRC, in LSN order — and
// a torn or corrupt tail of the final segment ends it cleanly. The log then
// appends after the last whole frame, where Replay finds the new frame
// next. The committed corpus (testdata/fuzz/FuzzReplay) holds whole logs,
// a torn header, a torn payload, a flipped checksum, a length beyond the
// frame limit, and damage in the older segment.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, older, final []byte) {
		mem := fsx.NewMemFS()
		if err := mem.MkdirAll("wal", 0o755); err != nil {
			t.Fatal(err)
		}
		want, clean := refFrames(older)
		if len(older) > 0 {
			writeSegment(t, mem, 0, older)
		}
		tail, _ := refFrames(final)
		first := int64(len(want))
		if len(older) > 0 {
			first = max(first, 1) // an older segment with no whole frame keeps its own file
		}
		writeSegment(t, mem, first, final)
		want = append(want, tail...)
		l, err := Open(Options{Dir: "wal", FS: mem})
		if len(older) > 0 && !clean {
			if err == nil {
				l.Close()
				t.Fatal("opened a log whose older segment is damaged")
			}
			return
		}
		if err != nil {
			t.Fatalf("a log whose only damage is the final segment's tail: %v", err)
		}
		defer l.Close()
		replay := func() [][]byte {
			var got [][]byte
			if err := l.Replay(0, func(lsn int64, p []byte) error {
				if lsn != int64(len(got)) {
					t.Fatalf("replay gave LSN %d after %d frames", lsn, len(got))
				}
				got = append(got, bytes.Clone(p))
				return nil
			}); err != nil {
				t.Fatalf("replay: %v", err)
			}
			return got
		}
		same := func(what string, got, want [][]byte) {
			if len(got) != len(want) {
				t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: frame %d is %q, want %q", what, i, got[i], want[i])
				}
			}
		}
		same("replay", replay(), want)
		if _, err := l.Append([]byte("next")); err != nil {
			t.Fatal(err)
		}
		same("replay after an append", replay(), append(want, []byte("next")))
	})
}
