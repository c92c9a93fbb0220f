package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/fsx"
)

// Snapshot format: the whole page store serialized to a real file, so built
// indexes survive process restarts and can be shipped around. The format is
// the medium's business nowhere, so a snapshot taken on the host medium
// opens on the heap medium.
//
//	magic "CCNUTDSK" | version u32 | pageSize u32 | fileCount u32
//	per file: nameLen u32 | name | pageCount u64 | pages (pageSize each)
const (
	snapshotMagic   = "CCNUTDSK"
	snapshotVersion = 1
)

// WriteTo serializes the disk's full contents (all files and pages, in
// name order) to w — the same bytes for the same contents on either medium.
// Serialization does not touch the I/O accounting.
func (d *Disk) WriteTo(w io.Writer) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return 0, ErrClosed
	}
	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	names := d.names(false)
	hdr := make([]byte, 0, len(snapshotMagic)+12)
	hdr = append(hdr, snapshotMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, snapshotVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.pageSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(names)))
	if err := write(hdr); err != nil {
		return n, err
	}
	buf := make([]byte, d.pageSize)
	for _, name := range names {
		f := d.files[name]
		fh := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
		fh = append(fh, name...)
		fh = binary.LittleEndian.AppendUint64(fh, uint64(f.pages))
		if err := write(fh); err != nil {
			return n, err
		}
		for p := int64(0); p < f.pages; p++ {
			if err := f.m.read(buf, p); err != nil {
				return n, readErr(name, p, err)
			}
			if err := write(buf); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadDisk deserializes a disk snapshot produced by WriteTo. The returned
// disk starts with zeroed I/O statistics.
func ReadDisk(r io.Reader) (*Disk, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("storage: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("storage: bad snapshot magic %q", magic)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != snapshotVersion {
		return nil, fmt.Errorf("storage: unsupported snapshot version %d", v)
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[4:]))
	fileCount := int(binary.LittleEndian.Uint32(hdr[8:]))
	if pageSize <= 0 || pageSize > 1<<24 {
		return nil, fmt.Errorf("storage: implausible page size %d", pageSize)
	}
	d := NewDisk(pageSize)
	page := make([]byte, pageSize)
	for i := 0; i < fileCount; i++ {
		var fh [4]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			return nil, fmt.Errorf("storage: truncated snapshot (file %d): %w", i, err)
		}
		nameLen := int(binary.LittleEndian.Uint32(fh[:]))
		if nameLen <= 0 || nameLen > 1<<16 {
			return nil, fmt.Errorf("storage: implausible file name length %d", nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, err
		}
		var pc [8]byte
		if _, err := io.ReadFull(br, pc[:]); err != nil {
			return nil, err
		}
		name := string(nameBuf)
		if err := d.Create(name); err != nil {
			return nil, fmt.Errorf("storage: snapshot: %w", err)
		}
		for p, pages := uint64(0), binary.LittleEndian.Uint64(pc[:]); p < pages; p++ {
			if _, err := io.ReadFull(br, page); err != nil {
				return nil, fmt.Errorf("storage: truncated snapshot (file %q page %d): %w", name, p, err)
			}
			if _, err := d.AppendPage(name, page); err != nil {
				return nil, err
			}
		}
	}
	d.ResetStats()
	return d, nil
}

// SaveFile writes the disk snapshot durably to a filesystem (nil means the
// host's): the bytes go to a temp file, are fsynced, renamed over path, and
// the parent directory is fsynced. A crash mid-save leaves any previous
// snapshot at path intact; once SaveFile returns, the new snapshot survives
// a crash — the precondition for checkpointing (WAL truncation must not
// happen before the snapshot it relies on is durable).
func (d *Disk) SaveFile(fsys fsx.FS, path string) error {
	return fsx.WriteFileAtomic(fsys, path, func(w io.Writer) error {
		_, err := d.WriteTo(w)
		return err
	})
}

// LoadDiskFile reads a disk snapshot from a filesystem (nil means the
// host's) onto a disk on the heap medium.
func LoadDiskFile(fsys fsx.FS, path string) (*Disk, error) {
	fsys = fsx.OrOS(fsys)
	info, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDisk(io.NewSectionReader(f, 0, info.Size()))
}
