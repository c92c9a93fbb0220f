package storage

import (
	"encoding/binary"
	"fmt"
)

// A blob is a small metadata file in one frame:
//
//	magic | version u32 | payload length u64 | prefix | payload
//
// The prefix is fixed-size data of the writer's that the length does not
// count (the durable LSN of a CLSM manifest); most blobs have none. The
// frame is the one place a checksum of persisted metadata belongs.

// WriteBlob replaces the named file with the framed payload.
func WriteBlob(d Backend, name, magic string, version uint32, prefix, payload []byte) error {
	if d.Exists(name) {
		if err := d.Remove(name); err != nil {
			return err
		}
	}
	blob := make([]byte, 0, len(magic)+12+len(prefix)+len(payload))
	blob = append(blob, magic...)
	blob = binary.LittleEndian.AppendUint32(blob, version)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(payload)))
	blob = append(blob, prefix...)
	blob = append(blob, payload...)
	if err := d.Create(name); err != nil {
		return err
	}
	_, err := d.AppendPages(name, blob)
	return err
}

// ReadBlob reads a file WriteBlob wrote and checks its frame, returning the
// bytes after the header — prefixLen bytes of prefix, then the payload — and
// the format version, which may be any from 1 through maxVersion: the caller
// decodes the payload per version. Errors name the file.
func ReadBlob(d Backend, name, magic string, maxVersion uint32, prefixLen int) ([]byte, uint32, error) {
	npages, err := d.NumPages(name)
	if err != nil {
		return nil, 0, fmt.Errorf("opening %q: %w", name, err)
	}
	blob := make([]byte, int(npages)*d.PageSize())
	if _, err := d.ReadPages(name, 0, int(npages), blob); err != nil {
		return nil, 0, err
	}
	if len(blob) < len(magic)+12+prefixLen {
		return nil, 0, fmt.Errorf("%s: file too short", name)
	}
	if string(blob[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("%s: bad magic %q", name, blob[:len(magic)])
	}
	off := len(magic)
	version := binary.LittleEndian.Uint32(blob[off:])
	if version < 1 || version > maxVersion {
		return nil, 0, fmt.Errorf("%s: unsupported version %d", name, version)
	}
	off += 4
	plen := binary.LittleEndian.Uint64(blob[off:])
	off += 8
	if plen > uint64(len(blob)-off-prefixLen) {
		return nil, 0, fmt.Errorf("%s: truncated payload: want %d bytes", name, plen)
	}
	return blob[off : off+prefixLen+int(plen)], version, nil
}
