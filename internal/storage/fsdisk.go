package storage

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fsx"
)

// fileDiskSuffix marks the host files a disk owns inside its directory;
// the base name is the URL-path-escaped logical file name, so any logical
// name round-trips through one flat host directory.
const fileDiskSuffix = ".cpg"

// FileDiskOptions configures a disk on the host medium.
type FileDiskOptions struct {
	// Dir is the host directory holding the page files (created if
	// missing). One disk owns one directory.
	Dir string
	// PageSize is the page size in bytes (0 means DefaultPageSize). When
	// the directory already holds page files, it must match the size they
	// were written with.
	PageSize int
	// FS overrides the host filesystem; nil means the real one. Crash and
	// fault-injection tests inject fsx.MemFS here.
	FS fsx.FS
}

// hostMedium keeps every logical file as one page-aligned host file in one
// directory, reached through an fsx.FS: reads are positioned reads (pread,
// position-independent, so concurrent probes under the disk's shared lock
// don't interfere), writes are positioned writes (pwrite) of whole pages.
// A host file is overwritten in place, so there are no stable bytes to
// lend: pin copies into a fresh page and scan into the cursor's window.
//
// Durability discipline: create, remove and rename fsync the directory
// before returning, so dirents are never lost; page writes land in the
// kernel page cache and reach stable storage when the Disk syncs the file.
type hostMedium struct {
	fs       fsx.FS
	dir      string
	pageSize int
}

// NewFileDisk opens (or creates) a disk on the host medium, rooted at
// opts.Dir. Page files already present in the directory are adopted, which
// is how the store recovers after a crash or restart; a torn trailing
// partial page (from a crash mid-append) is discarded.
func NewFileDisk(opts FileDiskOptions) (*Disk, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("storage: FileDisk requires a directory")
	}
	m := &hostMedium{fs: fsx.OrOS(opts.FS), dir: opts.Dir, pageSize: opts.PageSize}
	if m.pageSize <= 0 {
		m.pageSize = DefaultPageSize
	}
	d := newDisk(m.pageSize, m)
	if err := m.adopt(d.addFile); err != nil {
		for _, f := range d.files {
			f.m.close()
		}
		return nil, err
	}
	return d, nil
}

// adopt opens every page file in the directory and hands it to add with
// the logical name it decodes to and its count of whole pages.
func (m *hostMedium) adopt(add func(name string, pf pageFile, pages int64)) error {
	if err := m.fs.MkdirAll(m.dir, 0o755); err != nil {
		return err
	}
	entries, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), fileDiskSuffix) {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(e.Name(), fileDiskSuffix))
		if err != nil {
			return fmt.Errorf("storage: undecodable page file %q: %w", e.Name(), err)
		}
		path := filepath.Join(m.dir, e.Name())
		info, err := m.fs.Stat(path)
		if err != nil {
			return err
		}
		h, err := m.fs.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		pages := info.Size() / int64(m.pageSize)
		if info.Size()%int64(m.pageSize) != 0 {
			// Crash mid-append: drop the torn partial page.
			if err := h.Truncate(pages * int64(m.pageSize)); err != nil {
				h.Close()
				return err
			}
		}
		add(name, &hostFile{f: h, pageSize: m.pageSize}, pages)
	}
	return nil
}

// path returns the host path backing a logical file name.
func (m *hostMedium) path(name string) string {
	return filepath.Join(m.dir, url.PathEscape(name)+fileDiskSuffix)
}

func (m *hostMedium) kind() string   { return "file" }
func (m *hostMedium) syncDir() error { return m.fs.SyncDir(m.dir) }

func (m *hostMedium) create(name string) (pageFile, error) {
	path := m.path(name)
	h, err := m.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := m.syncDir(); err != nil {
		h.Close()
		m.fs.Remove(path)
		return nil, err
	}
	return &hostFile{f: h, pageSize: m.pageSize}, nil
}

// remove keeps the handle open until the host file is gone: a failed host
// removal leaves a file that reads, writes and closes as before. Once the
// dirent is gone the file is gone, whatever the directory sync says — its
// error tells the caller that a crash may still bring the file back.
func (m *hostMedium) remove(name string, pf pageFile) (bool, error) {
	if err := m.fs.Remove(m.path(name)); err != nil {
		return false, err
	}
	err := m.syncDir()
	pf.close()
	return true, err
}

func (m *hostMedium) rename(oldName, newName string) error {
	if err := m.fs.Rename(m.path(oldName), m.path(newName)); err != nil {
		return err
	}
	return m.syncDir()
}

// hostFile is one logical file's host file.
type hostFile struct {
	f        fsx.File
	pageSize int
}

func (h *hostFile) sync() error  { return h.f.Sync() }
func (h *hostFile) close() error { return h.f.Close() }

// read preads len(dst) bytes; anything less is an error.
func (h *hostFile) read(dst []byte, page int64) error {
	n, err := h.f.ReadAt(dst, page*int64(h.pageSize))
	if n == len(dst) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (h *hostFile) pin(page int64) ([]byte, error) {
	buf := make([]byte, h.pageSize)
	return buf, h.read(buf, page)
}

func (h *hostFile) write(data []byte, page int64) error {
	_, err := h.f.WriteAt(data, page*int64(h.pageSize))
	return err
}

// scanWindowPages caps a cursor's read-ahead: 16 pages, the chunk the merge
// path's streams have always read.
const scanWindowPages = DefaultBufferPages

// scan serves pages from the window, filled one pread per chunk. A chunk is
// as many pages as the scan has just consumed consecutively (1, 2, 4, ... up
// to scanWindowPages), so the width doubles while the scan is sequential and
// falls back to one page after a gap: every chunk but the first of a streak
// follows chunks consumed in full, so a scan never preads twice the pages
// it consumes, however it skips. A failed or short pread leaves nothing of
// its chunk to serve.
func (h *hostFile) scan(w *window, page, limit int64) ([]byte, error) {
	switch {
	case page == w.last+1:
		w.streak++
	case page != w.last:
		w.streak = 1
	}
	w.last = page
	ps := int64(h.pageSize)
	if page < w.start || page >= w.start+int64(w.n) {
		w.n = 0
		if w.buf == nil {
			w.buf = make([]byte, scanWindowPages*ps)
		}
		width := min(int64(w.streak), scanWindowPages, limit-page)
		if err := h.read(w.buf[:width*ps], page); err != nil {
			return nil, fmt.Errorf("in pages [%d,%d): %w", page, page+width, err)
		}
		w.start, w.n = page, int(width)
	}
	off := (page - w.start) * ps
	return w.buf[off : off+ps : off+ps], nil
}
