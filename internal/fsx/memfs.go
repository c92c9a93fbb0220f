package fsx

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// ErrShortWrite is returned by a fault hook to request a torn write: the
// filesystem applies only the first half of the buffer, then fails the call.
var ErrShortWrite = io.ErrShortWrite

// ErrInjected is the default error MemFS faults surface.
var ErrInjected = fmt.Errorf("fsx: injected fault")

// MemFS is an in-memory filesystem that models POSIX crash semantics:
//
//   - File contents are durable only up to the file's last Sync. A crash
//     reverts every surviving file to its last-synced image.
//   - A directory entry (create, remove, or rename) is durable only once
//     the parent directory has been SyncDir'd. A crash drops files whose
//     create was never dir-synced — even if their contents were fsynced —
//     and resurrects files whose remove or rename-away was never dir-synced.
//
// Crash simulates the power cut; SetFaultHook injects errors (including
// torn writes) into individual operations. MemFS is safe for concurrent
// use.
type MemFS struct {
	mu    sync.Mutex
	dirs  map[string]bool
	files map[string]*memFile // live namespace
	// limbo holds crash-images of files whose dirent removal (or
	// rename-away) is not yet durable: on crash they come back.
	limbo map[string]*memFile
	hook  func(op, path string) error
	ops   int64
}

type memFile struct {
	data    []byte
	synced  []byte
	durable bool // dirent create has been dir-synced
}

// NewMemFS returns an empty MemFS with the root directory "." present.
func NewMemFS() *MemFS {
	return &MemFS{
		dirs:  map[string]bool{".": true, "/": true},
		files: make(map[string]*memFile),
		limbo: make(map[string]*memFile),
	}
}

// SetFaultHook installs a hook consulted before every mutating operation
// (ops: "create", "write", "sync", "truncate", "remove", "rename",
// "syncdir") and before every positioned read (op "read", which Ops and
// FailAfter do not count). A non-nil return fails the operation with that
// error; returning ErrShortWrite from a "write" applies half the buffer
// first, and returning io.EOF from a "read" fills half the buffer first — a
// short read. Pass nil to clear.
func (m *MemFS) SetFaultHook(h func(op, path string) error) {
	m.mu.Lock()
	m.hook = h
	m.mu.Unlock()
}

// FailAfter arranges for every mutating operation after the next n to fail
// with err (ErrInjected when err is nil) — the classic crash-after-N-ops
// fault schedule.
func (m *MemFS) FailAfter(n int64, err error) {
	if err == nil {
		err = ErrInjected
	}
	var count int64
	var mu sync.Mutex
	m.SetFaultHook(func(op, path string) error {
		if op == "read" {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		count++
		if count > n {
			return err
		}
		return nil
	})
}

// Ops returns the number of mutating operations performed so far.
func (m *MemFS) Ops() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// fault must be called with m.mu held.
func (m *MemFS) fault(op, path string) error {
	m.ops++
	if m.hook == nil {
		return nil
	}
	h := m.hook
	// Release the lock around the hook so hooks may call back into MemFS
	// (e.g. to inspect state when deciding whether to fail).
	m.mu.Unlock()
	err := h(op, path)
	m.mu.Lock()
	return err
}

// Crash simulates a power cut: unsynced file contents are discarded, files
// whose dirent create was never dir-synced vanish, and files whose dirent
// removal was never dir-synced come back with their last-synced contents.
// Open handles become stale; reopen everything after a crash.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	survivors := make(map[string]*memFile, len(m.files))
	for path, f := range m.files {
		if !f.durable {
			continue // dirent never reached the disk
		}
		survivors[path] = &memFile{data: clone(f.synced), synced: clone(f.synced), durable: true}
	}
	for path, f := range m.limbo {
		if _, taken := survivors[path]; taken {
			continue
		}
		survivors[path] = &memFile{data: clone(f.synced), synced: clone(f.synced), durable: true}
	}
	m.files = survivors
	m.limbo = make(map[string]*memFile)
}

func clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func norm(path string) string { return filepath.Clean(path) }

func (m *MemFS) dirExists(dir string) bool {
	return m.dirs[dir]
}

func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	name = norm(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	switch {
	case m.dirs[name]:
		return nil, &fs.PathError{Op: "open", Path: name, Err: syscall.EISDIR}
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		if !m.dirExists(filepath.Dir(name)) {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		if err := m.fault("create", name); err != nil {
			return nil, err
		}
		f = &memFile{}
		m.files[name] = f
	}
	if flag&os.O_TRUNC != 0 && ok {
		if err := m.fault("truncate", name); err != nil {
			return nil, err
		}
		f.data = nil
	}
	h := &memHandle{m: m, f: f, path: name}
	if flag&os.O_APPEND != 0 {
		h.off = int64(len(f.data))
	}
	return h, nil
}

func (m *MemFS) Remove(name string) error {
	name = norm(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	if err := m.fault("remove", name); err != nil {
		return err
	}
	if f.durable {
		if _, held := m.limbo[name]; !held {
			m.limbo[name] = &memFile{data: clone(f.synced), synced: clone(f.synced), durable: true}
		}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = norm(oldpath), norm(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	if !m.dirExists(filepath.Dir(newpath)) {
		return &fs.PathError{Op: "rename", Path: newpath, Err: fs.ErrNotExist}
	}
	if err := m.fault("rename", oldpath); err != nil {
		return err
	}
	// The displaced target and the renamed-away source both linger until
	// their directories are synced.
	if prev, had := m.files[newpath]; had && prev.durable {
		if _, held := m.limbo[newpath]; !held {
			m.limbo[newpath] = &memFile{data: clone(prev.synced), synced: clone(prev.synced), durable: true}
		}
	}
	if f.durable {
		if _, held := m.limbo[oldpath]; !held {
			m.limbo[oldpath] = &memFile{data: clone(f.synced), synced: clone(f.synced), durable: true}
		}
	}
	delete(m.files, oldpath)
	// The rename itself is a fresh, not-yet-durable dirent at newpath; the
	// moved file keeps its content-sync state.
	m.files[newpath] = &memFile{data: f.data, synced: f.synced}
	return nil
}

func (m *MemFS) MkdirAll(path string, perm fs.FileMode) error {
	path = norm(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := path; ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

func (m *MemFS) ReadDir(name string) ([]os.DirEntry, error) {
	name = norm(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirExists(name) {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrNotExist}
	}
	seen := make(map[string]bool)
	var out []os.DirEntry
	for path := range m.files {
		if filepath.Dir(path) == name {
			base := filepath.Base(path)
			if !seen[base] {
				seen[base] = true
				out = append(out, memDirEntry{name: base})
			}
		}
	}
	for dir := range m.dirs {
		if dir != name && filepath.Dir(dir) == name {
			base := filepath.Base(dir)
			if !seen[base] {
				seen[base] = true
				out = append(out, memDirEntry{name: base, dir: true})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	name = norm(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return clone(f.data), nil
}

func (m *MemFS) Stat(name string) (os.FileInfo, error) {
	name = norm(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return memFileInfo{name: filepath.Base(name), size: int64(len(f.data))}, nil
	}
	if m.dirExists(name) {
		return memFileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
}

// SyncDir makes the directory's entries durable: files created in it
// survive crashes from now on, and files removed or renamed away from it
// are gone for good.
func (m *MemFS) SyncDir(name string) error {
	name = norm(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirExists(name) {
		return &fs.PathError{Op: "syncdir", Path: name, Err: fs.ErrNotExist}
	}
	if err := m.fault("syncdir", name); err != nil {
		return err
	}
	for path, f := range m.files {
		if filepath.Dir(path) == name {
			f.durable = true
		}
	}
	for path := range m.limbo {
		if filepath.Dir(path) == name {
			delete(m.limbo, path)
		}
	}
	return nil
}

// memHandle is one open descriptor; the write offset is per-handle. Like an
// *os.File, it fails every call after Close with os.ErrClosed — Close
// itself included — so a use-after-close that the real filesystem would
// refuse does not pass here.
type memHandle struct {
	m      *MemFS
	f      *memFile
	path   string
	off    int64
	closed bool
}

// use must be called with h.m.mu held, first thing in every operation.
func (h *memHandle) use(op string) error {
	if h.closed {
		return &fs.PathError{Op: op, Path: h.path, Err: os.ErrClosed}
	}
	return nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	n, err := h.WriteAt(p, h.off)
	h.off += int64(n)
	return n, err
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if err := h.use("write"); err != nil {
		return 0, err
	}
	if err := h.m.fault("write", h.path); err != nil {
		if err == ErrShortWrite && len(p) > 0 {
			half := p[:len(p)/2]
			h.writeLocked(half, off)
			return len(half), ErrShortWrite
		}
		return 0, err
	}
	h.writeLocked(p, off)
	return len(p), nil
}

func (h *memHandle) writeLocked(p []byte, off int64) {
	end := off + int64(len(p))
	if int64(len(h.f.data)) < end {
		grown := make([]byte, end)
		copy(grown, h.f.data)
		h.f.data = grown
	}
	copy(h.f.data[off:end], p)
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if err := h.use("read"); err != nil {
		return 0, err
	}
	if hook := h.m.hook; hook != nil {
		h.m.mu.Unlock()
		err := hook("read", h.path)
		h.m.mu.Lock()
		if err == io.EOF && off < int64(len(h.f.data)) {
			return copy(p[:len(p)/2], h.f.data[off:]), io.EOF
		}
		if err != nil {
			return 0, err
		}
	}
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if err := h.use("seek"); err != nil {
		return 0, err
	}
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.f.data)) + offset
	default:
		return 0, fmt.Errorf("fsx: bad whence %d", whence)
	}
	return h.off, nil
}

func (h *memHandle) Truncate(size int64) error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if err := h.use("truncate"); err != nil {
		return err
	}
	if err := h.m.fault("truncate", h.path); err != nil {
		return err
	}
	switch {
	case size <= 0:
		h.f.data = nil
	case size < int64(len(h.f.data)):
		h.f.data = h.f.data[:size]
	case size > int64(len(h.f.data)):
		grown := make([]byte, size)
		copy(grown, h.f.data)
		h.f.data = grown
	}
	return nil
}

func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if err := h.use("sync"); err != nil {
		return err
	}
	if err := h.m.fault("sync", h.path); err != nil {
		return err
	}
	h.f.synced = clone(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	err := h.use("close")
	h.closed = true
	return err
}

type memDirEntry struct {
	name string
	dir  bool
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }
func (e memDirEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memDirEntry) Info() (fs.FileInfo, error) {
	return memFileInfo{name: e.name, dir: e.dir}, nil
}

type memFileInfo struct {
	name string
	size int64
	dir  bool
}

func (i memFileInfo) Name() string { return i.name }
func (i memFileInfo) Size() int64  { return i.size }
func (i memFileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return i.dir }
func (i memFileInfo) Sys() any           { return nil }
