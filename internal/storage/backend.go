package storage

import (
	"io"

	"repro/internal/fsx"
)

// Backend is the full storage surface an index builds on: the PageReader
// read side plus the write API, file namespace operations, accounting
// hooks, and snapshot/durability entry points. One type implements it,
// *Disk — one disk, two media:
//
//   - the namespace and file identities, the lock, every argument, bounds
//     and page-size check, the accounting core and the tracer call
//     (accounting.go), the invalidation hooks, the snapshot writer and the
//     scan cursor's bookkeeping are the Disk's, written once — so an
//     identical access sequence produces identical Stats, and an identical
//     snapshot, whatever the pages are kept on;
//   - where the pages are kept is a medium (storage.go), chosen by the
//     constructor and by nothing else. NewDisk keeps them on the heap: the
//     paper-faithful cost-accounting mode, where a read borrows the page
//     (published by replacement, never mutated, so there is nothing to
//     copy) and durability calls do nothing. NewFileDisk keeps them in
//     page-aligned host files through an fsx.FS (fsdisk.go): a read copies
//     (the file is overwritten in place, so there is nothing stable to
//     borrow), and the medium owns the O_EXCL create, the directory fsync
//     after create/remove/rename, the file fsync behind Sync, Close and
//     Rename, and the adoption of a directory found at start-up.
type Backend interface {
	PageReader
	StatsProvider

	// Namespace operations.
	Create(name string) error
	Remove(name string) error
	Rename(oldName, newName string) error
	Files() []string
	TotalPages() int64

	// Write API. WritePage overwrites (or appends at page == NumPages);
	// AppendPage adds one page; AppendPages streams len(data)/PageSize
	// pages plus a trailing partial page, returning the first new page
	// number.
	WritePage(name string, page int64, data []byte) error
	AppendPage(name string, data []byte) (int64, error)
	AppendPages(name string, data []byte) (int64, error)

	// Accounting hooks.
	SetTracer(t Tracer)
	AddInvalidator(inv Invalidator)
	ResetStats()

	// Snapshot: serialize every file into the portable snapshot format
	// (see snapshot.go) / write it durably to a path on a filesystem (nil
	// means the host's; crash tests inject one).
	WriteTo(w io.Writer) (int64, error)
	SaveFile(fsys fsx.FS, path string) error

	// Durability. Sync flushes everything to stable storage (nothing, on
	// the heap medium); Close syncs and releases host resources. After
	// Close every call that returns an error returns ErrClosed, except
	// Close itself, which may be called again.
	Sync() error
	Close() error

	// Kind names the medium ("sim" or "file") for stats and logs.
	Kind() string
}

var _ Backend = (*Disk)(nil)
