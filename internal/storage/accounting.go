package storage

import "sync/atomic"

// Head-position packing for the one-head sequential-vs-random classifier.
// The position after an access is a single atomic word so that concurrent
// readers classify without locking: the top 24 bits hold the file identity
// (id reduced mod 2²⁴−1, plus one so a parked head is never the zero word)
// and the low 40 bits hold the page number. 40 bits of page cover 4 PiB of
// 4 KiB pages in a single file; the previous 32-bit packing aliased page
// 2³² onto page 0, misclassifying huge-file accesses as sequential repeats.
const (
	headPageBits = 40
	headPageMask = (uint64(1) << headPageBits) - 1
	headFileMod  = (uint64(1) << (64 - headPageBits)) - 1
)

// packHead encodes (file, page) as one non-zero word; 0 means "no access
// yet".
func packHead(fileID uint32, page int64) uint64 {
	fid := uint64(fileID)%headFileMod + 1
	return fid<<headPageBits | uint64(page)&headPageMask
}

// ioAccounting is the Disk's accounting core: the atomic sequential/random
// counters plus the packed head word. It sits above the medium, so a disk
// classifies an access sequence the same way whatever its pages are kept on
// — which is what makes Stats comparable in the equivalence suite.
type ioAccounting struct {
	seqReads, randReads   atomic.Int64
	seqWrites, randWrites atomic.Int64
	head                  atomic.Uint64
}

// account classifies one page access as sequential or random and advances
// the head. An access is sequential when the head sits on the same file at
// the previous page (or the same page, a buffered repeat); anything else —
// including switching files — is random.
func (a *ioAccounting) account(fileID uint32, page int64, write bool) {
	packed := packHead(fileID, page)
	prev := a.head.Swap(packed)
	prevPage := prev & headPageMask
	pg := packed & headPageMask
	sequential := prev != 0 && prev>>headPageBits == packed>>headPageBits &&
		(pg == prevPage+1 || pg == prevPage)
	switch {
	case write && sequential:
		a.seqWrites.Add(1)
	case write:
		a.randWrites.Add(1)
	case sequential:
		a.seqReads.Add(1)
	default:
		a.randReads.Add(1)
	}
}

// snapshot returns the accumulated counters (cache fields zero: caching is
// a layer above the backend).
func (a *ioAccounting) snapshot() Stats {
	return Stats{
		SeqReads:   a.seqReads.Load(),
		RandReads:  a.randReads.Load(),
		SeqWrites:  a.seqWrites.Load(),
		RandWrites: a.randWrites.Load(),
	}
}

// reset zeroes the counters and parks the head, so a measurement window
// never inherits a sequential classification from activity it excludes.
func (a *ioAccounting) reset() {
	a.seqReads.Store(0)
	a.randReads.Store(0)
	a.seqWrites.Store(0)
	a.randWrites.Store(0)
	a.head.Store(0)
}
