// Package extsort implements the two-pass external merge sort at the heart
// of Coconut's bottom-up index construction. Phase one streams the unsorted
// entry file through a bounded in-memory buffer, emitting sorted runs with
// sequential writes; phase two k-way-merges the runs (multi-pass when the
// fan-in exceeds the memory budget) with sequential reads and writes. This
// is what lets Coconut build a compact, contiguous index without the
// random I/O of top-down insertion.
package extsort

import (
	"container/heap"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/parallel"
	"repro/internal/record"
	"repro/internal/storage"
)

// Sorter sorts entry files on a Disk under a fixed memory budget.
type Sorter struct {
	Disk      storage.Backend
	Codec     record.Codec
	MemBudget int    // bytes of working memory for buffering entries
	TmpPrefix string // prefix for temporary run files (default "extsort")
	// Parallelism bounds the worker goroutines used by Sort: in-memory runs
	// sort on workers while completed runs stream to disk (overlapping sort
	// CPU with run-writing I/O), and independent merge groups of a pass run
	// concurrently. 0 or 1 keeps the classic serial two-pass sort. Because
	// entries are totally ordered by (Key, ID), the sorted output file is
	// byte-identical at every parallelism level; only wall-clock changes.
	// When parallel, a few in-flight buffers per worker may hold entries at
	// once, so resident memory can exceed MemBudget by a small constant
	// factor.
	Parallelism int
}

// MinMemBudget is the smallest workable budget: room for a handful of
// entries and two merge pages.
func (s *Sorter) minEntries() int {
	n := s.MemBudget / s.Codec.Size()
	if n < 4 {
		n = 4
	}
	return n
}

func (s *Sorter) tmpName(pass, i int) string {
	p := s.TmpPrefix
	if p == "" {
		p = "extsort"
	}
	return fmt.Sprintf("%s.p%d.r%d", p, pass, i)
}

// Sort reads count entries from the input file and writes them in (Key, ID)
// order to the output file (created by the sort; it must not exist). The
// input file is left intact. Returns the number of merge passes used
// (0 = input fit in memory, 1 = classic two-pass, >1 = constrained memory).
func (s *Sorter) Sort(input string, count int64, output string) (passes int, err error) {
	if count == 0 {
		w, err := storage.NewRecordWriter(s.Disk, output, s.Codec.Size())
		if err != nil {
			return 0, err
		}
		return 0, w.Close()
	}

	// Phase 1: produce sorted runs.
	workers := s.workers()
	var runs []runInfo
	if workers == 1 {
		var err error
		if runs, err = s.sortRunsSerial(input, count); err != nil {
			return 0, err
		}
	} else {
		var err error
		if runs, err = s.sortRunsParallel(input, count, workers); err != nil {
			return 0, err
		}
	}

	// Single run: it is already the answer.
	if len(runs) == 1 {
		return 0, s.Disk.Rename(runs[0].name, output)
	}

	// Phase 2: k-way merge passes. Fan-in is bounded by how many run pages
	// fit in the memory budget (at least 2). Merge groups within a pass are
	// independent and run on the worker pool; the final single-group merge
	// writes the output directly.
	fanIn := s.MemBudget / s.Disk.PageSize()
	if fanIn < 2 {
		fanIn = 2
	}
	pool := parallel.New(workers)
	pass := 1
	for len(runs) > 1 {
		var groups [][]runInfo
		for i := 0; i < len(runs); i += fanIn {
			groups = append(groups, runs[i:min(i+fanIn, len(runs))])
		}
		next := make([]runInfo, len(groups))
		concurrent := pool.WorkersFor(len(groups))
		budget := s.MemBudget / concurrent
		err := pool.ForEach(len(groups), func(_, g int) error {
			name := s.tmpName(pass, g)
			if len(groups) == 1 {
				name = output // final merge writes the output directly
			}
			merged, err := s.mergeBudget(groups[g], name, budget)
			if err != nil {
				return err
			}
			next[g] = merged
			return nil
		})
		if err != nil {
			return passes, err
		}
		for _, r := range runs {
			if err := s.Disk.Remove(r.name); err != nil {
				return passes, err
			}
		}
		runs = next
		passes = pass
		pass++
	}
	return passes, nil
}

// workers resolves the Parallelism knob: 0 or 1 means serial.
func (s *Sorter) workers() int {
	if s.Parallelism <= 1 {
		return 1
	}
	return s.Parallelism
}

// sortRunsSerial is the classic phase 1: fill one bounded buffer, sort it,
// write it out, repeat.
func (s *Sorter) sortRunsSerial(input string, count int64) ([]runInfo, error) {
	bufEntries := s.minEntries()
	reader, err := storage.NewRecordReader(s.Disk, input, s.Codec.Size(), count)
	if err != nil {
		return nil, err
	}
	var runs []runInfo
	entries := make([]record.Entry, 0, bufEntries)
	flush := func() error {
		if len(entries) == 0 {
			return nil
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
		name := s.tmpName(0, len(runs))
		if err := s.writeRun(name, entries); err != nil {
			return err
		}
		runs = append(runs, runInfo{name: name, count: int64(len(entries))})
		entries = entries[:0]
		return nil
	}
	for {
		rec, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		e, err := s.Codec.Decode(rec)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
		if len(entries) == bufEntries {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return runs, nil
}

// sortRunsParallel is phase 1 as a three-stage pipeline: this goroutine
// streams the input and batches entries, workers sort batches, and a writer
// goroutine streams completed runs to disk strictly in batch order, so
// sorting CPU overlaps run-writing I/O and the write stream stays
// single-headed. The memory budget is split across workers, so the
// intermediate runs are smaller and more numerous than the serial pass's —
// only the final merged output is byte-identical (entries are totally
// ordered by (Key, ID)), not the intermediate run files.
func (s *Sorter) sortRunsParallel(input string, count int64, workers int) ([]runInfo, error) {
	type batch struct {
		idx     int
		entries []record.Entry
	}
	bufEntries := s.minEntries() / workers
	if bufEntries < 4 {
		bufEntries = 4
	}
	reader, err := storage.NewRecordReader(s.Disk, input, s.Codec.Size(), count)
	if err != nil {
		return nil, err
	}
	sortCh := make(chan batch, workers)
	writeCh := make(chan batch, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for b := range sortCh {
				sort.Slice(b.entries, func(x, y int) bool { return b.entries[x].Less(b.entries[y]) })
				writeCh <- b
			}
		}()
	}
	var (
		runs      []runInfo
		writerErr error
		writerDn  = make(chan struct{})
	)
	go func() {
		defer close(writerDn)
		pending := make(map[int][]record.Entry)
		next := 0
		for b := range writeCh {
			pending[b.idx] = b.entries
			for entries, ok := pending[next]; ok; entries, ok = pending[next] {
				delete(pending, next)
				if writerErr == nil {
					name := s.tmpName(0, next)
					if err := s.writeRun(name, entries); err != nil {
						writerErr = err
					} else {
						runs = append(runs, runInfo{name: name, count: int64(len(entries))})
					}
				}
				next++
			}
		}
	}()
	var readErr error
	idx := 0
	entries := make([]record.Entry, 0, bufEntries)
	for readErr == nil {
		rec, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		var e record.Entry
		if e, readErr = s.Codec.Decode(rec); readErr != nil {
			break
		}
		entries = append(entries, e)
		if len(entries) == bufEntries {
			sortCh <- batch{idx: idx, entries: entries}
			idx++
			entries = make([]record.Entry, 0, bufEntries)
		}
	}
	if readErr == nil && len(entries) > 0 {
		sortCh <- batch{idx: idx, entries: entries}
	}
	close(sortCh)
	wg.Wait()
	close(writeCh)
	<-writerDn
	if readErr != nil {
		return nil, readErr
	}
	if writerErr != nil {
		return nil, writerErr
	}
	return runs, nil
}

type runInfo struct {
	name  string
	count int64
}

func (s *Sorter) writeRun(name string, entries []record.Entry) error {
	w, err := storage.NewRecordWriter(s.Disk, name, s.Codec.Size())
	if err != nil {
		return err
	}
	buf := make([]byte, 0, s.Codec.Size())
	for _, e := range entries {
		buf = buf[:0]
		buf, err = s.Codec.Append(buf, e)
		if err != nil {
			return err
		}
		if err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Close()
}

// merge performs a single k-way merge of the given runs into a new file
// under the sorter's full memory budget.
func (s *Sorter) merge(runs []runInfo, outName string) (runInfo, error) {
	return s.mergeBudget(runs, outName, s.MemBudget)
}

// mergeBudget performs a single k-way merge of the given runs into a new
// file. The memory budget (a share of MemBudget when merges run
// concurrently) is split into per-run read-ahead buffers plus a
// write-behind buffer, so each stream moves the head once per chunk — the
// I/O discipline that makes external merging sequential.
func (s *Sorter) mergeBudget(runs []runInfo, outName string, budget int) (runInfo, error) {
	bufPages := budget / s.Disk.PageSize() / (len(runs) + 1)
	if bufPages < 1 {
		bufPages = 1
	}
	w, err := storage.NewRecordWriterBuffered(s.Disk, outName, s.Codec.Size(), bufPages)
	if err != nil {
		return runInfo{}, err
	}
	srcs := make([]*mergeSource, len(runs))
	for i, r := range runs {
		rd, err := storage.NewRecordReaderBuffered(s.Disk, r.name, s.Codec.Size(), r.count, bufPages)
		if err != nil {
			return runInfo{}, err
		}
		srcs[i] = &mergeSource{src: &recordEntryReader{reader: rd, codec: s.Codec}, idx: i}
	}
	buf := make([]byte, 0, s.Codec.Size())
	total, err := mergeLoop(srcs, func(e record.Entry) error {
		buf = buf[:0]
		var aerr error
		if buf, aerr = s.Codec.Append(buf, e); aerr != nil {
			return aerr
		}
		return w.Write(buf)
	})
	if err != nil {
		return runInfo{}, err
	}
	if err := w.Close(); err != nil {
		return runInfo{}, err
	}
	return runInfo{name: outName, count: total}, nil
}

// mergeLoop drains the sources through the tournament heap in (Key, ID)
// order, invoking write on every entry. It returns the entry count.
func mergeLoop(srcs []*mergeSource, write func(record.Entry) error) (int64, error) {
	h := &mergeHeap{}
	for _, src := range srcs {
		ok, err := src.advance()
		if err != nil {
			return 0, err
		}
		if ok {
			h.items = append(h.items, src)
		}
	}
	heap.Init(h)
	var total int64
	for h.Len() > 0 {
		src := h.items[0]
		if err := write(src.cur); err != nil {
			return total, err
		}
		total++
		ok, err := src.advance()
		if err != nil {
			return total, err
		}
		if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return total, nil
}

// entrySource yields entries in sorted order; io.EOF ends the stream. Both
// the fixed-size RecordReader (via recordEntryReader) and the packed
// record.PackedReader satisfy it.
type entrySource interface {
	NextEntry() (record.Entry, error)
}

// recordEntryReader adapts a fixed-size record stream to entrySource.
type recordEntryReader struct {
	reader *storage.RecordReader
	codec  record.Codec
}

func (r *recordEntryReader) NextEntry() (record.Entry, error) {
	rec, err := r.reader.Next()
	if err != nil {
		return record.Entry{}, err
	}
	return r.codec.Decode(rec)
}

type mergeSource struct {
	src entrySource
	cur record.Entry
	idx int
}

func (m *mergeSource) advance() (bool, error) {
	e, err := m.src.NextEntry()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	m.cur = e
	return true, nil
}

type mergeHeap struct {
	items []*mergeSource
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.cur.Less(b.cur) {
		return true
	}
	if b.cur.Less(a.cur) {
		return false
	}
	return a.idx < b.idx // stable across sources
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(*mergeSource)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// MergeSorted merges already-sorted entry files (for example CLSM runs or
// BTP partitions) into a single sorted output file. Inputs are left intact.
func (s *Sorter) MergeSorted(inputs []string, counts []int64, output string) (int64, error) {
	if len(inputs) != len(counts) {
		return 0, fmt.Errorf("extsort: %d inputs but %d counts", len(inputs), len(counts))
	}
	runs := make([]runInfo, len(inputs))
	for i := range inputs {
		runs[i] = runInfo{name: inputs[i], count: counts[i]}
	}
	merged, err := s.merge(runs, output)
	if err != nil {
		return 0, err
	}
	return merged.count, nil
}

// MergeSortedPacked is MergeSorted over any mix of fixed-size and packed
// input encodings: packed[i] names input i's encoding, and packOutput
// selects the output's. Inputs are left intact. A CLSM that toggles run
// compression between sessions merges its legacy runs through this path.
func (s *Sorter) MergeSortedPacked(inputs []string, counts []int64, packed []bool, output string, packOutput bool) (int64, error) {
	if len(inputs) != len(counts) || len(inputs) != len(packed) {
		return 0, fmt.Errorf("extsort: %d inputs but %d counts, %d packed flags", len(inputs), len(counts), len(packed))
	}
	bufPages := s.MemBudget / s.Disk.PageSize() / (len(inputs) + 1)
	if bufPages < 1 {
		bufPages = 1
	}
	srcs := make([]*mergeSource, len(inputs))
	for i := range inputs {
		var es entrySource
		if packed[i] {
			npages, err := s.Disk.NumPages(inputs[i])
			if err != nil {
				return 0, err
			}
			pages := storage.ScanChunks(s.Disk, inputs[i], 0, npages, storage.DefaultBufferPages)
			es = record.NewPackedReader(pages, npages, inputs[i], s.Codec, counts[i])
		} else {
			rd, err := storage.NewRecordReaderBuffered(s.Disk, inputs[i], s.Codec.Size(), counts[i], bufPages)
			if err != nil {
				return 0, err
			}
			es = &recordEntryReader{reader: rd, codec: s.Codec}
		}
		srcs[i] = &mergeSource{src: es, idx: i}
	}
	if packOutput {
		w, err := record.NewPackedWriter(s.Disk, output, s.Codec)
		if err != nil {
			return 0, err
		}
		total, err := mergeLoop(srcs, w.WriteEntry)
		if err != nil {
			return total, err
		}
		return total, w.Close()
	}
	w, err := storage.NewRecordWriterBuffered(s.Disk, output, s.Codec.Size(), bufPages)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 0, s.Codec.Size())
	total, err := mergeLoop(srcs, func(e record.Entry) error {
		buf = buf[:0]
		var aerr error
		if buf, aerr = s.Codec.Append(buf, e); aerr != nil {
			return aerr
		}
		return w.Write(buf)
	})
	if err != nil {
		return total, err
	}
	return total, w.Close()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
