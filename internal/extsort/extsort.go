// Package extsort implements the two-pass external merge sort at the heart
// of Coconut's bottom-up index construction. Phase one streams the unsorted
// entry file through a bounded in-memory buffer, emitting sorted runs with
// sequential writes; phase two k-way-merges the runs (multi-pass when the
// fan-in exceeds the memory budget) with sequential reads and writes. This
// is what lets Coconut build a compact, contiguous index without the
// random I/O of top-down insertion.
//
// It is also the one place a new sorted file is written: a CLSM run, a BTP
// partition, a merge of either and a CTree's leaf level are all what Sort,
// Merge or WriteRun wrote, in fixed-size records at the page fill the
// Sorter's Output names, and each owner derives what it keeps in memory
// about its file from the Observer of that one pass. Inputs may also be
// packed, a format older builds wrote. How entries are laid into pages, and
// read back, is internal/record's: a record.Layout's Writer and Reader.
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
	// Output describes the file Sort, Merge and WriteRun produce. The zero
	// value is a plain sorted file: full pages, nobody watching — which is
	// also what Sort's temporary runs always are.
	Output
}

// Output describes a sorted file to be written, in fixed-size records.
type Output struct {
	// Fill is the fraction of each page populated, the rest left as slack
	// for later inserts (a CTree's fill factor; see record.Layout.Create).
	// Values outside (0,1) mean full pages, which is what every Input is
	// read as: a file written with slack is not one.
	Fill float64
	// Observer, when non-nil, sees every entry written.
	Observer Observer
}

func (s *Sorter) tmpName(pass, i int) string {
	p := s.TmpPrefix
	if p == "" {
		p = "extsort"
	}
	return fmt.Sprintf("%s.p%d.r%d", p, pass, i)
}

// Sort reads count entries from the input file and writes them in (Key, ID)
// order to the output file (created by the sort; it must not exist), as the
// sorter's Output describes it. The input file is left intact. Returns the
// number of merge passes used (0 = input fit in memory, 1 = classic two-pass,
// >1 = constrained memory). A failed sort leaves neither output nor
// temporary runs behind (removed best effort; the first error is returned).
func (s *Sorter) Sort(input string, count int64, output string) (passes int, err error) {
	if count == 0 {
		return 0, s.WriteRun(output, nil)
	}
	// Phase 1: produce sorted runs. The memory budget is split across the
	// workers, so a parallel sort's runs are smaller and more numerous than
	// a serial one's; only the final output is byte-identical. The smallest
	// workable budget is room for a handful of entries.
	workers := s.workers()
	bufEntries := max(4, s.MemBudget/s.Codec.Size()/workers)
	reader, err := s.open(Input{Name: input, Count: count}, storage.DefaultBufferPages)
	if err != nil {
		return 0, err
	}
	if count <= int64(bufEntries) {
		// The input fits the budget: the one sorted buffer is the output.
		entries, err := s.fill(reader, make([]record.Entry, 0, count))
		if err != nil {
			return 0, err
		}
		sortBuffer(entries)
		return 0, s.WriteRun(output, entries)
	}
	var runs []Input
	if workers == 1 {
		runs, err = s.sortRunsSerial(reader, bufEntries)
	} else {
		runs, err = s.sortRunsParallel(reader, bufEntries, workers)
	}

	// Phase 2: k-way merge passes. Fan-in is bounded by how many run pages
	// fit in the memory budget (at least 2). Merge groups within a pass are
	// independent and run on the worker pool; intermediate passes write plain
	// runs, and the final single-group merge writes the output itself.
	fanIn := max(2, s.MemBudget/s.Disk.PageSize())
	pool := parallel.New(workers)
	for err == nil && len(runs) > 1 {
		var groups [][]Input
		for i := 0; i < len(runs); i += fanIn {
			groups = append(groups, runs[i:min(i+fanIn, len(runs))])
		}
		next := make([]Input, len(groups))
		budget := s.MemBudget / pool.WorkersFor(len(groups))
		err = pool.ForEach(len(groups), func(_, g int) error {
			name, out := s.tmpName(passes+1, g), Output{}
			if len(groups) == 1 {
				name, out = output, s.Output
			}
			total, err := s.merge(groups[g], name, out, budget)
			if err == nil {
				next[g] = Input{Name: name, Count: total}
			}
			return err
		})
		if err == nil {
			err = s.remove(runs)
		}
		if err != nil {
			runs = append(runs, next...)
			break
		}
		runs = next
		passes++
	}
	if err != nil {
		_ = s.remove(runs) // best effort: err is what the caller must see
	}
	return passes, err
}

// remove removes the named runs — every one it can, whatever fails — and
// returns the first error.
func (s *Sorter) remove(runs []Input) (first error) {
	for _, r := range runs {
		if r.Name == "" {
			continue // a merge group that wrote nothing
		}
		if err := s.Disk.Remove(r.Name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// workers resolves the Parallelism knob: 0 or 1 means serial.
func (s *Sorter) workers() int {
	if s.Parallelism <= 1 {
		return 1
	}
	return s.Parallelism
}

func sortBuffer(entries []record.Entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
}

// fill appends decoded entries from r to buf up to its capacity, each with
// a payload of its own; it stops short only at the end of the input.
func (s *Sorter) fill(r *record.Reader, buf []record.Entry) ([]record.Entry, error) {
	for len(buf) < cap(buf) {
		e, err := r.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
		buf = append(buf, e)
	}
	return buf, nil
}

// sortRunsSerial is the classic phase 1: fill one bounded buffer, sort it,
// write it out, repeat. Like sortRunsParallel it returns the runs it wrote
// even when it fails, for Sort to remove.
func (s *Sorter) sortRunsSerial(reader *record.Reader, bufEntries int) (runs []Input, err error) {
	entries := make([]record.Entry, 0, bufEntries)
	for {
		if entries, err = s.fill(reader, entries[:0]); err != nil || len(entries) == 0 {
			return runs, err
		}
		sortBuffer(entries)
		name := s.tmpName(0, len(runs))
		if err := s.write(name, entries, Output{}); err != nil {
			return runs, err
		}
		runs = append(runs, Input{Name: name, Count: int64(len(entries))})
	}
}

// sortRunsParallel is phase 1 as a three-stage pipeline: this goroutine
// streams the input and batches entries, workers sort batches, and a writer
// goroutine streams completed runs to disk strictly in batch order, so
// sorting CPU overlaps run-writing I/O and the write stream stays
// single-headed.
func (s *Sorter) sortRunsParallel(reader *record.Reader, bufEntries, workers int) ([]Input, error) {
	type batch struct {
		idx     int
		entries []record.Entry
	}
	sortCh := make(chan batch, workers)
	writeCh := make(chan batch, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for b := range sortCh {
				sortBuffer(b.entries)
				writeCh <- b
			}
		}()
	}
	var (
		runs      []Input
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
					if err := s.write(name, entries, Output{}); err != nil {
						writerErr = err
					} else {
						runs = append(runs, Input{Name: name, Count: int64(len(entries))})
					}
				}
				next++
			}
		}
	}()
	var readErr error
	for idx := 0; ; idx++ {
		var entries []record.Entry
		entries, readErr = s.fill(reader, make([]record.Entry, 0, bufEntries))
		if readErr != nil || len(entries) == 0 {
			break
		}
		sortCh <- batch{idx: idx, entries: entries}
	}
	close(sortCh)
	wg.Wait()
	close(writeCh)
	<-writerDn
	if readErr != nil {
		return runs, readErr
	}
	return runs, writerErr
}

// Input names one sorted entry file: a phase-1 run of Sort, a CLSM run, a
// BTP partition. Count is its entry count (files carry no header); Packed
// says its pages use the packed encoding, which older builds wrote, rather
// than fixed-size records.
type Input struct {
	Name   string
	Count  int64
	Packed bool
}

// Observer sees every entry Sort, WriteRun or Merge appends to its output, in
// file order and after the append has succeeded, with whether the entry is
// the first of a page. It is how the owner of a sorted file derives what it
// keeps about the file — statistics, resident summaries, a leaf directory —
// from the one pass that writes it. The entry's payload is only valid during
// the call.
type Observer func(e record.Entry, pageStart bool)

// entryWriter is a record.Writer into a new file as an Output describes it,
// which tells the Output's observer of every entry. A failed append or
// close removes the partial file: nothing references it, and it would
// otherwise sit on the disk, counted in TotalPages.
type entryWriter struct {
	*record.Writer
	s    *Sorter
	name string
	obs  Observer // nil: nobody watches
}

// create makes the file (which must not exist) with a write-behind buffer
// of chunkPages pages (record.Layout.StreamPages).
func (s *Sorter) create(name string, out Output, chunkPages int) (*entryWriter, error) {
	l, err := record.NewLayout(s.Codec, s.Disk.PageSize(), false)
	if err != nil {
		return nil, err
	}
	w, err := l.Create(s.Disk, name, out.Fill, chunkPages)
	if err != nil {
		return nil, err
	}
	return &entryWriter{Writer: w, s: s, name: name, obs: out.Observer}, nil
}

// write appends one entry and tells the observer.
func (w *entryWriter) write(e record.Entry) error {
	pageStart, err := w.Write(e)
	if err == nil && w.obs != nil {
		w.obs(e, pageStart)
	}
	return err
}

// finish closes the file when err is nil; on any failure — the caller's err
// or the close's own — it removes the partial file and returns the error.
func (w *entryWriter) finish(err error) error {
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		_ = w.s.Disk.Remove(w.name) // best effort: err is what the caller must see
	}
	return err
}

// WriteRun writes entries, already in (Key, ID) order, to a new file as the
// sorter's Output describes it.
func (s *Sorter) WriteRun(name string, entries []record.Entry) error {
	return s.write(name, entries, s.Output)
}

func (s *Sorter) write(name string, entries []record.Entry, out Output) error {
	w, err := s.create(name, out, storage.DefaultBufferPages)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err = w.write(e); err != nil {
			break
		}
	}
	return w.finish(err)
}

// Merge k-way merges already-sorted entry files, in any mix of encodings,
// into one new fixed-size sorted file as the sorter's Output describes it,
// under the sorter's full memory budget. Inputs are left intact. Returns the
// merged entry count.
func (s *Sorter) Merge(inputs []Input, output string) (int64, error) {
	return s.merge(inputs, output, s.Output, s.MemBudget)
}

// merge is the one k-way merge body. The memory budget (a share of
// MemBudget when Sort's merge groups run concurrently) is split into
// per-input read-ahead buffers plus a write-behind buffer, so each stream
// moves the head once per chunk — the I/O discipline that makes external
// merging sequential (packed streams keep their own fixed chunk, see
// record.Layout.StreamPages). A source holds one entry at a time, written
// before the source advances, so each decodes every payload into the
// buffer of the entry before: the loop allocates nothing per entry.
func (s *Sorter) merge(inputs []Input, output string, out Output, budget int) (int64, error) {
	bufPages := max(1, budget/s.Disk.PageSize()/(len(inputs)+1))
	w, err := s.create(output, out, bufPages)
	if err != nil {
		return 0, err
	}
	srcs := make([]*mergeSource, len(inputs))
	for i, in := range inputs {
		src, err := s.open(in, bufPages)
		if err != nil {
			return 0, w.finish(err)
		}
		srcs[i] = &mergeSource{src: src, idx: i}
	}
	total, err := mergeLoop(srcs, w.write)
	return total, w.finish(err)
}

// open returns a sequential entry reader over one sorted input file, read
// ahead width pages at a time (record.Layout.StreamPages).
func (s *Sorter) open(in Input, width int) (*record.Reader, error) {
	l, err := record.NewLayout(s.Codec, s.Disk.PageSize(), in.Packed)
	if err != nil {
		return nil, err
	}
	npages, err := s.Disk.NumPages(in.Name)
	if err != nil {
		return nil, err
	}
	return l.NewReader(storage.ScanChunks(s.Disk, in.Name, 0, npages, l.StreamPages(width)), npages, in.Name, in.Count)
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

type mergeSource struct {
	src *record.Reader
	cur record.Entry
	idx int
}

func (m *mergeSource) advance() (bool, error) {
	e, err := m.src.Next(m.cur.Payload)
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
