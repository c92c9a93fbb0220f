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
// about its file from the Observer of that one pass. How entries are laid
// into pages, and read back, is internal/record's: a record.Layout's Writer
// and Reader.
package extsort

import (
	"cmp"
	"container/heap"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/parallel"
	"repro/internal/record"
	"repro/internal/sortable"
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
		b := s.newRunBuffer(int(count))
		if err := b.fill(reader); err != nil {
			return 0, err
		}
		b.sort()
		return 0, s.writeBuffer(output, b, s.Output)
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

// runBuffer is phase 1's working memory: whole records, in input order, in
// one arena, and the index that sorts them, which moves a slot of key, ID
// and offset instead of a record. Nothing in phase 1 decodes a payload.
type runBuffer struct {
	arena []byte
	index []slot
	size  int // bytes per record
}

// slot is one buffered record: its (Key, ID) order, and where it starts in
// the arena.
type slot struct {
	key sortable.Key
	id  int64
	off int
}

// newRunBuffer returns an empty buffer with room for entries records.
func (s *Sorter) newRunBuffer(entries int) *runBuffer {
	size := s.Codec.Size()
	return &runBuffer{arena: make([]byte, 0, entries*size), index: make([]slot, 0, entries), size: size}
}

// fill empties the buffer and reads records from r into it until it is
// full; it stops short only at the end of the input.
func (b *runBuffer) fill(r *record.Reader) error {
	b.arena, b.index = b.arena[:0], b.index[:0]
	for len(b.index) < cap(b.index) {
		rec, err := r.NextRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		b.index = append(b.index, slot{key: rec.Key(), id: rec.ID(), off: len(b.arena)})
		b.arena = append(b.arena, rec...)
	}
	return nil
}

// sort orders the index by (Key, ID).
func (b *runBuffer) sort() {
	slices.SortFunc(b.index, func(x, y slot) int {
		if c := x.key.Compare(y.key); c != 0 {
			return c
		}
		return cmp.Compare(x.id, y.id)
	})
}

// writeBuffer writes the buffered records, in the index's order, to a new
// file as out describes it.
func (s *Sorter) writeBuffer(name string, b *runBuffer, out Output) error {
	w, err := s.create(name, out, storage.DefaultBufferPages)
	if err != nil {
		return err
	}
	for _, sl := range b.index {
		if err = w.write(sl.key, sl.id, b.arena[sl.off:sl.off+b.size]); err != nil {
			break
		}
	}
	return w.finish(err)
}

// sortRunsSerial is the classic phase 1: fill one bounded buffer, sort it,
// write it out, repeat. Like sortRunsParallel it returns the runs it wrote
// even when it fails, for Sort to remove.
func (s *Sorter) sortRunsSerial(reader *record.Reader, bufEntries int) (runs []Input, err error) {
	b := s.newRunBuffer(bufEntries)
	for {
		if err = b.fill(reader); err != nil || len(b.index) == 0 {
			return runs, err
		}
		b.sort()
		name := s.tmpName(0, len(runs))
		if err := s.writeBuffer(name, b, Output{}); err != nil {
			return runs, err
		}
		runs = append(runs, Input{Name: name, Count: int64(len(b.index))})
	}
}

// sortRunsParallel is phase 1 as a three-stage pipeline: this goroutine
// streams the input and batches records, workers sort batches, and a writer
// goroutine streams completed runs to disk strictly in batch order, so
// sorting CPU overlaps run-writing I/O and the write stream stays
// single-headed.
func (s *Sorter) sortRunsParallel(reader *record.Reader, bufEntries, workers int) ([]Input, error) {
	type batch struct {
		idx int
		buf *runBuffer
	}
	sortCh := make(chan batch, workers)
	writeCh := make(chan batch, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for b := range sortCh {
				b.buf.sort()
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
		pending := make(map[int]*runBuffer)
		next := 0
		for b := range writeCh {
			pending[b.idx] = b.buf
			for buf, ok := pending[next]; ok; buf, ok = pending[next] {
				delete(pending, next)
				if writerErr == nil {
					name := s.tmpName(0, next)
					if err := s.writeBuffer(name, buf, Output{}); err != nil {
						writerErr = err
					} else {
						runs = append(runs, Input{Name: name, Count: int64(len(buf.index))})
					}
				}
				next++
			}
		}
	}()
	var readErr error
	for idx := 0; ; idx++ {
		buf := s.newRunBuffer(bufEntries)
		if readErr = buf.fill(reader); readErr != nil || len(buf.index) == 0 {
			break
		}
		sortCh <- batch{idx: idx, buf: buf}
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
// BTP partition. Count is its entry count (files carry no header).
type Input struct {
	Name  string
	Count int64
}

// Observer sees every entry Sort, WriteRun or Merge appends to its output, in
// file order and after the append has succeeded, by its key, ID and
// timestamp, with whether the entry is the first of a page. It is how the
// owner of a sorted file derives what it keeps about the file — statistics,
// resident summaries, a leaf directory — from the one pass that writes it.
type Observer func(key sortable.Key, id, ts int64, pageStart bool)

// recordWriter is a record.Writer into a new file as an Output describes
// it, which tells the Output's observer of every entry. A failed append or
// close removes the partial file: nothing references it, and it would
// otherwise sit on the disk, counted in TotalPages.
type recordWriter struct {
	*record.Writer
	s    *Sorter
	name string
	obs  Observer // nil: nobody watches
}

// create makes the file (which must not exist) with a write-behind buffer
// of chunkPages pages.
func (s *Sorter) create(name string, out Output, chunkPages int) (*recordWriter, error) {
	l, err := record.NewLayout(s.Codec, s.Disk.PageSize())
	if err != nil {
		return nil, err
	}
	w, err := l.Create(s.Disk, name, out.Fill, chunkPages)
	if err != nil {
		return nil, err
	}
	return &recordWriter{Writer: w, s: s, name: name, obs: out.Observer}, nil
}

// write appends one record, whose key and ID the caller has read, and tells
// the observer.
func (w *recordWriter) write(key sortable.Key, id int64, rec record.Record) error {
	pageStart, err := w.WriteRecord(rec)
	if err == nil && w.obs != nil {
		w.obs(key, id, rec.TS(), pageStart)
	}
	return err
}

// finish closes the file when err is nil; on any failure — the caller's err
// or the close's own — it removes the partial file and returns the error.
func (w *recordWriter) finish(err error) error {
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
	w, err := s.create(name, s.Output, storage.DefaultBufferPages)
	if err != nil {
		return err
	}
	for _, e := range entries {
		var pageStart bool
		if pageStart, err = w.Write(e); err != nil {
			break
		}
		if w.obs != nil {
			w.obs(e.Key, e.ID, e.TS, pageStart)
		}
	}
	return w.finish(err)
}

// Merge k-way merges already-sorted entry files into one new sorted file as
// the sorter's Output describes it,
// under the sorter's full memory budget. Inputs are left intact. Returns the
// merged entry count.
func (s *Sorter) Merge(inputs []Input, output string) (int64, error) {
	return s.merge(inputs, output, s.Output, s.MemBudget)
}

// merge is the one k-way merge body. The memory budget (a share of
// MemBudget when Sort's merge groups run concurrently) is split into
// per-input read-ahead buffers plus a write-behind buffer, so each stream
// moves the head once per chunk — the I/O discipline that makes external
// merging sequential. A source holds one record at a time, written
// before the source advances, so records move from page to page verbatim:
// the loop decodes no payload and allocates nothing per entry.
func (s *Sorter) merge(inputs []Input, output string, out Output, budget int) (int64, error) {
	bufPages := max(1, budget/s.Disk.PageSize()/(len(inputs)+1))
	w, err := s.create(output, out, bufPages)
	if err != nil {
		return 0, err
	}
	h := &mergeHeap{items: make([]*source, 0, len(inputs))}
	for i, in := range inputs {
		r, err := s.open(in, bufPages)
		if err != nil {
			return 0, w.finish(err)
		}
		src := &source{r: r, idx: i}
		ok, err := src.advance()
		if err != nil {
			return 0, w.finish(err)
		}
		if ok {
			h.items = append(h.items, src)
		}
	}
	total, err := h.drain(w.write)
	return total, w.finish(err)
}

// open returns a sequential entry reader over one sorted input file, read
// ahead width pages at a time.
func (s *Sorter) open(in Input, width int) (*record.Reader, error) {
	l, err := record.NewLayout(s.Codec, s.Disk.PageSize())
	if err != nil {
		return nil, err
	}
	npages, err := s.Disk.NumPages(in.Name)
	if err != nil {
		return nil, err
	}
	return l.NewReader(storage.ScanChunks(s.Disk, in.Name, 0, npages, width), npages, in.Name, in.Count)
}

// source is one input of a merge: its reader, and the record it holds with
// that record's key and ID.
type source struct {
	r   *record.Reader
	key sortable.Key
	id  int64
	rec record.Record
	idx int
}

// advance moves the source to its next record, and reports whether it had
// one.
func (m *source) advance() (bool, error) {
	rec, err := m.r.NextRecord()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	m.key, m.id, m.rec = rec.Key(), rec.ID(), rec
	return true, nil
}

// mergeHeap is the tournament over the sources' current records, in
// (Key, ID) order and, between equal records, in input order.
type mergeHeap struct {
	items []*source
}

// drain writes every record of every source through the heap in order,
// and returns the count.
func (h *mergeHeap) drain(write func(sortable.Key, int64, record.Record) error) (int64, error) {
	heap.Init(h)
	var total int64
	for h.Len() > 0 {
		src := h.items[0]
		if err := write(src.key, src.id, src.rec); err != nil {
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

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if c := a.key.Compare(b.key); c != 0 {
		return c < 0
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.idx < b.idx // stable across sources
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(*source)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
