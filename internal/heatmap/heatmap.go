// Package heatmap records page-access traces from the storage layer and
// renders them as heat maps — the demo's access-pattern visualization that
// "allows users to appreciate how the structural properties of an index
// affect query performance". The recorder implements storage.Tracer; the
// renderer produces an ASCII map (for the CLI) and a JSON-friendly matrix
// (for the REST server).
package heatmap

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Recorder accumulates per-page access counts by file and, online, the jump
// statistics of the chronological trace, so what it retains is bounded by
// the pages it has seen, not by how often. It is safe for concurrent use and
// implements storage.Tracer.
type Recorder struct {
	mu    sync.Mutex
	files map[string]map[int64]int // file -> page -> count
	trace trace
}

// trace is the running summary of the chronological trace.
type trace struct {
	accesses, writes int
	prevFile         string // the previous access, when accesses > 0
	prevPage         int64
	fileSwaps, seq   int
	jumpSum          float64
	jumpN            int
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{files: make(map[string]map[int64]int)}
}

// Access implements storage.Tracer.
func (r *Recorder) Access(file string, page int64, write bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.files[file]
	if !ok {
		m = make(map[int64]int)
		r.files[file] = m
	}
	m[page]++
	t := &r.trace
	if write {
		t.writes++
	}
	switch {
	case t.accesses == 0:
	case t.prevFile != file:
		t.fileSwaps++
	default:
		d := page - t.prevPage
		if d == 0 || d == 1 {
			t.seq++
		}
		if d < 0 {
			d = -d
		}
		t.jumpSum += float64(d)
		t.jumpN++
	}
	t.accesses++
	t.prevFile, t.prevPage = file, page
}

// Reset discards all recorded accesses.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.files = make(map[string]map[int64]int)
	r.trace = trace{}
}

// Files returns the traced file names, sorted.
func (r *Recorder) Files() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.files))
	for f := range r.files {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Total returns the total number of recorded accesses.
func (r *Recorder) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.accesses
}

// Map is a rendered heat map: access counts bucketed over the page space of
// one file (or all files concatenated).
type Map struct {
	File    string `json:"file"`
	Buckets []int  `json:"buckets"` // access count per bucket
	Pages   int64  `json:"pages"`   // page span covered
	Max     int    `json:"max"`     // hottest bucket count
}

// Render buckets the accesses of one file into `buckets` cells spanning
// pages [0, maxPage]. Cell i covers pages [i*span, (i+1)*span).
func (r *Recorder) Render(file string, buckets int) Map {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := Map{File: file}
	counts := r.files[file]
	if len(counts) == 0 || buckets < 1 {
		m.Buckets = make([]int, max(1, buckets))
		return m
	}
	var maxPage int64
	for p := range counts {
		if p > maxPage {
			maxPage = p
		}
	}
	m.Pages = maxPage + 1
	m.Buckets = make([]int, buckets)
	span := float64(m.Pages) / float64(buckets)
	for p, c := range counts {
		b := int(float64(p) / span)
		if b >= buckets {
			b = buckets - 1
		}
		m.Buckets[b] += c
	}
	for _, c := range m.Buckets {
		if c > m.Max {
			m.Max = c
		}
	}
	return m
}

// shades orders ASCII intensity levels from cold to hot.
const shades = " .:-=+*#%@"

// ASCII renders the map as one line of intensity characters plus a legend.
func (m Map) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s |", m.File)
	for _, c := range m.Buckets {
		if m.Max == 0 {
			b.WriteByte(' ')
			continue
		}
		idx := c * (len(shades) - 1) / m.Max
		b.WriteByte(shades[idx])
	}
	fmt.Fprintf(&b, "| %d pages, max %d hits/bucket", m.Pages, m.Max)
	return b.String()
}

// JumpStats summarize the chronological trace: how far the head moved
// between consecutive accesses. Contiguous layouts show short jumps.
type JumpStats struct {
	Accesses   int     `json:"accesses"`
	FileSwaps  int     `json:"file_swaps"`  // consecutive accesses on different files
	AvgJump    float64 `json:"avg_jump"`    // mean |page delta| within a file
	SeqFrac    float64 `json:"seq_frac"`    // fraction of accesses at delta 0 or +1
	WriteShare float64 `json:"write_share"` // fraction of accesses that were writes
}

// Jumps returns the JumpStats of the chronological trace so far.
func (r *Recorder) Jumps() JumpStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.trace
	s := JumpStats{Accesses: t.accesses, FileSwaps: t.fileSwaps}
	if s.Accesses == 0 {
		return s
	}
	if t.jumpN > 0 {
		s.AvgJump = t.jumpSum / float64(t.jumpN)
	}
	s.SeqFrac = float64(t.seq) / float64(s.Accesses-1)
	s.WriteShare = float64(t.writes) / float64(s.Accesses)
	return s
}

// RenderAll renders every traced file, sorted by name.
func (r *Recorder) RenderAll(buckets int) []Map {
	files := r.Files()
	out := make([]Map, 0, len(files))
	for _, f := range files {
		out = append(out, r.Render(f, buckets))
	}
	return out
}
