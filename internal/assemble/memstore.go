package assemble

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/series"
)

// MemStore is the in-memory raw store: series are z-normalized once and
// kept in memory, so the accounted I/O isolates index behaviour. Reads are a
// single atomic snapshot load — zero overhead on the verification hot path —
// while appends serialize on a mutex and publish a new slice header (the
// backing array is shared; an append never touches an index a published
// snapshot can see, so readers and the writer never race).
type MemStore struct {
	mu sync.Mutex
	v  atomic.Pointer[[]series.Series]
}

// NewMemStore returns a store holding the z-normalized series of ds at their
// dataset IDs; a nil or empty dataset yields an empty store.
func NewMemStore(ds *series.Dataset) *MemStore {
	m := &MemStore{}
	if ds != nil && ds.Count() > 0 {
		ss := make([]series.Series, ds.Count())
		for i, s := range ds.Values {
			ss[i] = s.ZNormalize()
		}
		m.v.Store(&ss)
	}
	return m
}

// Snapshot returns the series stored so far; the slice must not be mutated.
func (m *MemStore) Snapshot() []series.Series {
	p := m.v.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Get returns the z-normalized series with the given ID.
func (m *MemStore) Get(id int) (series.Series, error) {
	ss := m.Snapshot()
	if id < 0 || id >= len(ss) {
		return nil, fmt.Errorf("assemble: series %d out of range", id)
	}
	return ss[id], nil
}

// Count returns the number of stored series.
func (m *MemStore) Count() int { return len(m.Snapshot()) }

// Append adds one (already z-normalized) series, returning its ID.
func (m *MemStore) Append(s series.Series) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss := append(m.Snapshot(), s)
	m.v.Store(&ss)
	return len(ss) - 1
}

// SetAt places a series at a specific ID, growing as needed — the WAL
// replay path, where IDs arrive with the entries.
func (m *MemStore) SetAt(id int64, s series.Series) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss := m.Snapshot()
	for int64(len(ss)) <= id {
		ss = append(ss, nil)
	}
	ss[id] = s
	m.v.Store(&ss)
}
