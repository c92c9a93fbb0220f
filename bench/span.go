package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Parent is the ID of the span that caused it
// (0 only for a workload's root span); spans of one request share Req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end return at once and allocate nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID (0 when untraced).
func (t *tracer) begin(parent int32, name string, req int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (children may overlap each other
// when they ran concurrently, so the covered part is the union).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// writeSpans writes the spans and their per-name self times as one JSON
// document.
func writeSpans(path string, spans []span) error {
	doc := struct {
		Spans  []span           `json:"spans"`
		SelfNS map[string]int64 `json:"self_ns"`
	}{spans, selfTimes(spans)}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
