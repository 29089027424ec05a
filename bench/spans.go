package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one bench-side interval around a call into a layer of the program
// under test. Start and End are seconds since the tracer's epoch; Parent is
// the ID of the span that caused this one (0 for a root) and Req groups the
// spans of one request or repetition.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    int     `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Work counts what crossed the boundary (points, bytes or documents,
	// per Name), recorded where the span is.
	Work float64 `json:"work,omitempty"`
}

// tracer holds spans in memory until the run ends. A nil or disabled tracer
// records nothing, which is how the end-to-end run measures.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil || !t.on {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span with the work it carried.
func (t *tracer) end(id int, work float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Work = work
}

// len returns the number of spans recorded so far.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
	Work  float64 `json:"work,omitempty"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) []layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered(s, children[s.ID])
		lt.Work += s.Work
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum float64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			sum += hi - lo
			edge = hi
		}
	}
	return sum
}

// write stores the spans and their per-layer aggregate as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	if t == nil || !t.on {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := map[string]any{"meta": meta, "layers": selfTimes(spans), "spans": spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
