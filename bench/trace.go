package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// functions. Times are nanoseconds since the tracer was made; Parent is
// the ID of the span that caused this one (0 = none). All spans of one
// traced run share the tracer's RunID.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	runID string
	base  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, base: time.Now()}
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose start and end were observed elsewhere (the
// coordinator's crash points) and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	return len(t.spans)
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	return t.spans
}

// selfTimes fills in Self for every span: its duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (parallel calls) and may stick out of the parent; covered time is
// the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := p.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		p.Self = (p.End - p.Start) - covered
	}
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string   `json:"workload"`
	RunID    string   `json:"run_id"`
	Host     hostInfo `json:"host"`
	Spans    []span   `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
