package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share Frame;
// Parent is the span that caused this one (-1 for a frame's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Frame   int    `json:"frame"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory from one goroutine. A nil tracer records
// nothing and reads no clock: the untraced run calls the same code.
type tracer struct {
	base  time.Time
	spans []span
	stack []int // open span ids, innermost last
	frame int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Frame: t.frame, Name: name, StartNS: time.Since(t.base).Nanoseconds()})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNS = time.Since(t.base).Nanoseconds()
}

// nextFrame starts a new request: later root spans carry the next frame id.
func (t *tracer) nextFrame() {
	if t != nil {
		t.frame++
	}
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its child spans cover. Overlapping
// children are counted once, and a child is clipped to its parent.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		out[s.Name] += s.EndNS - s.StartNS - covered
	}
	return out
}

// traceFile is the shape of trace.json.
type traceFile struct {
	// Tuples is how many tuples each traced chain carried; divide a
	// self_ns entry by it for a per-tuple figure.
	Tuples int              `json:"tuples"`
	SelfNS map[string]int64 `json:"self_ns"`
	Spans  []span           `json:"spans"`
}

func writeTrace(path string, tuples int, spans []span) error {
	b, err := json.Marshal(traceFile{Tuples: tuples, SelfNS: selfTimes(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
