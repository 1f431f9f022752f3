package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Parent is the enclosing span's ID (-1
// for the root); every span of one op carries the op's name.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one traced pass; they are written
// out only when the run ends. Calls nest strictly (the traced pass is
// single-threaded), so the open spans form a stack.
type tracer struct {
	t0    time.Time
	op    string
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: t.op,
		Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
}

func (t *tracer) end() {
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:n]
}

// do records f as one span named name.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// opSpan records f as the span of one op: every span opened inside it
// is tagged with the op's name.
func (t *tracer) opSpan(op string, f func()) {
	t.op = op
	t.do("op", f)
	t.op = ""
}

// selfTimes sums each span name's self time: its duration minus the
// part covered by its direct children.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

// total returns the summed duration of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) writeJSON(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
