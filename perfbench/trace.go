package main

import (
	"sort"
	"time"
)

// span is one timed call the benchmark makes into a layer. Times are
// nanoseconds since the traced round began.
type span struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled when the spans are written
}

// tracer keeps the spans of one traced round in memory. A nil
// tracer records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	cell   int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Cell: t.cell, Parent: parent,
		Start: time.Since(t.origin).Nanoseconds()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.origin).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// startCell opens the span of cell id; spans begun until endCell carry
// the id.
func (t *tracer) startCell(id int) int {
	if t == nil {
		return -1
	}
	t.cell = id
	return t.begin("cell")
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cur := s.Start // end of the covered prefix
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cur), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotal is the count, summed duration and summed self time of the
// spans of one name.
type spanTotal struct {
	Count  int   `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"`
}

// spanTotals sums the spans by name.
func spanTotals(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.SelfNs += self[i]
		out[s.Name] = t
	}
	return out
}
