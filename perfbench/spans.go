package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer of the
// program: its name, its interval, the span that caused it (0 for a
// root) and the run it belongs to. Spans of one benchmark run share a
// run id.
type Span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Run    string    `json:"run"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Recorder keeps spans in memory until the benchmark writes them out.
// It is used from one goroutine: the probe calls run in sequence.
type Recorder struct {
	run   string
	spans []Span
}

// NewRecorder returns an empty recorder whose spans carry run id run.
func NewRecorder(run string) *Recorder { return &Recorder{run: run} }

// Start opens a span under parent (0 for a root) and returns its id and
// the function that closes it.
func (r *Recorder) Start(name string, parent int) (id int, end func()) {
	id = len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Name: name, Start: time.Now()})
	return id, func() { r.spans[id-1].End = time.Now() }
}

// Do records fn as a span named name under parent; fn receives the
// span's id so it can open children.
func (r *Recorder) Do(name string, parent int, fn func(id int) error) error {
	id, end := r.Start(name, parent)
	defer end()
	return fn(id)
}

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfTime is each span's duration minus the part of its interval that
// its child spans cover, keyed by span id. Overlapping children are
// merged first, so concurrent children are never counted twice.
func SelfTime(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	open := false
	for _, k := range kids {
		start, end := k.Start, k.End
		if start.Before(parent.Start) {
			start = parent.Start
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if !end.After(start) {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = start, end, true
		case start.After(curEnd):
			total += curEnd.Sub(curStart)
			curStart, curEnd = start, end
		case end.After(curEnd):
			curEnd = end
		}
	}
	if open {
		total += curEnd.Sub(curStart)
	}
	return total
}

// WriteSpans writes spans as JSON lines, one span a line.
func WriteSpans(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
