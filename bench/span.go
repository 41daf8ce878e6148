package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: name, start and end (seconds since the tracer started), the
// span that caused it (-1 for a root) and the op it belongs to.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time except by the daemon workload, whose clients
// record into private tracers that are merged afterwards.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.now()})
	return id
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	t.spans[id].End = t.now()
	return t.spans[id].dur()
}

// time records fn as one span under parent and returns its duration.
func (t *tracer) time(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent, t.spans[parent].Op)
	fn()
	return t.end(id)
}

// merge appends another tracer's spans (which must share t0), shifting
// their IDs and parent links so the tree stays intact.
func (t *tracer) merge(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span's duration minus the part its direct
// children cover, indexed by span ID.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for id, v := range selfTimes(spans) {
		out[spans[id].Name] += v
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
