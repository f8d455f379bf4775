package main

import (
	"time"

	"corep/internal/obs"
)

// spanClock gives the program's I/O-only spans wall-clock extents and
// sums each span name's self time: a span's duration minus the part
// covered by its child spans.
//
// obs.Tracer reads its counter source exactly twice per span — once in
// Start and once in End, right before handing the closed span to the
// sink — and spans of one tracer nest in LIFO order. So the source
// pushes a monotonic timestamp on every read, and the sink pops the
// span's end and start stamps off that stack.
type spanClock struct {
	io    obs.Source // the program's counters, set by the target tracing into c
	epoch time.Time
	stamp []int64          // timestamps of source reads not yet matched to a span
	child map[uint64]int64 // summed child durations per open span id
	self  map[string]int64 // self time per span name, in ns
	tr    *obs.Tracer
}

func newSpanClock() *spanClock {
	return &spanClock{
		epoch: time.Now(),
		child: map[uint64]int64{},
		self:  map[string]int64{},
	}
}

// source is the tracer's counter source: the program's I/O counters,
// plus a timestamp pushed on the side.
func (c *spanClock) source() obs.IO {
	c.stamp = append(c.stamp, int64(time.Since(c.epoch)))
	return c.io()
}

// Span implements obs.Sink.
func (c *spanClock) Span(ev *obs.SpanEvent) {
	n := len(c.stamp)
	dur := c.stamp[n-1] - c.stamp[n-2]
	c.stamp = c.stamp[:n-2]
	c.self[ev.Name] += dur - c.child[ev.ID]
	delete(c.child, ev.ID)
	if ev.Parent != 0 {
		c.child[ev.Parent] += dur
	}
}

// Metric implements obs.Sink; the benchmark takes counts from the
// layers' Stats instead.
func (c *spanClock) Metric(obs.MetricPoint) {}

// add records a span the benchmark measured itself around a call into
// the program.
func (c *spanClock) add(name string, ns int64) { c.self[name] += ns }

// tracer returns the obs.Tracer whose spans land in c.
func (c *spanClock) tracer() *obs.Tracer {
	if c.tr == nil {
		c.tr = obs.NewTracer(c.source, c)
	}
	return c.tr
}

// selfUs sums the self time of every span name for which match is
// true, in microseconds.
func (c *spanClock) selfUs(match func(string) bool) float64 {
	var ns int64
	for name, v := range c.self {
		if match(name) {
			ns += v
		}
	}
	return float64(ns) / 1e3
}
