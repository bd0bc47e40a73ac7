// Package simclock provides a deterministic discrete-event clock. The
// paper's operational figures cover multi-day windows (Figs. 5–9); the
// simulation harness advances this clock through simulated days in
// milliseconds of wall time, with fully reproducible event ordering.
package simclock

import (
	"container/heap"
	"time"
)

// Clock is a discrete-event simulated clock. It is not safe for concurrent
// use: the simulation harness is single-threaded by design, which is what
// makes multi-day experiments deterministic.
type Clock struct {
	now time.Time
	seq uint64
	pq  eventHeap
}

type event struct {
	at  time.Time
	seq uint64 // tie-breaker: schedule order
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// New returns a clock starting at the given time.
func New(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Time { return c.now }

// Schedule runs fn after delay d (events at equal times run in schedule
// order). A negative delay is treated as zero.
func (c *Clock) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.ScheduleAt(c.now.Add(d), fn)
}

// ScheduleAt runs fn at time t; times before now are clamped to now.
func (c *Clock) ScheduleAt(t time.Time, fn func()) {
	if t.Before(c.now) {
		t = c.now
	}
	c.seq++
	heap.Push(&c.pq, &event{at: t, seq: c.seq, fn: fn})
}

// Step executes the next event, advancing time to it. It returns false when
// no events remain.
func (c *Clock) Step() bool {
	if c.pq.Len() == 0 {
		return false
	}
	e := heap.Pop(&c.pq).(*event)
	c.now = e.at
	e.fn()
	return true
}

// RunUntil executes events up to and including time t, then advances the
// clock to t even if no event landed exactly there.
func (c *Clock) RunUntil(t time.Time) {
	for c.pq.Len() > 0 && !c.pq[0].at.After(t) {
		c.Step()
	}
	if c.now.Before(t) {
		c.now = t
	}
}

// Run executes every scheduled event (including ones scheduled while
// running), stopping when the queue is empty or after maxEvents events (a
// guard against runaway self-rescheduling; pass 0 for no limit). It returns
// the number of events executed.
func (c *Clock) Run(maxEvents int) int {
	n := 0
	for c.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}
