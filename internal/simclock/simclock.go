// Package simclock is how time gets into the system: one small Clock, the
// wall implementation every process runs on by default, and the virtual one
// tests and the fleet run behind the operational figures drive. The
// paper's protocol is made of windows and timeouts (Sec. 2.2, 2.3, 4.4) and
// its operational figures cover multi-day spans (Figs. 5–9); on a Virtual
// clock both run at the speed of the CPU.
//
// A Virtual clock is also the executor of a test rig (rig.go): every
// goroutine of the rig starts through Go, and every idle wait parks it at a
// Gate, so Run knows when nothing can run and jumps to the next timer.
package simclock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Clock tells the time, arms timers and starts the goroutines that wait on
// them. Implementations are safe for concurrent use.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f, on a goroutine of the clock's choosing, once d has
	// passed.
	AfterFunc(d time.Duration, f func()) Timer
	// Go runs fn on a new goroutine of the clock's rig.
	Go(fn func())
	// park counts n of the rig's goroutines parked (n < 0: handed back).
	park(n int)
	// Lend counts n loans out on the clock's rig (n < 0: back).
	Lend(n int)
}

// Timer is an armed timer. Stop disarms it and Reset re-arms it for d from
// now; each reports whether the timer was armed, not yet fired.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Wall is package time; it counts nothing.
var Wall Clock = wall{}

// OrWall is the first of clocks that is not nil, else the wall clock.
func OrWall(clocks ...Clock) Clock {
	for _, c := range clocks {
		if c != nil {
			return c
		}
	}
	return Wall
}

type wall struct{}

func (wall) Now() time.Time                            { return time.Now() }
func (wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
func (wall) Go(fn func())                              { go fn() }
func (wall) park(int)                                  {}
func (wall) Lend(int)                                  {}

// Virtual is a discrete-event clock: time moves only in Advance and Run,
// which fire the timers that come due in (time, arming order). Advance runs
// the callbacks on the advancing goroutine with the clock unlocked, so they
// may arm and stop timers.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
	// queue holds the armed timers, a heap keyed by (instant, arming order):
	// a timer armed later never fires before one due at the same instant.
	// A rig resting a device swarm arms one timer per device (tens of
	// thousands), so arming and stopping are O(log n).
	queue timerHeap
	armed uint64 // timers armed so far: the next one's arming order
	// live counts the goroutines Go started that have not returned, running
	// those not parked; idle is signalled when running reaches zero.
	live, running int
	idle          sync.Cond
	loans         atomic.Int64 // lent on this clock and not back
}

type event struct {
	v   *Virtual
	at  time.Time
	seq uint64
	i   int // index in v.queue; -1 once fired or stopped
	fn  func()
}

// timerHeap implements heap.Interface over the armed timers.
type timerHeap []*event

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	return h[i].at.Before(h[j].at) || h[i].at.Equal(h[j].at) && h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].i, h[j].i = i, j
}
func (h *timerHeap) Push(x any) {
	e := x.(*event)
	e.i = len(*h)
	*h = append(*h, e)
}
func (h *timerHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	e.i = -1
	return e
}

// New returns a virtual clock standing at start.
func New(start time.Time) *Virtual {
	v := &Virtual{now: start}
	v.idle.L = &v.mu
	return v
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// AfterFunc implements Clock. A negative delay is treated as zero.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	e := &event{v: v, i: -1, fn: f}
	e.Reset(d)
	return e
}

// Stop implements Timer.
func (e *event) Stop() bool {
	e.v.mu.Lock()
	defer e.v.mu.Unlock()
	if e.i < 0 {
		return false
	}
	heap.Remove(&e.v.queue, e.i)
	return true
}

// Reset implements Timer: armed anew, behind the timers due at its instant.
func (e *event) Reset(d time.Duration) bool {
	armed, v := e.Stop(), e.v
	v.mu.Lock()
	defer v.mu.Unlock()
	v.armed++
	e.at, e.seq = v.now.Add(max(d, 0)), v.armed
	heap.Push(&v.queue, e)
	return armed
}

// Advance moves the clock forward by d, firing every timer that comes due
// on the way (those armed by the callbacks included) at its own instant, and
// returns how many fired.
func (v *Virtual) Advance(d time.Duration) int {
	v.mu.Lock()
	end := v.now.Add(d)
	fired := 0
	for e := v.next(end); e != nil; e = v.next(end) {
		v.mu.Unlock()
		e.fn()
		fired++
		v.mu.Lock()
	}
	v.mu.Unlock()
	return fired
}

// next takes the first timer due by end off the queue and moves the clock
// to its instant — or, with none due, to end and returns nil. v.mu is held.
func (v *Virtual) next(end time.Time) *event {
	if len(v.queue) == 0 || v.queue[0].at.After(end) {
		if v.now.Before(end) {
			v.now = end
		}
		return nil
	}
	e := heap.Pop(&v.queue).(*event)
	if e.at.After(v.now) {
		v.now = e.at
	}
	return e
}
