package simclock

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Go implements Clock: fn counts as running until it returns, unless parked.
func (v *Virtual) Go(fn func()) {
	v.add(1, -1)
	go func() {
		defer v.add(-1, 1)
		defer track(v)()
		fn()
	}()
}

// track records the calling goroutine as v's until the func it returns runs,
// and owns reports whether goroutine id may be v's: any a Virtual's Go
// started, but under the race detector (race.go) only v's own.
var (
	track = func(*Virtual) func() { return func() {} }
	owns  = func(v *Virtual, id string) bool { return true }
)

func (v *Virtual) park(n int) { v.add(0, n) }

// Lend implements Clock.
func (v *Virtual) Lend(n int) { v.loans.Add(int64(n)) }

// Loans counts the loans lent on the clock that are not back.
func (v *Virtual) Loans() int { return int(v.loans.Load()) }

// add adds live goroutines to the rig and takes parked ones off the running.
func (v *Virtual) add(live, parked int) {
	v.mu.Lock()
	v.live += live
	if v.running -= parked; v.running == 0 {
		v.idle.Broadcast()
	}
	v.mu.Unlock()
}

// Goroutines counts the goroutines Go started that have not returned.
func (v *Virtual) Goroutines() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.live
}

// A Gate is a sync.Cond whose waiters park on their clocks: a Virtual clock
// counts a waiting goroutine idle, and the Broadcast that wakes it counts it
// running again before it returns — a wake is a hand-off, so a rig is never
// idle while a woken goroutine has yet to run. Hold the gate's lock around
// the condition, the Wait and the change that broadcasts. Closing a gate,
// for good, ends every Sleep on it. The zero value is ready to use.
type Gate struct {
	sync.Mutex
	cond    sync.Cond
	waiting []Clock // each waiter's
	closed  bool
	// sleepers are the own gates of the Sleeps on this one, closed with it.
	sleepers map[*Gate]struct{}
}

// Wait parks the calling goroutine, which holds g's lock and runs on c,
// until the next Broadcast.
func (g *Gate) Wait(c Clock) {
	g.cond.L = &g.Mutex
	g.waiting = append(g.waiting, c)
	c.park(1)
	g.cond.Wait()
}

// Broadcast hands every goroutine waiting at g back to the running.
func (g *Gate) Broadcast() {
	for _, c := range g.waiting {
		c.park(-1)
	}
	g.waiting = g.waiting[:0]
	g.cond.Broadcast()
}

// Close closes g and wakes every goroutine waiting at it, every Sleep on it
// included.
func (g *Gate) Close() {
	g.Lock()
	g.closed = true
	g.Broadcast()
	sleepers := g.sleepers
	g.sleepers = nil
	g.Unlock()
	for s := range sleepers {
		s.Close()
	}
}

// A Queue is a bounded FIFO whose readers and writers wait at one gate,
// each parked on its own clock: Push waits while it is full, Pop while it is
// empty, and both give up once it is closed — Pop only after taking what was
// left. Its ring starts empty and doubles up to the capacity, so an idle
// queue costs no slots.
type Queue[T any] struct {
	gate         Gate
	items        []T // a ring
	head, n, cap int
}

// NewQueue returns an empty queue of the given capacity.
func NewQueue[T any](capacity int) *Queue[T] { return &Queue[T]{cap: capacity} }

// Push appends v, waiting on c for room (a nil c never waits), and reports
// whether v went in: never once the queue is closed, nor when it is full and
// c is nil.
func (q *Queue[T]) Push(v T, c Clock) bool {
	q.gate.Lock()
	defer q.gate.Unlock()
	for c != nil && q.n == q.cap && !q.gate.closed {
		q.gate.Wait(c)
	}
	if q.gate.closed || q.n == q.cap {
		return false
	}
	if q.n == len(q.items) { // grow, unwrapping the ring
		items := append(make([]T, 0, min(max(2*q.n, 4), q.cap)), q.items[q.head:]...)
		q.items, q.head = append(items, q.items[:q.head]...)[:cap(items)], 0
	}
	q.items[(q.head+q.n)%len(q.items)] = v
	q.n++
	q.gate.Broadcast()
	return true
}

// Pop takes the oldest item, waiting on c while the queue is empty and open;
// ok is false once it is closed and drained.
func (q *Queue[T]) Pop(c Clock) (v T, ok bool) {
	q.gate.Lock()
	defer q.gate.Unlock()
	for q.n == 0 && !q.gate.closed {
		q.gate.Wait(c)
	}
	if q.n == 0 {
		return v, false
	}
	v, q.items[q.head] = q.items[q.head], v
	q.head, q.n = (q.head+1)%len(q.items), q.n-1
	q.gate.Broadcast()
	return v, true
}

// Close fails every later Push and wakes every waiter.
func (q *Queue[T]) Close() { q.gate.Close() }

// Retire closes q, drops what it holds and returns its ring, for Reuse by a
// queue that would otherwise grow one of its own.
func (q *Queue[T]) Retire() []T {
	q.Close()
	q.gate.Lock()
	defer q.gate.Unlock()
	ring := q.items
	clear(ring)
	q.items, q.head, q.n = nil, 0, 0
	return ring
}

// Reuse gives q, new and of a retired queue's capacity, that queue's ring.
func (q *Queue[T]) Reuse(ring []T) { q.items = ring }

// Sleep parks the caller until d has passed on c or g (nil: none) is
// closed, and reports whether d passed. The caller parks at a gate of its
// own, so an expiry wakes only its own sleeper, however many rest on g.
func Sleep(c Clock, d time.Duration, g *Gate) bool {
	own := new(Gate)
	if g != nil {
		g.Lock()
		if g.closed {
			g.Unlock()
			return false
		}
		if g.sleepers == nil {
			g.sleepers = make(map[*Gate]struct{})
		}
		g.sleepers[own] = struct{}{}
		g.Unlock()
		defer func() {
			g.Lock()
			delete(g.sleepers, own)
			g.Unlock()
		}()
	}
	own.Lock()
	defer own.Unlock()
	passed := false
	t := c.AfterFunc(d, func() {
		own.Lock()
		passed = true
		own.Broadcast()
		own.Unlock()
	})
	for !passed && !own.closed {
		own.Wait(c)
	}
	t.Stop()
	return passed
}

var (
	// ErrHorizon is Run's answer when its condition did not hold by the
	// horizon.
	ErrHorizon = errors.New("simclock: horizon reached")
	// ErrDeadlock is Run's answer when nothing can ever run again.
	ErrDeadlock = errors.New("simclock: deadlock")
)

// Run drives the rig from the calling goroutine, which Go did not start:
// each time every goroutine of the rig is parked and done() is false, it
// fires the next timer on a goroutine of the rig. It returns nil once done()
// holds (a nil done never does); ErrHorizon, with the clock at the horizon,
// when the next timer lies beyond it; and an ErrDeadlock naming every parked
// goroutine's wait site when no timer is armed at all.
func (v *Virtual) Run(horizon time.Duration, done func() bool) error {
	end := v.Now().Add(horizon)
	for {
		v.settle()
		if done != nil && done() {
			return nil
		}
		// done may have stirred the rig: a stats query is a message.
		if err := verifyIdle(v, v.settle()); err != nil {
			return err
		}
		v.mu.Lock()
		e, armed := v.next(end), len(v.queue) > 0
		v.mu.Unlock()
		switch {
		case e != nil:
			v.Go(e.fn)
		case !armed:
			return fmt.Errorf("%w: no timer armed, every goroutine parked:\n%s", ErrDeadlock, strings.Join(waitSites(v, nil), ""))
		default:
			return ErrHorizon
		}
	}
}

// settle waits until every goroutine of the rig is parked and returns the
// running count: zero, or negative where a wake skipped its hand-off.
func (v *Virtual) settle() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.running > 0 {
		v.idle.Wait()
	}
	return v.running
}

// verifyIdle checks an idle declaration of v under the race detector (race.go).
var verifyIdle = func(v *Virtual, running int) error { return nil }

// waitSites lists, from one stack dump, the goroutines v's Go started whose
// state keep accepts (nil: all), each by its state and its wait site: the
// innermost two frames outside the runtime, sync and this package, as
// "function (file:line)".
func waitSites(v *Virtual, keep func(state string) bool) []string {
	buf := make([]byte, max(stackSize.Load(), 1<<16)) // one dump, not one per doubling
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	stackSize.Store(int64(len(buf)))
	var sites []string
	for _, block := range strings.Split(string(buf[:n]), "\n\n") {
		id, state, _ := strings.Cut(strings.TrimPrefix(block, "goroutine "), " [")
		state, _, _ = strings.Cut(state, "]")
		if state, _, _ = strings.Cut(state, ","); keep != nil && !keep(state) || !owns(v, id) ||
			!strings.Contains(block, "\ncreated by repro/internal/simclock.(*Virtual).Go") {
			continue
		}
		lines := strings.Split(block, "\n")
		var frames []string
		for i := 1; i+1 < len(lines) && len(frames) < 2; i += 2 {
			fn := lines[i][:strings.LastIndex(lines[i], "(")]
			loc, _, _ := strings.Cut(strings.TrimSpace(lines[i+1]), " ")
			if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "sync.") &&
				!strings.HasPrefix(fn, "repro/internal/simclock.") && !strings.HasPrefix(fn, "created by ") {
				frames = append(frames, fmt.Sprintf("%s (%s)", fn[strings.LastIndex(fn, "/")+1:], filepath.Base(loc)))
			}
		}
		sites = append(sites, fmt.Sprintf("  [%s] %s\n", state, strings.Join(frames, " ← ")))
	}
	return sites
}

var stackSize atomic.Int64 // the last dump's buffer size
