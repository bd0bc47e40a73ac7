package flserver

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/plan"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tasks"
)

// watchedClock is a virtual clock that records every timer armed on it. An
// actor arms its windows when it gets to the message, not when the test
// sent it, so a test waits for the timer to be armed before it advances;
// and since a timer fires on the advancing goroutine, "fired at its instant
// and not a nanosecond earlier" is read off the record with no waiting.
type watchedClock struct {
	*simclock.Virtual
	mu     sync.Mutex
	timers []*watchedTimer
}

type watchedTimer struct {
	actor.Timer
	d              time.Duration
	at             time.Time // deadline
	fired, stopped atomic.Bool
}

func newWatchedClock() *watchedClock {
	return &watchedClock{Virtual: simclock.New(simStart)}
}

// AfterFunc implements actor.Clock.
func (c *watchedClock) AfterFunc(d time.Duration, f func()) actor.Timer {
	t := &watchedTimer{d: d, at: c.Now().Add(d)}
	t.Timer = c.Virtual.AfterFunc(d, func() { t.fired.Store(true); f() })
	c.mu.Lock()
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	return t
}

func (t *watchedTimer) Stop() bool {
	t.stopped.Store(true)
	return t.Timer.Stop()
}

// of returns the timers armed so far with duration d, in arming order.
func (c *watchedClock) of(d time.Duration) []*watchedTimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*watchedTimer
	for _, t := range c.timers {
		if t.d == d {
			out = append(out, t)
		}
	}
	return out
}

// armed waits until n timers of duration d have been armed and returns the
// n-th.
func (c *watchedClock) armed(t *testing.T, d time.Duration, n int) *watchedTimer {
	t.Helper()
	var got []*watchedTimer
	waitFor(t, func() bool { got = c.of(d); return len(got) >= n })
	return got[n-1]
}

// expire advances the clock to timer's deadline in two steps and fails the
// test unless it fires on the second: at its instant, not before.
func (c *watchedClock) expire(t *testing.T, what string, timer *watchedTimer) {
	t.Helper()
	c.Advance(timer.at.Sub(c.Now()) - time.Nanosecond)
	if timer.fired.Load() {
		t.Fatalf("%s fired a nanosecond before its %v deadline", what, timer.d)
	}
	c.Advance(time.Nanosecond)
	if !timer.fired.Load() {
		t.Fatalf("%s did not fire at its %v deadline (stopped: %v)", what, timer.d, timer.stopped.Load())
	}
}

// fastForward runs clock at twenty times the wall clock's pace until the
// test ends: for tests whose devices and windows wait on it while the test
// waits on their progress.
func fastForward(t *testing.T, clock *simclock.Virtual) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for last := time.Now(); ; {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				clock.Advance(20 * now.Sub(last))
				last = now
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
}

// TestFleetStampsTasksOnItsClock: the fleet's clock is the one its task sets
// are stamped with — a task seeded at registration and one submitted to the
// live Coordinator later both record the virtual time, not the wall's.
func TestFleetStampsTasksOnItsClock(t *testing.T) {
	clock := simclock.New(simStart)
	f := NewFleet(FleetConfig{Clock: clock})
	defer f.Close()
	if err := f.Register(PopulationSpec{Population: "pop", Plans: []*plan.Plan{testPlan(t, 4, false)}, Store: storage.NewMem()}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	if err := f.SubmitTask("pop", testEvalPlan(t, 4), tasks.Policy{}); err != nil {
		t.Fatal(err)
	}
	sts, err := f.TaskStats("pop")
	if err != nil || len(sts) != 2 {
		t.Fatalf("task stats: %+v, %v", sts, err)
	}
	if !sts[0].SubmittedAt.Equal(simStart) || !sts[1].SubmittedAt.Equal(simStart.Add(time.Hour)) {
		t.Fatalf("submitted at %v and %v, want the fleet's clock: %v and an hour later", sts[0].SubmittedAt, sts[1].SubmittedAt, simStart)
	}
}
