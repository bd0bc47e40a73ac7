package flserver

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/data"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tasks"
)

// watchedClock is a virtual clock that records every timer armed on it. An
// actor arms its windows when it gets to the message, not when the test
// sent it, so a test runs the rig until it is idle before it reads the
// record; and since a timer fires on the driving goroutine, "fired at its
// instant and not a nanosecond earlier" is read off the record with no
// waiting.
type watchedClock struct {
	*simclock.Virtual
	mu     sync.Mutex
	timers []*watchedTimer
}

type watchedTimer struct {
	actor.Timer
	resets         atomic.Int32
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

// Reset re-arms the timer, counted: it is still one timer in the record,
// whose d and deadline stay those of its first arming.
func (t *watchedTimer) Reset(d time.Duration) bool {
	t.resets.Add(1)
	return t.Timer.Reset(d)
}

// count is how many timers have been armed so far; a Reset arms none.
func (c *watchedClock) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
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

// until runs the rig until cond holds, failing the test when it deadlocks
// or an hour of virtual time passes first.
func (c *watchedClock) until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if err := c.Run(time.Hour, cond); err != nil {
		t.Fatalf("waiting for %s: %v", what, err)
	}
}

// awaitDone waits for ch to close: a watched clock's rig runs until it has,
// and a rig on the wall clock (its links are sockets) gets a minute.
func awaitDone(t *testing.T, clock actor.Clock, what string, ch <-chan struct{}) {
	t.Helper()
	if c, ok := clock.(*watchedClock); ok {
		c.until(t, what, closed(ch))
		return
	}
	select {
	case <-ch:
	case <-time.After(time.Minute):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// armed runs the rig until it is idle, without letting time pass, and
// returns the n-th timer of duration d armed on it.
func (c *watchedClock) armed(t *testing.T, d time.Duration, n int) *watchedTimer {
	t.Helper()
	var got []*watchedTimer
	if err := c.Run(0, func() bool { got = c.of(d); return len(got) >= n }); err != nil {
		t.Fatalf("%d timer(s) of %v armed once the rig was idle, want %d: %v", len(got), d, n, err)
	}
	return got[n-1]
}

// expire runs the rig to timer's deadline and fails the test unless the
// timer fires, and effect (when not nil) holds, at that instant and not a
// nanosecond before.
func (c *watchedClock) expire(t *testing.T, what string, timer *watchedTimer, effect func() bool) {
	t.Helper()
	early, done := timer.fired.Load, timer.fired.Load
	if effect != nil {
		early = func() bool { return timer.fired.Load() || effect() }
		done = func() bool { return timer.fired.Load() && effect() }
	}
	if err := c.Run(timer.at.Sub(c.Now())-time.Nanosecond, early); !errors.Is(err, simclock.ErrHorizon) {
		t.Fatalf("%s took effect before its %v deadline (%v)", what, timer.d, err)
	}
	if err := c.Run(time.Nanosecond, done); err != nil {
		t.Fatalf("%s did not take effect at its %v deadline (stopped: %v): %v", what, timer.d, timer.stopped.Load(), err)
	}
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

// TestRoundTraceStartsOnTheClock: a round's trace is stamped with the
// instant the round opened on the Coordinator's clock, not the wall's.
func TestRoundTraceStartsOnTheClock(t *testing.T) {
	fed, err := data.Blobs(data.BlobsConfig{Users: 8, ExamplesPer: 10, Features: 4, Classes: 3, TestSize: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	clock := newWatchedClock()
	clock.Advance(time.Hour)
	opened := clock.Now()
	store := newTraceMem()
	srv, err := newServer(Config{Population: "pop", Plans: []*plan.Plan{testPlan(t, 4, false)}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 1, Seed: 1}, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := serveMem(t, clock, srv)
	fl := newFleet(t, 8, fed, 3)
	fl.slow = make([]time.Duration, 8)
	for i := range fl.slow {
		fl.slow[i] = time.Second
	}
	fl.run(r, r.dial)
	r.waitDone(t)
	committed := clock.Now()
	fl.halt()
	traces := store.RoundTraces()
	if len(traces) != 1 || !traces[0].Committed {
		t.Fatalf("traces = %+v, want the one committed round", traces)
	}
	if got := traces[0].Start; !got.Equal(opened) {
		t.Fatalf("trace Start = %v, want the instant the round opened: %v (committed at %v)", got, opened, committed)
	}
	if !committed.After(opened) {
		t.Fatalf("the round committed at %v, not after it opened at %v", committed, opened)
	}
}
