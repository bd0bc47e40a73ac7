package simclock

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var t0 = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)

func TestFiringOrder(t *testing.T) {
	c := New(t0)
	var got []int
	c.AfterFunc(2*time.Second, func() { got = append(got, 2) })
	c.AfterFunc(1*time.Second, func() { got = append(got, 1) })
	c.AfterFunc(3*time.Second, func() { got = append(got, 3) })
	if n := c.Advance(time.Minute); n != 3 {
		t.Fatalf("fired %d timers, want 3", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if c.Now() != t0.Add(time.Minute) {
		t.Fatalf("final time = %v", c.Now())
	}
}

func TestEqualTimesFireInArmingOrder(t *testing.T) {
	c := New(t0)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	c.Advance(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("ties must fire in arming order, got %v", got)
		}
	}
}

func TestCallbackSeesItsOwnInstantAndMayArm(t *testing.T) {
	c := New(t0)
	var fired []time.Duration
	c.AfterFunc(time.Second, func() {
		fired = append(fired, c.Now().Sub(t0))
		c.AfterFunc(time.Second, func() { fired = append(fired, c.Now().Sub(t0)) })
		c.AfterFunc(time.Hour, func() { fired = append(fired, -1) })
	})
	if n := c.Advance(10 * time.Second); n != 2 {
		t.Fatalf("fired %d, want the outer timer and the inner one armed inside the window", n)
	}
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("callbacks saw %v, want [1s 2s]", fired)
	}
}

func TestAdvanceStopsShortOfLaterTimers(t *testing.T) {
	c := New(t0)
	var count int
	for i := 1; i <= 5; i++ {
		c.AfterFunc(time.Duration(i)*time.Minute, func() { count++ })
	}
	c.Advance(3*time.Minute - time.Nanosecond)
	if count != 2 {
		t.Fatalf("count = %d one nanosecond before the third timer, want 2", count)
	}
	c.Advance(time.Nanosecond)
	if count != 3 || c.Now() != t0.Add(3*time.Minute) {
		t.Fatalf("count = %d at %v, want 3 at +3m", count, c.Now().Sub(t0))
	}
	if len(c.queue) != 2 {
		t.Fatalf("pending = %d, want 2", len(c.queue))
	}
}

func TestNegativeDelayFiresAtNow(t *testing.T) {
	c := New(t0)
	fired := false
	c.AfterFunc(-5*time.Second, func() { fired = true })
	c.Advance(0)
	if !fired || c.Now() != t0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, c.Now())
	}
}

func TestStop(t *testing.T) {
	c := New(t0)
	var fired int
	a := c.AfterFunc(time.Second, func() { fired++ })
	b := c.AfterFunc(2*time.Second, func() { fired++ })
	if !a.Stop() {
		t.Fatal("Stop before firing must report true")
	}
	if a.Stop() {
		t.Fatal("a second Stop must report false")
	}
	if n := c.Advance(time.Minute); n != 1 || fired != 1 {
		t.Fatalf("fired %d (%d counted), want only the timer left armed", fired, n)
	}
	if b.Stop() {
		t.Fatal("Stop after firing must report false")
	}
	if len(c.queue) != 0 {
		t.Fatalf("a stopped timer stayed queued: %d pending", len(c.queue))
	}
}

// TestReset: a reset timer fires once, at its new instant and behind the
// timers already due then; a fired or stopped one is armed again.
func TestReset(t *testing.T) {
	c := New(t0)
	var got []string
	a := c.AfterFunc(time.Second, func() { got = append(got, fmt.Sprint("a@", c.Now().Sub(t0))) })
	c.AfterFunc(3*time.Second, func() { got = append(got, "b@3s") })
	if !a.Reset(3 * time.Second) {
		t.Fatal("Reset of an armed timer must report true")
	}
	c.Advance(5 * time.Second)
	if want := "[b@3s a@3s]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s: once, at its new instant, behind the timer already due", got, want)
	}
	if a.Reset(time.Second) {
		t.Fatal("Reset of a fired timer must report false")
	}
	if a.Stop(); a.Reset(2*time.Second) || c.Advance(time.Second) != 0 || c.Advance(time.Second) != 1 {
		t.Fatalf("a stopped timer reset for 2s must fire 2s on, once; fired %v", got)
	}
	if len(c.queue) != 0 {
		t.Fatalf("%d timers still queued", len(c.queue))
	}
}

func TestConcurrentUse(t *testing.T) {
	// Arming, stopping, reading and advancing from many goroutines: every
	// timer left armed fires exactly once, and time never runs backwards.
	c := New(t0)
	var fired, kept atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := c.Now()
			for i := 0; i < 200; i++ {
				tm := c.AfterFunc(time.Duration(i%7)*time.Millisecond, func() { fired.Add(1) })
				switch {
				case i%3 == 0 && tm.Stop():
				default:
					kept.Add(1)
				}
				if g%2 == 0 {
					c.Advance(time.Millisecond)
				}
				if now := c.Now(); now.Before(last) {
					t.Errorf("time ran backwards: %v after %v", now, last)
				} else {
					last = now
				}
			}
		}()
	}
	wg.Wait()
	c.Advance(time.Second)
	// A timer whose Stop lost the race to its firing counts as kept.
	if f, k := fired.Load(), kept.Load(); f != k || len(c.queue) != 0 {
		t.Fatalf("fired %d of %d kept timers, %d still pending", f, k, len(c.queue))
	}
}

func TestWall(t *testing.T) {
	before := time.Now()
	if now := Wall.Now(); now.Before(before) {
		t.Fatalf("Wall.Now %v before %v", now, before)
	}
	done := make(chan struct{})
	Wall.AfterFunc(time.Millisecond, func() { close(done) })
	<-done
	tm := Wall.AfterFunc(time.Hour, func() { t.Error("stopped wall timer fired") })
	if !tm.Reset(2*time.Hour) || !tm.Stop() {
		t.Fatal("Reset and Stop on an armed wall timer must report true")
	}
}

func TestStopFromTheMiddleKeepsOrder(t *testing.T) {
	// Stop removes a timer from anywhere in the heap; the rest still fire in
	// (instant, arming order).
	c := New(t0)
	var got []int
	var timers []Timer
	for i := 0; i < 50; i++ {
		i := i
		timers = append(timers, c.AfterFunc(time.Duration(i%5)*time.Second, func() { got = append(got, i) }))
	}
	for i := 0; i < 50; i += 3 {
		if !timers[i].Stop() {
			t.Fatalf("timer %d: Stop before firing reported false", i)
		}
	}
	c.Advance(time.Minute)
	var want []int
	for at := 0; at < 5; at++ {
		for i := at; i < 50; i += 5 {
			if i%3 != 0 {
				want = append(want, i)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// parkCounter is a Virtual that counts every goroutine parked on it.
type parkCounter struct {
	*Virtual
	parks atomic.Int64
}

func (c *parkCounter) park(n int) {
	if n > 0 {
		c.parks.Add(int64(n))
	}
	c.Virtual.park(n)
}

func TestExpiryWakesOnlyItsSleeper(t *testing.T) {
	// N sleepers rest on one shared gate for different durations: each
	// expiry hands exactly its own sleeper back, and no other re-parks.
	const n = 64
	c := &parkCounter{Virtual: New(t0)}
	var stop Gate
	var woke, passed atomic.Int64
	for i := 0; i < n; i++ {
		d := time.Duration(i+1) * time.Second
		c.Go(func() {
			if Sleep(c, d, &stop) {
				passed.Add(1)
			}
			woke.Add(1)
		})
	}
	if err := c.Run(time.Second-time.Nanosecond, nil); err != ErrHorizon {
		t.Fatalf("Run = %v, want the horizon", err)
	}
	if p := c.parks.Load(); p != n {
		t.Fatalf("%d parks before any expiry, want %d", p, n)
	}
	if err := c.Run(time.Nanosecond, nil); err != ErrHorizon {
		t.Fatalf("Run = %v, want the horizon", err)
	}
	if w, p := woke.Load(), c.parks.Load(); w != 1 || p != n {
		t.Fatalf("one expiry woke %d sleeper(s) with %d parks in all, want 1 and %d", w, p, n)
	}
	// Close still ends every Sleep left on the gate.
	stop.Close()
	if err := c.Run(0, func() bool { return woke.Load() == n }); err != nil {
		t.Fatal(err)
	}
	if p := passed.Load(); p != 1 {
		t.Fatalf("%d sleeps passed, want only the one that expired", p)
	}
	if Sleep(c, time.Second, &stop) {
		t.Fatal("a Sleep on a closed gate must not pass")
	}
}

// BenchmarkVirtualArmStop arms and stops one timer with many others armed.
func BenchmarkVirtualArmStop(b *testing.B) {
	for _, armed := range []int{100, 20000} {
		b.Run(fmt.Sprintf("armed-%d", armed), func(b *testing.B) {
			c := New(t0)
			for i := 0; i < armed; i++ {
				c.AfterFunc(time.Duration(i)*time.Millisecond, func() {})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.AfterFunc(time.Duration(i%armed)*time.Millisecond, func() {}).Stop()
			}
		})
	}
}

func TestQueueGrowsInOrder(t *testing.T) {
	// The ring starts empty and doubles on demand: FIFO order holds across
	// wraparound and every growth, and a nil-clock Push is refused exactly
	// at the capacity.
	const capacity = 37
	q := NewQueue[int](capacity)
	next, want := 0, 0
	pop := func(k int) {
		for ; k > 0; k-- {
			v, ok := q.Pop(nil)
			if !ok || v != want {
				t.Fatalf("Pop = %d, %v; want %d", v, ok, want)
			}
			want++
		}
	}
	// Wrap the small ring before it has to grow: head sits mid-ring at each
	// doubling.
	for _, k := range []int{3, 1, 5, 2, 11, 7, 20, 9} {
		for i := 0; i < k; i++ {
			if !q.Push(next, nil) {
				t.Fatalf("Push %d refused with %d queued", next, next-want)
			}
			next++
		}
		pop(k / 2)
	}
	for next-want < capacity {
		if !q.Push(next, nil) {
			t.Fatalf("Push %d refused with %d queued", next, next-want)
		}
		next++
	}
	if q.Push(next, nil) {
		t.Fatalf("Push accepted at the capacity %d", capacity)
	}
	if len(q.items) != capacity {
		t.Fatalf("full ring holds %d slots, want the capacity %d", len(q.items), capacity)
	}
	pop(capacity)
	q.Close()
	if _, ok := q.Pop(nil); ok {
		t.Fatal("Pop on a closed, drained queue reported an item")
	}
}

func TestRetiredRingIsReused(t *testing.T) {
	// A retired queue is closed and empty, and its ring, cleared, serves a
	// new queue up to its size without growing.
	q := NewQueue[*int](64)
	for i := 0; i < 13; i++ {
		q.Push(new(int), nil)
	}
	q.Pop(nil)
	ring := q.Retire()
	if len(ring) != 16 || slices.ContainsFunc(ring, func(p *int) bool { return p != nil }) {
		t.Fatalf("retired a ring of %d slots holding %v; want 16 cleared", len(ring), ring)
	}
	if q.Push(new(int), nil) {
		t.Fatal("a retired queue took a Push")
	}
	if _, ok := q.Pop(nil); ok {
		t.Fatal("a retired queue delivered an item")
	}
	next := NewQueue[*int](64)
	next.Reuse(ring)
	for i := 0; i < 16; i++ {
		next.Push(new(int), nil)
	}
	if &next.items[0] != &ring[0] || len(next.items) != 16 {
		t.Fatal("a queue given a retired ring grew one of its own")
	}
}

func TestBlockedPushWakesForRoom(t *testing.T) {
	c := New(t0)
	q := NewQueue[int](2)
	q.Push(0, nil)
	q.Push(1, nil)
	var pushed atomic.Bool
	c.Go(func() { pushed.Store(q.Push(2, c)) })
	if err := c.Run(time.Hour, nil); err == nil || pushed.Load() {
		t.Fatalf("Run = %v with a Push on a full queue, pushed %v; want it parked", err, pushed.Load())
	}
	if v, ok := q.Pop(nil); !ok || v != 0 {
		t.Fatalf("Pop = %d, %v; want 0", v, ok)
	}
	if err := c.Run(0, pushed.Load); err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 2; want++ {
		if v, ok := q.Pop(nil); !ok || v != want {
			t.Fatalf("Pop = %d, %v; want %d", v, ok, want)
		}
	}
}
