package simclock

import (
	"testing"
	"time"
)

var t0 = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)

func TestScheduleOrdering(t *testing.T) {
	c := New(t0)
	var got []int
	c.Schedule(2*time.Second, func() { got = append(got, 2) })
	c.Schedule(1*time.Second, func() { got = append(got, 1) })
	c.Schedule(3*time.Second, func() { got = append(got, 3) })
	c.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if c.Now() != t0.Add(3*time.Second) {
		t.Fatalf("final time = %v", c.Now())
	}
}

func TestTieBreakByScheduleOrder(t *testing.T) {
	c := New(t0)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Second, func() { got = append(got, i) })
	}
	c.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("ties must run in schedule order, got %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	c := New(t0)
	var fired []string
	c.Schedule(time.Second, func() {
		fired = append(fired, "outer")
		c.Schedule(time.Second, func() { fired = append(fired, "inner") })
	})
	c.Run(0)
	if len(fired) != 2 || fired[1] != "inner" {
		t.Fatalf("fired = %v", fired)
	}
	if c.Now() != t0.Add(2*time.Second) {
		t.Fatalf("time = %v", c.Now())
	}
}

func TestRunUntilPartial(t *testing.T) {
	c := New(t0)
	var count int
	for i := 1; i <= 5; i++ {
		c.Schedule(time.Duration(i)*time.Minute, func() { count++ })
	}
	c.RunUntil(t0.Add(3 * time.Minute))
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if c.Now() != t0.Add(3*time.Minute) {
		t.Fatalf("time = %v", c.Now())
	}
	if c.pq.Len() != 2 {
		t.Fatalf("pending = %d, want 2", c.pq.Len())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	c := New(t0)
	c.RunUntil(t0.Add(time.Hour))
	if c.Now() != t0.Add(time.Hour) {
		t.Fatal("RunUntil must advance time with no events")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	c := New(t0)
	fired := false
	c.Schedule(-5*time.Second, func() { fired = true })
	c.Step()
	if !fired || c.Now() != t0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, c.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	c := New(t0)
	c.RunUntil(t0.Add(time.Hour))
	fired := false
	c.ScheduleAt(t0, func() { fired = true }) // in the past
	c.Step()
	if !fired || c.Now() != t0.Add(time.Hour) {
		t.Fatal("past events must run immediately without rewinding time")
	}
}

func TestMaxEventsGuard(t *testing.T) {
	c := New(t0)
	var reschedule func()
	n := 0
	reschedule = func() {
		n++
		c.Schedule(time.Second, reschedule)
	}
	c.Schedule(time.Second, reschedule)
	ran := c.Run(100)
	if ran != 100 || n != 100 {
		t.Fatalf("ran %d events, n=%d, want 100", ran, n)
	}
}

func TestStepEmpty(t *testing.T) {
	c := New(t0)
	if c.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}
