package shard

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

// fastClock returns a virtual clock running twenty times as fast as the wall
// clock until the test ends, for the processes (coordinator, shards) and
// devices of one rig: a pacing window, a telemetry interval or a report
// window the test waits out costs a twentieth of its length.
func fastClock(t *testing.T) *simclock.Virtual {
	clock := simclock.New(time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC))
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
	return clock
}

// waitUntil polls cond until it holds: tests wait on the event — a link
// declared dead, a round committed — not on a sleep that hopes to outlast it.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
