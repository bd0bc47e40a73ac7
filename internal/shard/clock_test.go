package shard

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// newClock returns the virtual clock of one rig: its processes, links and
// devices all run on it, and the test moves it with until.
func newClock() *simclock.Virtual {
	return simclock.New(time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC))
}

// until runs clock's rig until cond holds: tests wait on the event — a link
// declared dead, a round committed — not on a sleep that hopes to outlast
// it. It fails the test when the rig deadlocks or an hour of virtual time
// passes first.
func until(t *testing.T, clock *simclock.Virtual, what string, cond func() bool) {
	t.Helper()
	if err := clock.Run(time.Hour, cond); err != nil {
		t.Fatalf("waiting for %s: %v", what, err)
	}
}

// await runs fn on clock's rig, and the rig until fn has returned.
func await(t *testing.T, clock *simclock.Virtual, what string, fn func()) {
	t.Helper()
	var done atomic.Bool
	clock.Go(func() { fn(); done.Store(true) })
	until(t, clock, what, done.Load)
}

// closed is a condition for until: whether ch has closed.
func closed(ch <-chan struct{}) func() bool {
	return func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
}

// startSwarm starts a device fleet on clock's rig, one device per user of
// fed: device i of pop checks in through dial(i), takes part, and rests on
// the clock, until the test ends.
func startSwarm(t *testing.T, clock *simclock.Virtual, pop string, fed *data.Federated, dial func(i int) (transport.Conn, error)) {
	t.Helper()
	var stop actor.Gate
	var live atomic.Int64
	for i := range fed.Users {
		id := fmt.Sprintf("%s-dev-%d", pop, i)
		rt := device.NewRuntime(id, 3, nil, uint64(i)+900)
		st, err := device.NewMemStore(pop+"-store", 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range fed.Users[i] {
			st.Add(ex, clock.Now())
		}
		if err := rt.RegisterStore(st); err != nil {
			t.Fatal(err)
		}
		client := &device.Client{ID: id, Population: pop, Runtime: rt, Clock: clock}
		live.Add(1)
		clock.Go(func() {
			defer live.Add(-1)
			for {
				if conn, err := dial(i); err == nil {
					_, _ = client.RunOnce(conn)
				}
				if !actor.Sleep(clock, 100*time.Millisecond, &stop) {
					return
				}
			}
		})
	}
	t.Cleanup(func() {
		stop.Close()
		until(t, clock, "the devices to leave", func() bool { return live.Load() == 0 })
	})
}
