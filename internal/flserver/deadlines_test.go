package flserver

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// stuckConn is a peer that checked in and then never drains its socket: a
// pipe whose buffer is full, so Send waits until somebody closes it.
type stuckConn struct {
	transport.Conn
	closed atomic.Bool
}

func newStuckConn(clock actor.Clock) *stuckConn {
	near, _ := transport.Pipe(clock)
	for i := 0; i < 64; i++ { // the pipe's buffer
		_ = near.Send(i)
	}
	return &stuckConn{Conn: near}
}

func (c *stuckConn) Close() error { c.closed.Store(true); return c.Conn.Close() }

// edgeRoundOn starts a device-less edge round for a target-1 plan on sys and
// returns it with the channel its seal ships on.
func edgeRoundOn(t *testing.T, sys *actor.System, minReports int) (actor.Ref, chan EdgeSeal) {
	t.Helper()
	p := testPlan(t, 1, false)
	p.Server.SelectionTimeout, p.Server.ReportTimeout = 3*time.Second, 5*time.Second // apart from the 2s linger
	seals := make(chan EdgeSeal, 1)
	ref := startEdgeRound(sys, "edge", EdgeRoundConfig{
		Population: "pop", Plan: p, Dim: 4, Target: 1, MinReports: minReports,
		Global: &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, 4)},
	}, []actor.Ref{spawnSelector(sys, "sel", 1, "pop")}, func(s EdgeSeal) { seals <- s })
	return ref, seals
}

func shipped(seals chan EdgeSeal) func() bool {
	return func() bool { return len(seals) == 1 }
}

// TestDeadlinesFireAtTheirInstant: every deadline the server and its links
// keep is a timer on the process's one clock, and each takes effect at its
// virtual instant — not a nanosecond earlier, which also says nothing else
// (a wall-clock wait left behind) stands in for it. Each row arranges one
// wait, names the n-th timer of duration d as the one that must end it, and
// reports whether its effect has happened.
func TestDeadlinesFireAtTheirInstant(t *testing.T) {
	rows := []struct {
		name    string
		arrange func(t *testing.T, clock *watchedClock, sys *actor.System) (d time.Duration, n int, effect func() bool)
	}{
		{"selection timeout below MinReports seals the edge round", func(t *testing.T, _ *watchedClock, sys *actor.System) (time.Duration, int, func() bool) {
			_, seals := edgeRoundOn(t, sys, 1)
			return 3 * time.Second, 1, shipped(seals)
		}},
		{"report timeout seals the edge round", func(t *testing.T, clock *watchedClock, sys *actor.System) (time.Duration, int, func() bool) {
			// No MinReports share: the selection timeout passes without effect.
			_, seals := edgeRoundOn(t, sys, 0)
			clock.expire(t, "selection timeout", clock.armed(t, 3*time.Second, 1), nil)
			return 5 * time.Second, 1, shipped(seals)
		}},
		{"Linger stops the sealed edge round", func(t *testing.T, _ *watchedClock, sys *actor.System) (time.Duration, int, func() bool) {
			ref, _ := edgeRoundOn(t, sys, 0)
			_ = ref.Send(msgEdgeFinalize{})
			return edgeRoundLinger, 1, ref.Stopped
		}},
		{"SealGrace settles a round whose stragglers never sealed", func(t *testing.T, clock *watchedClock, sys *actor.System) (time.Duration, int, func() bool) {
			p := testPlan(t, 4, false)
			ts, err := tasks.New("pop", storage.NewMem())
			if err == nil {
				err = ts.Seed([]*plan.Plan{p}, simStart)
			}
			if err != nil {
				t.Fatal(err)
			}
			outcomes := make(chan roundOutcome, 1)
			edge := &stripeEdge{opened: make(chan *EdgeRoundConfig, 16)} // the failed round is retried at once
			coord := sys.Spawn("coordinator/pop", newCoordinator(CoordinatorParams{
				Population: "pop", Lock: actor.NewLockService(), Store: storage.NewMem(), Tasks: ts,
				Edges: []Edge{edge}, SealGrace: 3 * time.Second, MaxRounds: 1,
				onOutcome: func(out roundOutcome) { outcomes <- out },
			}))
			_ = coord.Send(msgTick{})
			// The report window plus the grace: the straggler is told to seal.
			clock.expire(t, "round deadline", clock.armed(t, p.Server.ReportTimeout+3*time.Second, 1), nil)
			return 3 * time.Second, 1, func() bool { return len(outcomes) == 1 }
		}},
		{"abortGrace closes a connection that never takes its abort", func(t *testing.T, clock *watchedClock, _ *actor.System) (time.Duration, int, func() bool) {
			conn := newStuckConn(clock)
			sendThenClose(clock, conn, protocol.Abort{Reason: "round sealed"})
			return abortGrace, 1, conn.closed.Load
		}},
		{"Peer heartbeat miss declares the link down", func(t *testing.T, clock *watchedClock, _ *actor.System) (time.Duration, int, func() bool) {
			near, far := transport.Pipe(clock)
			clock.Go(func() { // a peer that reads and never acknowledges
				for {
					if _, err := far.Recv(); err != nil {
						return
					}
				}
			})
			var dials, downs atomic.Int32
			peer := remote.NewPeer("silent", func() (transport.Conn, error) {
				if dials.Add(1) > 1 {
					return nil, errors.New("gone")
				}
				return near, nil
			}, nil, remote.Options{Clock: clock, OnDown: func(error) { downs.Add(1) }})
			t.Cleanup(peer.Close)
			// Probes 1 to 4 go unanswered; the fifth tick finds the miss.
			return 500 * time.Millisecond, 5, func() bool { return downs.Load() == 1 }
		}},
		{"Peer backoff redials", func(t *testing.T, clock *watchedClock, _ *actor.System) (time.Duration, int, func() bool) {
			var dials atomic.Int32
			peer := remote.NewPeer("absent", func() (transport.Conn, error) {
				dials.Add(1)
				return nil, errors.New("refused")
			}, nil, remote.Options{Clock: clock})
			t.Cleanup(peer.Close)
			// 50ms, doubling each time, until 6.4s would pass the 5s cap.
			n := int32(1)
			for d := 50 * time.Millisecond; d < 5*time.Second; d *= 2 {
				n++
				clock.expire(t, "backoff", clock.armed(t, d, 1), func() bool { return dials.Load() == n })
			}
			return 5 * time.Second, 1, func() bool { return dials.Load() == n+1 }
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			clock := newWatchedClock()
			sys := actor.NewSystem(clock)
			defer sys.Shutdown()
			d, n, effect := row.arrange(t, clock, sys)
			for i := 1; i < n; i++ {
				clock.expire(t, row.name, clock.armed(t, d, i), nil)
			}
			clock.expire(t, row.name, clock.armed(t, d, n), effect)
		})
	}
}

// TestStalledSendsParkForTheirSlot: a response send past respGate's 256 slots
// parks on its clock until a slot frees, so when 257 peers never drain their
// sockets the rig still goes idle: abortGrace closes the first 256 at its
// instant, and the last one abortGrace after it took a freed slot.
func TestStalledSendsParkForTheirSlot(t *testing.T) {
	clock := newWatchedClock()
	conns := make([]*stuckConn, 257)
	for i := range conns {
		conns[i] = newStuckConn(clock)
		sendThenClose(clock, conns[i], protocol.Abort{Reason: "round sealed"})
	}
	closed := func(want int) func() bool {
		return func() bool {
			n := 0
			for _, c := range conns {
				if c.closed.Load() {
					n++
				}
			}
			return n == want
		}
	}
	clock.expire(t, "abortGrace of the first 256 sends", clock.armed(t, abortGrace, 1), closed(256))
	clock.expire(t, "abortGrace of the 257th send", clock.armed(t, abortGrace, 257), closed(257))
}

// TestSilentCheckinsAreClosed: a peer that connects and never sends its
// check-in holds a handler for abortGrace and not an instant longer — 1 000
// silent connections are closed at that instant, and every handler returns.
// The instant's timers fire in one Advance: Run would fire them one by one,
// and under -race census the thousand parked handlers after each.
func TestSilentCheckinsAreClosed(t *testing.T) {
	const n = 1000
	clock := newWatchedClock()
	router := &CheckinRouter{clock: clock}
	conns := make([]*stuckConn, n) // the wrapper records the Close
	var returned atomic.Int32
	for i := range conns {
		_, srv := transport.Pipe(clock)
		conns[i] = &stuckConn{Conn: srv}
		clock.Go(func() { router.handleConn(conns[i]); returned.Add(1) })
	}
	closed := func() (k int) {
		for _, c := range conns {
			if c.closed.Load() {
				k++
			}
		}
		return k
	}
	clock.armed(t, abortGrace, n)
	if err := clock.Run(abortGrace-time.Nanosecond, func() bool { return closed() > 0 || returned.Load() > 0 }); !errors.Is(err, simclock.ErrHorizon) {
		t.Fatalf("a silent connection was closed before abortGrace (%v)", err)
	}
	clock.Advance(time.Nanosecond)
	if err := clock.Run(0, func() bool { return closed() == n && returned.Load() == n }); err != nil {
		t.Fatalf("at abortGrace %d of %d silent connections closed, %d handlers returned: %v", closed(), n, returned.Load(), err)
	}
}
