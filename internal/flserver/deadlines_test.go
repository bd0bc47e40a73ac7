package flserver

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/pacing"
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
		{"abortGrace closes a connection that never takes its abort", func(t *testing.T, clock *watchedClock, sys *actor.System) (time.Duration, int, func() bool) {
			conn := newStuckConn(clock)
			sendThenClose(sys, conn, protocol.Abort{Reason: "round sealed"})
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
	sys := actor.NewSystem(clock)
	conns := make([]*stuckConn, 257)
	for i := range conns {
		conns[i] = newStuckConn(clock)
		sendThenClose(sys, conns[i], protocol.Abort{Reason: "round sealed"})
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
	router := &CheckinRouter{}
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

// deviceSession runs one device over conn through check-in, configuration
// and an accepted report of p's round 1, and then expects the server to
// close the connection.
func deviceSession(conn transport.Conn, p *plan.Plan, id string) error {
	defer conn.Close()
	if err := conn.Send(protocol.CheckinRequest{DeviceID: id, Population: "pop", RuntimeVersion: 3}); err != nil {
		return err
	}
	msg, err := conn.Recv()
	conn.Release()
	if resp, ok := msg.(protocol.CheckinResponse); err != nil || !ok || !resp.Accepted {
		return fmt.Errorf("check-in answered %T %+v (%v)", msg, msg, err)
	}
	update, err := (&checkpoint.Checkpoint{TaskName: p.ID, Round: 1, Weight: 1, Params: make(tensor.Vector, 4)}).Marshal(checkpoint.EncodingFloat64)
	if err == nil {
		err = conn.Send(protocol.ReportRequest{DeviceID: id, TaskID: p.ID, Round: 1, Update: update})
	}
	if err != nil {
		return err
	}
	if msg, err = conn.Recv(); err != nil || msg != (protocol.ReportResponse{Accepted: true}) {
		return fmt.Errorf("report answered %T %+v (%v)", msg, msg, err)
	}
	if _, err := conn.Recv(); err == nil {
		return errors.New("the server left the connection open")
	}
	return nil
}

// TestDeviceSessionArmsNoTimer is the exact count behind the one deadline
// per connection: a device session that checks in, is configured and
// reports — its every phase bounded — arms no timer on the tier's clock over
// TCP, where each bound is the socket's deadline (the handshake's and the
// verdict's were two timers), and exactly one over MemNetwork, the conn's
// own, re-armed from phase to phase.
func TestDeviceSessionArmsNoTimer(t *testing.T) {
	for name, want := range map[string]int{"tcp": 0, "mem": 1} {
		t.Run(name, func(t *testing.T) {
			clock := newWatchedClock()
			sys := actor.NewSystem(clock)
			defer sys.Shutdown()
			tier := NewDeviceTier(sys, "", 1, nil, pacing.New(time.Minute), 1)
			edge, err := tier.Register(SelectorPopulation{Name: "pop"})
			if err != nil {
				t.Fatal(err)
			}
			var l transport.Listener
			var dial func() (transport.Conn, error)
			mem := transport.NewMemNetwork(clock)
			if name == "tcp" {
				l, err = transport.ListenTCP("127.0.0.1:0")
				dial = func() (transport.Conn, error) { return transport.DialTCP(l.Addr()) }
			} else {
				l, err = mem.Listen("fl")
				dial = func() (transport.Conn, error) { return mem.Dial("fl") }
			}
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if name == "tcp" {
				go tier.Serve(l) // blocked in accept(2), outside the rig
			} else {
				clock.Go(func() { tier.Serve(l) })
			}
			p := testPlan(t, 2, false) // one report does not seal it
			if err := edge.Open(&EdgeRoundConfig{
				Population: "pop", Plan: p, Round: 1, Dim: 4, Target: 2,
				Global: &checkpoint.Checkpoint{TaskName: p.ID, Round: 1, Params: make(tensor.Vector, 4)},
			}, inbox(make(chan actor.Message, 1))); err != nil {
				t.Fatal(err)
			}
			clock.armed(t, p.Server.ReportTimeout, 1) // the round's windows
			before := clock.count()
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			if name == "tcp" {
				err = deviceSession(conn, p, "d")
			} else {
				done := make(chan error, 1)
				clock.Go(func() { done <- deviceSession(conn, p, "d") })
				clock.until(t, "the session", func() bool { return len(done) == 1 })
				err = <-done
			}
			if err != nil {
				t.Fatal(err)
			}
			// Every server goroutine of the session has returned.
			if err := clock.Run(0, func() bool { return true }); err != nil {
				t.Fatal(err)
			}
			if got := clock.count() - before; got != want {
				t.Fatalf("a device session armed %d timers on the tier's clock, want %d", got, want)
			}
		})
	}
}

// TestCloseMidRoundReturnsTheLoan: a server closed while its round holds a
// configured device stops the round's actor before the round seals, and the
// actor's stop hook releases what the round holds: the device's connection
// is closed and, once Close returns, the loans gauge reads what it read
// before the server started — the round's checkpoint went back to its pool.
func TestCloseMidRoundReturnsTheLoan(t *testing.T) {
	loans := metrics.Default.Gauge("fl_net_buf_loans")
	before := loans.Value()
	p := testPlan(t, 1, false)
	srv, err := New(Config{Population: "pop", Plans: []*plan.Plan{p}, Store: storage.NewMem(), Steering: pacing.New(time.Second), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	var conn transport.Conn
	for deadline := time.Now().Add(10 * time.Second); conn == nil; time.Sleep(10 * time.Millisecond) {
		if conn, err = transport.DialTCP(l.Addr()); err != nil {
			t.Fatal(err)
		}
		_ = conn.Send(protocol.CheckinRequest{DeviceID: "d", Population: "pop", RuntimeVersion: 3})
		msg, err := conn.Recv()
		conn.Release()
		if resp, ok := msg.(protocol.CheckinResponse); err != nil || !ok || !resp.Accepted {
			conn.Close()
			if conn = nil; time.Now().After(deadline) {
				t.Fatalf("the device was never configured: %T %v", msg, err)
			}
		}
	}
	defer conn.Close()
	srv.Close()
	if got := loans.Value(); got != before {
		t.Fatalf("%v loans out once Close returned mid-round, want %v", got, before)
	}
	if _, err := conn.Recv(); err == nil {
		t.Fatal("the stopped round left its device's connection open")
	}
}
