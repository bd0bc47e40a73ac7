package transport

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/simclock"
)

// A conn's one deadline (Conn.Expire) on both transports: a stalled peer is
// shed at the bound of the phase it stalls in, a re-arm gives the next phase
// its whole budget, and d ≤ 0 lifts the bound. Over TCP the bound is the
// socket's and the waits are short wall-clock ones; in memory it is a timer
// on the pipe's virtual clock, and the tests read the instant off it. A
// stall inside a frame (a header or payload cut short) exists only on the
// wire; in memory a message crosses whole.

// tcpDeadline is the TCP tests' phase bound; slack is how late past it a
// loaded machine may still shed.
const (
	tcpDeadline = 100 * time.Millisecond
	slack       = 2 * time.Second
)

// shedWithin runs op, which must fail with a deadline error between d and
// d+slack after start.
func shedWithin(t *testing.T, what string, start time.Time, d time.Duration, op func() error) {
	t.Helper()
	err := op()
	took := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: %v after %v, want a deadline error", what, err, took)
	}
	if took < d || took > d+slack {
		t.Fatalf("%s: shed after %v, want within [%v, %v]", what, took, d, d+slack)
	}
}

// TestTCPExpireShedsStalledPeers: a peer that stays silent, stops 5 bytes
// into a 6-byte header or halfway through a payload, or never reads what it
// is sent, fails the conn's pending call at its deadline, not before — and a
// frame cut short costs no leased buffer past it.
func TestTCPExpireShedsStalledPeers(t *testing.T) {
	report := reportOfSize(t, 64<<10)
	frame := wantFrame(t, report)
	big := reportOfSize(t, 1<<20)
	cases := []struct {
		name  string
		stall func(raw net.Conn)
		op    func(c *tcpConn) error
	}{
		{"silent peer", func(net.Conn) {}, recvErr},
		{"5 of 6 header bytes", func(raw net.Conn) { _, _ = raw.Write(frame[:hdrLen-1]) }, recvErr},
		{"half a payload", func(raw net.Conn) { _, _ = raw.Write(frame[:hdrLen+len(frame[hdrLen:])/2]) }, recvErr},
		{"a peer that never reads", func(net.Conn) {}, func(c *tcpConn) error {
			for {
				if err := c.Send(big); err != nil {
					return err
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loans := loansOut()
			raw, conn := rawPair(t)
			tc.stall(raw)
			start := time.Now()
			conn.Expire(tcpDeadline)
			shedWithin(t, tc.name, start, tcpDeadline, func() error { return tc.op(conn) })
			if got := loansOut(); got != loans {
				t.Fatalf("%v loans out after the shed, want %v", got, loans)
			}
		})
	}
}

func recvErr(c *tcpConn) error { _, err := c.Recv(); return err }

// TestTCPExpireRearmAndLift: a frame that lands in time is read; re-armed,
// the next phase gets its full bound from the re-arm, not what was left of
// the last one; lifted, a read waits past any bound for its frame.
func TestTCPExpireRearmAndLift(t *testing.T) {
	raw, conn := rawPair(t)
	frame := wantFrame(t, protocol.CheckinRequest{DeviceID: "d", Population: "pop", RuntimeVersion: 3})
	conn.Expire(tcpDeadline)
	time.AfterFunc(tcpDeadline*3/4, func() { _, _ = raw.Write(frame) })
	if _, err := conn.Recv(); err != nil {
		t.Fatalf("a frame inside the bound: %v", err)
	}
	start := time.Now()
	conn.Expire(tcpDeadline)
	shedWithin(t, "re-armed", start, tcpDeadline, func() error { return recvErr(conn) })

	raw, conn = rawPair(t)
	start = time.Now()
	conn.Expire(tcpDeadline)
	conn.Expire(0)
	time.AfterFunc(3*tcpDeadline, func() { _, _ = raw.Write(frame) })
	if _, err := conn.Recv(); err != nil || time.Since(start) < 3*tcpDeadline {
		t.Fatalf("lifted: %v after %v, want the frame sent at %v", err, time.Since(start), 3*tcpDeadline)
	}
}

// TestExpireAllocs: arming or re-arming a TCP conn's deadline allocates
// nothing, nor does re-arming an in-memory one.
func TestExpireAllocs(t *testing.T) {
	_, tcp := rawPair(t)
	mem, _ := Pipe()
	mem.Expire(time.Hour) // the one timer
	t.Cleanup(func() { mem.Close() })
	for name, c := range map[string]Conn{"tcp": tcp, "mem": mem} {
		if n := testing.AllocsPerRun(100, func() { c.Expire(time.Hour) }); n != 0 {
			t.Errorf("%s: Expire allocates %v times, want 0", name, n)
		}
	}
}

// pending starts op on clock's rig; done reports whether it has returned,
// and result what it returned.
func pending(clock *simclock.Virtual, op func() error) (done func() bool, result func() error) {
	ch := make(chan error, 1)
	clock.Go(func() { ch <- op() })
	return func() bool { return len(ch) == 1 }, func() error { return <-ch }
}

// expireAt runs clock's rig to the instant at and fails unless done holds
// there and not a nanosecond before.
func expireAt(t *testing.T, clock *simclock.Virtual, what string, at time.Time, done func() bool) {
	t.Helper()
	if err := clock.Run(at.Sub(clock.Now())-time.Nanosecond, done); !errors.Is(err, simclock.ErrHorizon) {
		t.Fatalf("%s: shed before its deadline (%v)", what, err)
	}
	if err := clock.Run(time.Nanosecond, done); err != nil {
		t.Fatalf("%s: not shed at its deadline: %v", what, err)
	}
}

// TestMemExpireShedsStalledPeers: on a MemNetwork pipe, a silent peer fails
// the pending Recv, and a peer that never reads the Send blocked on its full
// queue, at the deadline's virtual instant: the timer closes the conn.
func TestMemExpireShedsStalledPeers(t *testing.T) {
	const d = 5 * time.Second
	for name, op := range map[string]func(c Conn) error{
		"silent peer": func(c Conn) error { _, err := c.Recv(); return err },
		"a peer that never reads": func(c Conn) error {
			for i := 0; ; i++ {
				if err := c.Send(i); err != nil {
					return err
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			clock := simclock.New(time.Unix(0, 0))
			c, _ := Pipe(clock)
			c.Expire(d)
			done, result := pending(clock, func() error { return op(c) })
			expireAt(t, clock, name, clock.Now().Add(d), done)
			if err := result(); err == nil {
				t.Fatalf("%s: the call succeeded past its deadline", name)
			}
		})
	}
}

// TestMemExpireRearmAndLift: re-armed halfway, the bound runs its full
// length from the re-arm; lifted, nothing is left armed — the rig parks with
// no timer at all — and the message sent later is read.
func TestMemExpireRearmAndLift(t *testing.T) {
	const d = 5 * time.Second
	clock := simclock.New(time.Unix(0, 0))
	c, _ := Pipe(clock)
	c.Expire(d)
	done, result := pending(clock, func() error { _, err := c.Recv(); return err })
	if err := clock.Run(d/2, done); !errors.Is(err, simclock.ErrHorizon) {
		t.Fatalf("halfway: %v", err)
	}
	c.Expire(d)
	expireAt(t, clock, "re-armed", clock.Now().Add(d), done)
	if err := result(); err == nil {
		t.Fatal("re-armed: the Recv succeeded past its deadline")
	}

	c, peer := Pipe(clock)
	c.Expire(d)
	c.Expire(0)
	got := make(chan interface{}, 1)
	clock.Go(func() { msg, _ := c.Recv(); got <- msg })
	if err := clock.Run(time.Hour, nil); !errors.Is(err, simclock.ErrDeadlock) {
		t.Fatalf("lifted: the rig ran to %v, want it parked with no timer armed", err)
	}
	if err := peer.Send("late"); err != nil {
		t.Fatal(err)
	}
	if err := clock.Run(0, func() bool { return len(got) == 1 }); err != nil || <-got != "late" {
		t.Fatalf("lifted: the late message was not read (%v)", err)
	}
}
