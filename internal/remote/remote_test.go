package remote

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/protocol"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// newRig returns the virtual clock of one test's processes and the mem
// network between them: links run the product's heartbeat and backoff, which
// on a virtual clock cost nothing to wait out.
func newRig() (*simclock.Virtual, *transport.MemNetwork) {
	clock := simclock.New(time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC))
	return clock, transport.NewMemNetwork(clock)
}

// until runs clock's rig until cond holds.
func until(t *testing.T, clock *simclock.Virtual, what string, cond func() bool) {
	t.Helper()
	if err := clock.Run(time.Hour, cond); err != nil {
		t.Fatalf("waiting for %s: %v", what, err)
	}
}

// testServer serves sessions on a mem-network endpoint until closed.
type testServer struct {
	net   *transport.MemNetwork
	addr  string
	l     transport.Listener
	opts  SessionOptions
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []*Session
}

func newTestServer(t *testing.T, clock actor.Clock, net *transport.MemNetwork, addr string, opts SessionOptions) *testServer {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &testServer{net: net, addr: addr, l: l, opts: opts}
	s.wg.Add(1)
	clock.Go(func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			sess := NewSession(conn, opts, clock)
			s.mu.Lock()
			s.conns = append(s.conns, sess)
			s.mu.Unlock()
			s.wg.Add(1)
			clock.Go(func() {
				defer s.wg.Done()
				_ = sess.Run()
			})
		}
	})
	return s
}

// dropConns kills every live session without closing the listener —
// simulating a network partition the client must notice and redial through.
func (s *testServer) dropConns() {
	s.mu.Lock()
	conns := append([]*Session(nil), s.conns...)
	s.conns = s.conns[:0]
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *testServer) close() {
	s.l.Close()
	s.dropConns()
	s.wg.Wait()
}

// TestPeerHelloAndRemoteRef covers the frozen envelope round trip: a
// peer connects, its Hello reaches the serving side, and a remote Ref
// delivers an actor message into the server's registry.
func TestPeerHelloAndRemoteRef(t *testing.T) {
	clock, net := newRig()
	sys := actor.NewSystem(clock)
	defer sys.Shutdown()

	got := make(chan protocol.RoundAbort, 8)
	target := sys.Spawn("echo", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		if n, ok := msg.(protocol.RoundAbort); ok {
			got <- n
		}
	}))
	reg := NewRegistry()
	reg.Register("echo", target)

	var hello atomic.Value
	srv := newTestServer(t, clock, net, "srv", SessionOptions{
		Registry: reg,
		Handle: func(msg interface{}) {
			if h, ok := msg.(protocol.ShardHello); ok {
				hello.Store(h)
			}
		},
	})
	defer srv.close()

	opts := Options{Clock: clock, Hello: protocol.ShardHello{Shard: 3, Name: "shard-3"}}
	peer := NewPeer("srv", func() (transport.Conn, error) { return net.Dial("srv") }, nil, opts)
	defer peer.Close()

	until(t, clock, "link up and hello delivered", func() bool { return peer.Alive() && hello.Load() != nil })
	if h := hello.Load().(protocol.ShardHello); h.Shard != 3 || h.Name != "shard-3" {
		t.Fatalf("hello = %+v", h)
	}

	ref := peer.Ref("echo")
	note := protocol.RoundAbort{Population: "pop", TaskID: "t", Round: 7, Reason: "over the wire"}
	if err := ref.Send(note); err != nil {
		t.Fatal(err)
	}
	until(t, clock, "the envelope delivered to the registered actor", func() bool { return len(got) > 0 })
	if n := <-got; n != note {
		t.Fatalf("note = %+v", n)
	}

	// Unregistered targets are dropped server-side, not an error for the
	// sender (liveness is the heartbeat, not per-message acks).
	if err := peer.Ref("nobody").Send(note); err != nil {
		t.Fatalf("send to unknown target errored on the wire: %v", err)
	}
	// Only protocol messages have a wire form; anything else fails at the
	// sender, naming the type.
	if err := ref.Send(struct{ Text string }{"no codec"}); err == nil {
		t.Fatal("a message without a wire codec was sent")
	}
}

// TestPeerReconnectWithBackoff drops the live connection server-side and
// asserts the peer notices, reports down, redials, and comes back up.
func TestPeerReconnectWithBackoff(t *testing.T) {
	clock, net := newRig()
	srv := newTestServer(t, clock, net, "srv", SessionOptions{})
	defer srv.close()

	var ups, downs atomic.Int64
	opts := Options{Clock: clock, OnUp: func() { ups.Add(1) }, OnDown: func(error) { downs.Add(1) }}
	peer := NewPeer("srv", func() (transport.Conn, error) { return net.Dial("srv") }, nil, opts)
	defer peer.Close()

	until(t, clock, "first connect", func() bool { return ups.Load() == 1 })
	srv.dropConns()
	until(t, clock, "down callback", func() bool { return downs.Load() >= 1 })
	until(t, clock, "reconnect", func() bool { return ups.Load() >= 2 && peer.Alive() })

	// A second drop is noticed and survived too; the link settles back up.
	prevDowns := downs.Load()
	srv.dropConns()
	until(t, clock, "second drop", func() bool { return downs.Load() > prevDowns })
	until(t, clock, "second reconnect", peer.Alive)
}

// TestPeerHeartbeatDeclaresDeadPeer connects to a server that swallows all
// traffic: the peer must declare the link dead on missed heartbeats alone.
func TestPeerHeartbeatDeclaresDeadPeer(t *testing.T) {
	clock, net := newRig()
	l, err := net.Listen("blackhole")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	clock.Go(func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Read and ignore everything; never answer a heartbeat.
			clock.Go(func() {
				for {
					if _, err := conn.Recv(); err != nil {
						return
					}
				}
			})
		}
	})

	// Half a second between probes, four unanswered ones: the production
	// defaults.
	start := clock.Now()
	downErr := make(chan error, 4)
	peer := NewPeer("blackhole", func() (transport.Conn, error) { return net.Dial("blackhole") }, nil,
		Options{Clock: clock, OnDown: func(err error) { downErr <- err }})
	defer peer.Close()

	until(t, clock, "the silent peer to be declared dead", func() bool { return len(downErr) > 0 })
	if err := <-downErr; err == nil {
		t.Fatal("down callback with nil error")
	}
	if waited := clock.Now().Sub(start); waited < 5*500*time.Millisecond {
		t.Fatalf("declared dead after %v: before four probes could go unanswered", waited)
	}
}

// resetConn is a connection whose peer accepted and then reset: it dialed
// fine, and every Send fails.
type resetConn struct{ transport.Conn }

func (resetConn) Send(interface{}) error { return fmt.Errorf("connection reset by peer") }

// TestPeerHelloFailureBacksOff dials a peer that accepts and resets: the
// hello Send fails on the first four connections. Each failure must wait
// out the same growing backoff as a failed dial (50+100+200+400 ms) instead
// of redialing in a busy loop, and while it does the link reads down.
func TestPeerHelloFailureBacksOff(t *testing.T) {
	const resets = 4
	clock, net := newRig()
	srv := newTestServer(t, clock, net, "srv", SessionOptions{})
	defer srv.close()

	var dials atomic.Int64
	opts := Options{Clock: clock, Hello: protocol.ShardHello{Shard: 1, Name: "shard-1"}}
	start := clock.Now()
	peer := NewPeer("srv", func() (transport.Conn, error) {
		conn, err := net.Dial("srv")
		if err == nil && dials.Add(1) <= resets {
			conn = resetConn{conn}
		}
		return conn, err
	}, nil, opts)
	defer peer.Close()

	if peer.Alive() || peer.Send(protocol.Heartbeat{}) == nil {
		t.Fatal("a link that never got its hello through must read down and fail Sends fast")
	}
	until(t, clock, "link up after the resets stop", peer.Alive)
	if d, n := clock.Now().Sub(start), dials.Load(); n != resets+1 || d != 750*time.Millisecond {
		t.Fatalf("%d dials in %v, want %d dials spread over exactly the 750ms backoff envelope", n, d, resets+1)
	}
}
