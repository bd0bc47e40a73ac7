// Package remote makes actor references location-transparent across
// processes (Sec. 4.1: actor instances "may be co-located on the same
// process or distributed across multiple data centers"). A Peer manages one
// outbound connection to another process — dial, reconnect with exponential
// backoff, heartbeat liveness — over internal/transport's length-prefixed
// codec. On top of it, Ref implements actor.Ref by marshaling messages into
// protocol.ActorEnvelope frames. The serving side (session.go) answers
// heartbeats and routes inbound envelopes to a local actor registry.
package remote

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Dialer opens one connection to the peer (TCP or in-memory).
type Dialer func() (transport.Conn, error)

// A Peer probes its link every heartbeatInterval and declares it dead after
// heartbeatMiss consecutive unacknowledged probes; it redials after a
// backoff that doubles from backoffMin up to backoffMax.
const (
	heartbeatInterval      = 500 * time.Millisecond
	heartbeatMiss          = 4
	backoffMin, backoffMax = 50 * time.Millisecond, 5 * time.Second
)

// Options configures a Peer's connection management.
type Options struct {
	// Hello, if non-nil, is sent first on every (re)established connection
	// (e.g. a protocol.ShardHello announcing the shard's identity).
	Hello interface{}
	// OnUp/OnDown are invoked from the peer's management goroutine when the
	// connection (re)establishes or drops. They must not block.
	OnUp   func()
	OnDown func(err error)
	// Clock is what heartbeats, miss detection and the reconnect backoff wait
	// on: the clock of the link's process (nil: the wall clock).
	Clock actor.Clock
}

// Peer is one managed outbound connection to another process. It dials
// lazily, reconnects with exponential backoff after any failure, and
// declares the link dead when heartbeats go unacknowledged. Send fails fast
// while the link is down — callers own their retry semantics (an FL round
// tolerates a lost shard; it must never block on one).
type Peer struct {
	name    string
	dial    Dialer
	opts    Options
	handler func(msg interface{})

	mu     sync.Mutex
	conn   transport.Conn
	up     bool
	closed bool

	// sent/acked are heartbeat counters: sent increments per probe, acked
	// latches the highest echoed sequence.
	sent  atomic.Uint64
	acked atomic.Uint64

	// stop ends the reconnect backoff once the peer is closed.
	stop actor.Gate
}

// NewPeer starts managing a connection to the named peer. handler receives
// every inbound message that is not a heartbeat; it runs on the peer's
// reader goroutine and must not block indefinitely. The first dial happens
// immediately in the background.
func NewPeer(name string, dial Dialer, handler func(msg interface{}), opts Options) *Peer {
	opts.Clock = actor.OrWall(opts.Clock)
	if handler == nil {
		handler = func(interface{}) {}
	}
	p := &Peer{
		name:    name,
		dial:    dial,
		opts:    opts,
		handler: handler,
	}
	opts.Clock.Go(p.run)
	return p
}

// Name returns the peer's label.
func (p *Peer) Name() string { return p.name }

// Alive reports whether the link is currently up.
func (p *Peer) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up && !p.closed
}

// Send transmits one message, failing immediately when the link is down
// (the management goroutine keeps redialing in the background).
func (p *Peer) Send(msg interface{}) error {
	p.mu.Lock()
	conn, up := p.conn, p.up
	p.mu.Unlock()
	if !up || conn == nil {
		return fmt.Errorf("remote: peer %s is down", p.name)
	}
	return conn.Send(msg)
}

// Close tears the peer down permanently.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conn := p.conn
	p.mu.Unlock()
	p.stop.Close()
	if conn != nil {
		conn.Close()
	}
}

// run is the management loop: dial, pump, backoff, repeat.
func (p *Peer) run() {
	backoff := backoffMin
	for {
		conn, err := p.dial()
		if err == nil && p.opts.Hello != nil {
			// A peer that accepts and then resets fails here, not at dial;
			// it must back off the same way or this loop spins.
			if err = conn.Send(p.opts.Hello); err != nil {
				conn.Close()
			}
		}
		if err != nil {
			if !actor.Sleep(p.opts.Clock, backoff, &p.stop) {
				return
			}
			backoff = min(2*backoff, backoffMax)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conn = conn
		p.up = true
		p.sent.Store(0)
		p.acked.Store(0)
		p.mu.Unlock()
		backoff = backoffMin
		if p.opts.OnUp != nil {
			p.opts.OnUp()
		}

		err = p.pump(conn)

		p.mu.Lock()
		p.up = false
		p.conn = nil
		closed := p.closed
		p.mu.Unlock()
		conn.Close()
		if p.opts.OnDown != nil && !closed {
			p.opts.OnDown(err)
		}
		if closed {
			return
		}
	}
}

// pump services one live connection: a reader goroutine dispatches inbound
// messages while this goroutine drives the heartbeat clock. Returns when
// the connection dies (Close closes it) or heartbeats lapse.
func (p *Peer) pump(conn transport.Conn) error {
	var readErr error
	var dead actor.Gate
	p.opts.Clock.Go(func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				readErr = err
				dead.Close()
				return
			}
			p.dispatch(conn, msg)
		}
	})

	for actor.Sleep(p.opts.Clock, heartbeatInterval, &dead) {
		seq := p.sent.Add(1)
		if seq-p.acked.Load() > heartbeatMiss {
			return fmt.Errorf("remote: peer %s missed %d heartbeats", p.name, heartbeatMiss)
		}
		if err := conn.Send(protocol.Heartbeat{Seq: seq}); err != nil {
			return err
		}
		// Re-announce the hello once per miss window: the connection-open
		// hello rides an unacknowledged link, and a peer that loses it
		// would otherwise stay connected-but-unregistered forever. The
		// receiver treats duplicate hellos on one session as no-ops.
		if p.opts.Hello != nil && seq%heartbeatMiss == 0 {
			if err := conn.Send(p.opts.Hello); err != nil {
				return err
			}
		}
	}
	return readErr
}

// dispatch routes one inbound message: heartbeats are infrastructure,
// everything else goes to the handler.
func (p *Peer) dispatch(conn transport.Conn, msg interface{}) {
	switch m := msg.(type) {
	case protocol.Heartbeat:
		if m.Ack {
			// Latch the highest acked sequence.
			for {
				cur := p.acked.Load()
				if m.Seq <= cur || p.acked.CompareAndSwap(cur, m.Seq) {
					break
				}
			}
		} else {
			_ = conn.Send(protocol.Heartbeat{Seq: m.Seq, Ack: true})
		}
	default:
		p.handler(msg)
	}
}
