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

// Options tunes a Peer's connection management.
type Options struct {
	// Hello, if non-nil, is sent first on every (re)established connection
	// (e.g. a protocol.ShardHello announcing the shard's identity).
	Hello interface{}
	// HeartbeatInterval paces liveness probes (default 500ms).
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how many consecutive unacknowledged probes declare
	// the peer dead (default 4).
	HeartbeatMiss int
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults 50ms, 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// OnUp/OnDown are invoked from the peer's management goroutine when the
	// connection (re)establishes or drops. They must not block.
	OnUp   func()
	OnDown func(err error)
	// Clock is what heartbeats, miss detection and the reconnect backoff wait
	// on: the clock of the link's process (nil: the wall clock).
	Clock actor.Clock
}

func (o *Options) defaults() {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.HeartbeatMiss <= 0 {
		o.HeartbeatMiss = 4
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Clock == nil {
		o.Clock = actor.Wall
	}
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

	done chan struct{}
}

// NewPeer starts managing a connection to the named peer. handler receives
// every inbound message that is not a heartbeat; it runs on the peer's
// reader goroutine and must not block indefinitely. The first dial happens
// immediately in the background.
func NewPeer(name string, dial Dialer, handler func(msg interface{}), opts Options) *Peer {
	opts.defaults()
	if handler == nil {
		handler = func(interface{}) {}
	}
	p := &Peer{
		name:    name,
		dial:    dial,
		opts:    opts,
		handler: handler,
		done:    make(chan struct{}),
	}
	go p.run()
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
	close(p.done)
	if conn != nil {
		conn.Close()
	}
}

// run is the management loop: dial, pump, backoff, repeat.
func (p *Peer) run() {
	backoff := p.opts.BackoffMin
	for {
		select {
		case <-p.done:
			return
		default:
		}
		conn, err := p.dial()
		if err == nil && p.opts.Hello != nil {
			// A peer that accepts and then resets fails here, not at dial;
			// it must back off the same way or this loop spins.
			if err = conn.Send(p.opts.Hello); err != nil {
				conn.Close()
			}
		}
		if err != nil {
			wait, timer := actor.After(p.opts.Clock, backoff)
			select {
			case <-p.done:
				timer.Stop()
				return
			case <-wait:
			}
			backoff *= 2
			if backoff > p.opts.BackoffMax {
				backoff = p.opts.BackoffMax
			}
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
		backoff = p.opts.BackoffMin
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
// the connection dies or heartbeats lapse.
func (p *Peer) pump(conn transport.Conn) error {
	readErr := make(chan error, 1)
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				readErr <- err
				return
			}
			p.dispatch(conn, msg)
		}
	}()

	for {
		tick, timer := actor.After(p.opts.Clock, p.opts.HeartbeatInterval)
		select {
		case <-p.done:
			timer.Stop()
			return fmt.Errorf("remote: peer %s closed", p.name)
		case err := <-readErr:
			timer.Stop()
			return err
		case <-tick:
			seq := p.sent.Add(1)
			if seq-p.acked.Load() > uint64(p.opts.HeartbeatMiss) {
				return fmt.Errorf("remote: peer %s missed %d heartbeats", p.name, p.opts.HeartbeatMiss)
			}
			if err := conn.Send(protocol.Heartbeat{Seq: seq}); err != nil {
				return err
			}
			// Re-announce the hello once per miss window: the connection-open
			// hello rides an unacknowledged link, and a peer that loses it
			// would otherwise stay connected-but-unregistered forever. The
			// receiver treats duplicate hellos on one session as no-ops.
			if p.opts.Hello != nil && seq%uint64(p.opts.HeartbeatMiss) == 0 {
				if err := conn.Send(p.opts.Hello); err != nil {
					return err
				}
			}
		}
	}
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
