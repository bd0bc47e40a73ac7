package remote

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/actor"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Registry names the local actors a peer process may address through
// ActorEnvelope frames. Only registered actors are reachable — a remote
// peer cannot send to arbitrary mailboxes.
type Registry struct {
	mu   sync.Mutex
	refs map[string]actor.Ref
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{refs: make(map[string]actor.Ref)}
}

// Register exposes ref to remote peers under name (latest wins).
func (g *Registry) Register(name string, ref actor.Ref) {
	g.mu.Lock()
	g.refs[name] = ref
	g.mu.Unlock()
}

// Lookup resolves a name.
func (g *Registry) Lookup(name string) (actor.Ref, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.refs[name]
	return r, ok
}

// SessionOptions configures the serving side of one accepted peer
// connection.
type SessionOptions struct {
	// Registry resolves ActorEnvelope targets; nil rejects all envelopes.
	Registry *Registry
	// Handle receives every message that is not connection infrastructure
	// (heartbeats, envelopes). It runs on the session goroutine, which ends
	// the message's receive lease (transport.Conn.Recv) when Handle returns:
	// a handler that keeps a StripeSeal's Sum must copy it first.
	Handle func(msg interface{})
}

// sendQueue bounds the asynchronous Send queue. Session.Send enqueues and
// returns; a writer goroutine drains to the connection, so a slow or
// fault-injected link cannot wedge the coordinator actor behind one
// blocking write. A full queue fails the Send — the caller treats it exactly
// like a dead link. A round puts at most three control messages (config,
// finalize, abort) on a link, so 64 fills only when the link is wedged.
const sendQueue = 64

// Session is one accepted peer connection being served.
type Session struct {
	conn   transport.Conn
	opts   SessionOptions
	sendQ  *actor.Queue[interface{}]
	closed atomic.Bool
}

// NewSession wraps an accepted connection, its writer running on clock (the
// wall clock when none, or nil, is given). Run must be called to serve it.
func NewSession(conn transport.Conn, opts SessionOptions, clock ...actor.Clock) *Session {
	if opts.Handle == nil {
		opts.Handle = func(interface{}) {}
	}
	c := actor.OrWall(clock...)
	s := &Session{conn: conn, opts: opts, sendQ: actor.NewQueue[interface{}](sendQueue)}
	c.Go(func() { s.writer(c) })
	return s
}

// writer drains the bounded send queue to the connection, waiting on c, and
// drops each queued message's loan reference once it is written; once the
// session is closed, what is left drains unsent. A write error closes the
// session (the reader in Run sees the close and returns).
func (s *Session) writer(c actor.Clock) {
	for {
		msg, ok := s.sendQ.Pop(c)
		if !ok {
			return
		}
		if !s.Closed() && s.conn.Send(msg) != nil {
			s.Close()
		}
		transport.LoanOf(msg).Release()
	}
}

// Closed reports whether the session's connection has ended.
func (s *Session) Closed() bool { return s.closed.Load() }

// Close tears the session down.
func (s *Session) Close() {
	s.closed.Store(true)
	s.sendQ.Close()
	s.conn.Close()
}

// Send enqueues one message for the writer goroutine (round configs,
// finalizes — the server side talks back on the same link). It never blocks:
// a closed session or a full queue (a link wedged under injected latency)
// fails immediately, and the caller handles it like a dead link. A queued
// message holds its own reference to the loan behind it (transport.Lend).
func (s *Session) Send(msg interface{}) error {
	if s.Closed() {
		return fmt.Errorf("remote: session closed")
	}
	loan := transport.LoanOf(msg)
	loan.Acquire()
	if !s.sendQ.Push(msg, nil) {
		loan.Release()
		return fmt.Errorf("remote: session send queue full (%d)", sendQueue)
	}
	return nil
}

// Run serves the connection until it dies, answering heartbeats and routing
// envelopes. It always returns the terminal receive error and leaves the
// session Closed.
func (s *Session) Run() error {
	defer s.Close()
	for {
		msg, err := s.conn.Recv()
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case protocol.Heartbeat:
			if !m.Ack {
				if err := s.conn.Send(protocol.Heartbeat{Seq: m.Seq, Ack: true}); err != nil {
					return err
				}
			}
		case protocol.ActorEnvelope:
			s.deliver(m)
		default:
			s.opts.Handle(msg)
			s.conn.Release()
		}
	}
}

// deliver routes one envelope to the registered local actor; unknown
// targets and dead actors are dropped (the sender's liveness signal is the
// heartbeat, not per-message acks).
func (s *Session) deliver(e protocol.ActorEnvelope) {
	if s.opts.Registry == nil {
		return
	}
	ref, ok := s.opts.Registry.Lookup(e.Target)
	if !ok {
		return
	}
	msg, err := e.Message()
	if err != nil {
		return
	}
	_ = ref.Send(msg)
}
