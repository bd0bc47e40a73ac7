package remote

import (
	"fmt"
	"sync/atomic"

	"repro/internal/actor"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// SessionOptions configures the serving side of one accepted peer
// connection.
type SessionOptions struct {
	// Registry resolves ActorEnvelope targets; nil rejects all envelopes.
	// Frozen: only benchmark/ sets it, kept until ROADMAP 14 (frozen.go).
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
	clock  actor.Clock
	sendQ  *actor.Queue[interface{}]
	closed atomic.Bool
	// written holds nothing; the writer closes it as it returns.
	written *actor.Queue[struct{}]
}

// NewSession wraps an accepted connection, its writer running on clock (the
// wall clock when none, or nil, is given). Run must be called to serve it.
func NewSession(conn transport.Conn, opts SessionOptions, clock ...actor.Clock) *Session {
	if opts.Handle == nil {
		opts.Handle = func(interface{}) {}
	}
	s := &Session{conn: conn, opts: opts, clock: actor.OrWall(clock...),
		sendQ: actor.NewQueue[interface{}](sendQueue), written: actor.NewQueue[struct{}](0)}
	s.clock.Go(s.writer)
	return s
}

// writer drains the bounded send queue to the connection and drops each
// queued message's loan reference once it is written; once the session is
// closed, what is left drains unsent. A write error closes the connection
// (the reader in Run sees the close and closes the session).
func (s *Session) writer() {
	defer s.written.Close()
	for {
		msg, ok := s.sendQ.Pop(s.clock)
		if !ok {
			return
		}
		if !s.Closed() && s.conn.Send(msg) != nil {
			s.conn.Close()
		}
		transport.LoanOf(msg).Release()
	}
}

// Closed reports whether the session's connection has ended.
func (s *Session) Closed() bool { return s.closed.Load() }

// Close tears the session down and returns once its writer has returned,
// every loan of what was still queued given back.
func (s *Session) Close() {
	s.closed.Store(true)
	s.sendQ.Close()
	s.conn.Close()
	s.written.Pop(s.clock)
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

// Run serves the connection until it dies, answering heartbeats and handing
// every other message to Handle (an envelope to the frozen Registry). It
// always returns the terminal receive error and leaves the session Closed.
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
