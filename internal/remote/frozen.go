package remote

import (
	"sync"

	"repro/internal/actor"
	"repro/internal/protocol"
)

// This file is kept for benchmark/ until ROADMAP 14, whose
// remote.envelope_rt sends an ActorEnvelope through a Ref and a Session
// routes it to a registered actor. No product file calls a name declared
// here but Session.Run's envelope case and SessionOptions.Registry's type
// (TestBenchmarkSurface checks it): the shard link sends typed messages
// through Peer and Session.

// Ref addresses an actor living in the peer process by registry name.
type Ref struct {
	peer   *Peer
	target string
}

// Ref returns a reference to the named actor on the peer process.
func (p *Peer) Ref(target string) *Ref {
	return &Ref{peer: p, target: target}
}

// Send hands msg, which must be a protocol message, to the peer link inside
// an ActorEnvelope, for the peer's registered actor.
func (r *Ref) Send(msg actor.Message) error {
	env, err := protocol.NewActorEnvelope(r.target, msg)
	if err != nil {
		return err
	}
	return r.peer.Send(env)
}

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

// deliver routes one envelope to the registered local actor; unknown
// targets and dead actors are dropped (the sender's liveness signal is the
// heartbeat, not per-message acks).
func (s *Session) deliver(e protocol.ActorEnvelope) {
	if s.opts.Registry == nil {
		return
	}
	s.opts.Registry.mu.Lock()
	ref, ok := s.opts.Registry.refs[e.Target]
	s.opts.Registry.mu.Unlock()
	if !ok {
		return
	}
	if msg, err := e.Message(); err == nil {
		_ = ref.Send(msg)
	}
}
