package remote

import (
	"repro/internal/actor"
	"repro/internal/protocol"
)

// Ref is the remote actor.Ref implementation: a handle to an actor living
// in the peer process, addressed by registry name. Send marshals the
// message into an ActorEnvelope frame on the peer link; Stopped reflects
// the link's heartbeat liveness, so supervision-style checks treat an
// unreachable peer's actors as dead. In-process refs never pass through
// here — local sends stay a channel operation.
type Ref struct {
	peer   *Peer
	target string
}

// Ref returns a location-transparent reference to the named actor on the
// peer process.
func (p *Peer) Ref(target string) *Ref {
	return &Ref{peer: p, target: target}
}

// Name implements actor.Ref.
func (r *Ref) Name() string { return r.target }

// Send implements actor.Ref: msg, which must be a protocol message, crosses
// the wire inside an ActorEnvelope and is delivered to the peer's
// registered actor.
func (r *Ref) Send(msg actor.Message) error {
	env, err := protocol.NewActorEnvelope(r.target, msg)
	if err != nil {
		return err
	}
	return r.peer.Send(env)
}

// Stop implements actor.Ref. Stopping a remote actor is its owning
// process's concern; a remote handle going away must not kill it, so this
// is a no-op (matching how dropping a local Ref does not stop the actor).
func (r *Ref) Stop() {}

// Stopped implements actor.Ref: true while the peer link is down.
func (r *Ref) Stopped() bool { return !r.peer.Alive() }

var _ actor.Ref = (*Ref)(nil)
