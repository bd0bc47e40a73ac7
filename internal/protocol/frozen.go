package protocol

import "fmt"

// This file is kept for benchmark/ until ROADMAP 14, whose remote.envelope_rt
// sends an ActorEnvelope through remote's frozen Ref and whose
// protocol.encode layer times MarshalBinaryParts. No product file calls a
// name declared here (TestBenchmarkSurface checks it); the envelope's codec
// row and walk stay with the other messages, and the transport frames with
// AppendBinary.

// NewActorEnvelope wraps msg, which must be a protocol message other than
// an ActorEnvelope, for delivery to the named actor.
func NewActorEnvelope(target string, msg interface{}) (ActorEnvelope, error) {
	code, body, ok := MarshalBinary(msg)
	if !ok || code == CodeActorEnvelope {
		return ActorEnvelope{}, fmt.Errorf("protocol: %T cannot ride an actor envelope", msg)
	}
	payload := make([]byte, 0, 1+len(body))
	return ActorEnvelope{Target: target, Payload: append(append(payload, code), body...)}, nil
}

// Message decodes the enveloped message. Byte fields alias Payload.
func (e ActorEnvelope) Message() (interface{}, error) {
	if len(e.Payload) == 0 || e.Payload[0] == CodeActorEnvelope {
		return nil, fmt.Errorf("protocol: actor envelope for %q is empty or nested", e.Target)
	}
	return UnmarshalBinary(e.Payload[0], e.Payload[1:])
}

// MarshalBinaryParts encodes one protocol message as byte segments whose
// concatenation is the MarshalBinary payload: AppendBinary with aliased
// set, into fresh buffers. ok is false for any other type.
func MarshalBinaryParts(msg interface{}) (code byte, parts [][]byte, ok bool) {
	code, _, parts = AppendBinary(nil, nil, msg, true)
	return code, parts, code != 0
}
