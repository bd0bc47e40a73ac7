package protocol

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// Binary wire codec for the protocol messages: the only serialisation a
// message has. With multi-MB plan/checkpoint/update payloads flowing once
// per device per round, each message is written into exact-size buffers
// with no reflection, following internal/wire's layout conventions.
//
// The transport frames each payload with a wire-version byte and one of
// these type codes. A type without a code here cannot cross the wire.

// Type codes carried in the transport frame header.
const (
	// Code 0 is reserved and never assigned, so an all-zero frame is
	// rejected like any unknown code.
	_ byte = iota
	CodeCheckinRequest
	CodeCheckinResponse
	CodeReportRequest
	CodeReportResponse
	CodeAbort
	// Sharded-deployment messages (shard.go, codec in shardcodec.go).
	CodeStripeSeal
	CodeRoundConfig
	CodeRoundFinalize
	CodeRoundAbort
	CodeShardHello
	CodeCheckinRate
	CodeActorEnvelope
	CodeHeartbeat
	CodeTelemetrySnapshot
	codeEnd
)

// KnownCode reports whether code names a message type, so a transport can
// reject a frame by its header before committing memory to its payload.
func KnownCode(code byte) bool { return code > 0 && code < codeEnd }

// MarshalBinaryParts encodes one protocol message as an
// ordered list of byte segments whose concatenation is the MarshalBinary
// payload. Large byte-slice fields — a ReportRequest's Update, a
// CheckinResponse's Plan and Checkpoint — are returned as their own
// segments, ALIASED from the message rather than copied, so a transport
// with vectored writes ships a multi-MB update without ever building a
// contiguous frame: the per-report O(dim) payload copy disappears from the
// uplink hot path. Callers must not mutate the message's byte fields until
// the parts have been written. ok is false for any other type.
func MarshalBinaryParts(msg interface{}) (code byte, parts [][]byte, ok bool) {
	switch m := msg.(type) {
	case CheckinRequest:
		buf := make([]byte, 0, wire.SizeStr(m.DeviceID)+wire.SizeStr(m.Population)+8+wire.SizeBytes(m.AttestationToken))
		buf = wire.AppendStr(buf, m.DeviceID)
		buf = wire.AppendStr(buf, m.Population)
		buf = wire.AppendI64(buf, int64(m.RuntimeVersion))
		buf = wire.AppendBytes(buf, m.AttestationToken)
		return CodeCheckinRequest, [][]byte{buf}, true
	case CheckinResponse:
		head := make([]byte, 0, 1+8+wire.SizeStr(m.Reason)+wire.SizeStr(m.TaskID)+8+4)
		head = wire.AppendBool(head, m.Accepted)
		head = wire.AppendI64(head, int64(m.RetryAfter))
		head = wire.AppendStr(head, m.Reason)
		head = wire.AppendStr(head, m.TaskID)
		head = wire.AppendI64(head, m.Round)
		head = wire.AppendU32(head, uint32(len(m.Plan)))
		mid := make([]byte, 0, 4)
		mid = wire.AppendU32(mid, uint32(len(m.Checkpoint)))
		tail := make([]byte, 0, 8)
		tail = wire.AppendI64(tail, int64(m.ReportDeadline))
		return CodeCheckinResponse, [][]byte{head, m.Plan, mid, m.Checkpoint, tail}, true
	case ReportRequest:
		head := make([]byte, 0, wire.SizeStr(m.DeviceID)+wire.SizeStr(m.TaskID)+8+4)
		head = wire.AppendStr(head, m.DeviceID)
		head = wire.AppendStr(head, m.TaskID)
		head = wire.AppendI64(head, m.Round)
		head = wire.AppendU32(head, uint32(len(m.Update)))
		tail := make([]byte, 0, wire.SizeMetrics(m.Metrics)+1)
		tail = wire.AppendMetrics(tail, m.Metrics)
		tail = wire.AppendBool(tail, m.Aborted)
		return CodeReportRequest, [][]byte{head, m.Update, tail}, true
	case ReportResponse:
		buf := make([]byte, 0, 1+wire.SizeStr(m.Reason)+8)
		buf = wire.AppendBool(buf, m.Accepted)
		buf = wire.AppendStr(buf, m.Reason)
		buf = wire.AppendI64(buf, int64(m.RetryAfter))
		return CodeReportResponse, [][]byte{buf}, true
	case Abort:
		buf := make([]byte, 0, wire.SizeStr(m.TaskID)+8+wire.SizeStr(m.Reason))
		buf = wire.AppendStr(buf, m.TaskID)
		buf = wire.AppendI64(buf, m.Round)
		buf = wire.AppendStr(buf, m.Reason)
		return CodeAbort, [][]byte{buf}, true
	}
	return marshalShardParts(msg)
}

// MarshalBinary encodes one protocol message into a single
// contiguous buffer (the concatenation of MarshalBinaryParts). ok is false
// for any other type.
func MarshalBinary(msg interface{}) (code byte, payload []byte, ok bool) {
	code, parts, ok := MarshalBinaryParts(msg)
	if !ok {
		return 0, nil, false
	}
	if len(parts) == 1 {
		return code, parts[0], true
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	buf := make([]byte, 0, n)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return code, buf, true
}

// UnmarshalBinary decodes a payload produced by MarshalBinary. Byte-slice
// fields alias the payload buffer (each received frame owns its buffer, so
// decode is copy-free). A truncated or inconsistent payload returns an
// error, never panics.
func UnmarshalBinary(code byte, payload []byte) (interface{}, error) {
	r := wire.NewReader(payload)
	var msg interface{}
	switch code {
	case CodeCheckinRequest:
		m := CheckinRequest{}
		m.DeviceID = r.Str()
		m.Population = r.Str()
		m.RuntimeVersion = int(r.I64())
		m.AttestationToken = r.Bytes()
		msg = m
	case CodeCheckinResponse:
		m := CheckinResponse{}
		m.Accepted = r.Bool()
		m.RetryAfter = time.Duration(r.I64())
		m.Reason = r.Str()
		m.TaskID = r.Str()
		m.Round = r.I64()
		m.Plan = r.Bytes()
		m.Checkpoint = r.Bytes()
		m.ReportDeadline = time.Duration(r.I64())
		msg = m
	case CodeReportRequest:
		m := ReportRequest{}
		m.DeviceID = r.Str()
		m.TaskID = r.Str()
		m.Round = r.I64()
		m.Update = r.Bytes()
		m.Metrics = r.Metrics()
		m.Aborted = r.Bool()
		msg = m
	case CodeReportResponse:
		m := ReportResponse{}
		m.Accepted = r.Bool()
		m.Reason = r.Str()
		m.RetryAfter = time.Duration(r.I64())
		msg = m
	case CodeAbort:
		m := Abort{}
		m.TaskID = r.Str()
		m.Round = r.I64()
		m.Reason = r.Str()
		msg = m
	default:
		m, handled := unmarshalShard(code, r)
		if !handled {
			return nil, fmt.Errorf("protocol: unknown type code %d", code)
		}
		msg = m
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("protocol: type code %d: %w", code, err)
	}
	return msg, nil
}
