package protocol

import (
	"fmt"
	"strings"

	"repro/internal/wire"
)

// The wire table and the one binary codec of the protocol messages: each
// type code's facts are a row of the table, each message's layout one walk
// over a wire.Codec. A type without a code cannot cross the wire.

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
	// Sharded-deployment messages (shard.go).
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

// Frame ceilings, version and code bytes included.
const (
	// bulkFrame bounds the bulk messages, which carry a model, a plan or a
	// registry export.
	bulkFrame = 1 << 30
	// smallFrame bounds the control messages, whose largest legitimate
	// field is a device's 40-byte attestation token or a free-text reason.
	smallFrame = 64 << 10
)

// Sender is the side of a link that may send a code.
type Sender string

const (
	Device Sender = "device"
	Server Sender = "server"
	// ShardLink: either end of a coordinator's link to a selector shard.
	ShardLink Sender = "shard link"
)

// Phase is a device session's place in the protocol of Sec. 2.2, one bit
// each so that a row can name a set of them.
type Phase uint8

const (
	PhaseCheckin    Phase = 1 << iota // the check-in is sent, its verdict awaited
	PhaseConfigured                   // the plan and global are held, nothing reported
	PhaseReported                     // the report is sent, its verdict awaited
	PhaseDone                         // the session ended
	PhaseAborted                      // the server aborted the session
)

var phaseNames = [...]string{"checkin", "configured", "reported", "done", "aborted"}

// String names the phases in p.
func (p Phase) String() string {
	var names []string
	for i, name := range phaseNames {
		if p&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, " or ")
}

// Row is one type code's entry in the wire table.
type Row struct {
	Name string
	// Ceiling is the longest frame a peer may send under the code; the
	// transport refuses a longer one from its header, before reading it.
	Ceiling int
	// Leased marks the codes whose payload the TCP transport may read into
	// a pooled buffer: each is consumed before its reader's next Recv or
	// held (a shard holds a RoundConfig's frame for its round).
	Leased bool
	// Sender is who may send the code.
	Sender Sender
	// Phases are the session phases a device-link code is legal in.
	Phases Phase
}

var table = [codeEnd]Row{
	CodeCheckinRequest:    {"CheckinRequest", smallFrame, false, Device, PhaseCheckin},
	CodeCheckinResponse:   {"CheckinResponse", bulkFrame, true, Server, PhaseCheckin},
	CodeReportRequest:     {"ReportRequest", bulkFrame, true, Device, PhaseConfigured},
	CodeReportResponse:    {"ReportResponse", smallFrame, false, Server, PhaseReported},
	CodeAbort:             {"Abort", smallFrame, false, Server, PhaseCheckin | PhaseReported},
	CodeStripeSeal:        {"StripeSeal", bulkFrame, true, ShardLink, 0},
	CodeRoundConfig:       {"RoundConfig", bulkFrame, true, ShardLink, 0},
	CodeRoundFinalize:     {"RoundFinalize", smallFrame, false, ShardLink, 0},
	CodeRoundAbort:        {"RoundAbort", smallFrame, false, ShardLink, 0},
	CodeShardHello:        {"ShardHello", smallFrame, false, ShardLink, 0},
	CodeCheckinRate:       {"CheckinRate", smallFrame, false, ShardLink, 0},
	CodeActorEnvelope:     {"ActorEnvelope", bulkFrame, false, ShardLink, 0},
	CodeHeartbeat:         {"Heartbeat", smallFrame, false, ShardLink, 0},
	CodeTelemetrySnapshot: {"TelemetrySnapshot", bulkFrame, false, ShardLink, 0},
}

// Lookup returns code's row, so a transport can judge a frame by its header
// before committing memory to its payload; ok is false for an unknown code.
func Lookup(code byte) (row Row, ok bool) {
	if code == 0 || code >= codeEnd {
		return Row{}, false
	}
	return table[code], true
}

// Judge returns msg's type code when msg may arrive from a peer that is
// from in a device session at phase, and otherwise an error naming what
// arrived and when. A legal message costs a sizing walk, which names its
// code, and a table read: no allocation.
func Judge(msg interface{}, from Sender, phase Phase) (byte, error) {
	var c wire.Codec
	code := walk(&c, msg)
	if row := table[code]; row.Sender != from || row.Phases&phase == 0 {
		return 0, fmt.Errorf("protocol: %T from the %s is illegal in phase %s", msg, from, phase)
	}
	return code, nil
}

// Size returns the length of msg's MarshalBinary payload from a sizing
// walk, without encoding it; 0 for a type without a code.
func Size(msg interface{}) int {
	var c wire.Codec
	walk(&c, msg)
	return c.Size()
}

// MarshalBinary encodes one protocol message into a single contiguous buffer.
// ok is false for any other type.
func MarshalBinary(msg interface{}) (code byte, payload []byte, ok bool) {
	code, payload, _ = AppendBinary(nil, nil, msg, false)
	return code, payload, code != 0
}

// AppendBinary measures msg, then appends its MarshalBinary payload to buf,
// which grows only when its capacity is short, so a caller that owns buf
// encodes with no allocation. With aliased, every non-empty byte field — an
// Update, a Plan, a Checkpoint, a Sum — stays out of buf: the segments of
// buf's bytes and the payload are appended to parts and returned, each byte
// field a segment of its own ALIASED from msg, so a vectored write ships a
// multi-MB update without copying it. msg's byte fields must not change
// until the segments have been written. code is 0 for a type without one.
func AppendBinary(buf []byte, parts [][]byte, msg interface{}, aliased bool) (code byte, out []byte, segs [][]byte) {
	var c wire.Codec
	if walk(&c, msg) == 0 {
		return 0, buf, parts
	}
	c.EncodeAfter(buf, parts, aliased)
	if code = walk(&c, msg); aliased {
		parts = c.Parts()
	}
	return code, c.Encoded(), parts
}

// walk runs msg's layout over c and returns its type code, 0 for a type
// without one.
func walk(c *wire.Codec, msg interface{}) (code byte) {
	switch m := msg.(type) {
	case CheckinRequest:
		_, code = m.walk(c)
	case CheckinResponse:
		_, code = m.walk(c)
	case ReportRequest:
		_, code = m.walk(c)
	case ReportResponse:
		_, code = m.walk(c)
	case Abort:
		_, code = m.walk(c)
	case StripeSeal:
		_, code = m.walk(c)
	case RoundConfig:
		_, code = m.walk(c)
	case RoundFinalize:
		_, code = m.walk(c)
	case RoundAbort:
		_, code = m.walk(c)
	case ShardHello:
		_, code = m.walk(c)
	case CheckinRate:
		_, code = m.walk(c)
	case ActorEnvelope:
		_, code = m.walk(c)
	case Heartbeat:
		_, code = m.walk(c)
	case TelemetrySnapshot:
		_, code = m.walk(c)
	}
	return code
}

// UnmarshalBinary decodes a payload produced by MarshalBinary. Byte-slice
// fields alias the payload buffer (each received frame owns its buffer, so
// decode is copy-free). A truncated, non-canonical or trailing-garbage
// payload returns an error, never panics.
func UnmarshalBinary(code byte, payload []byte) (interface{}, error) {
	c := wire.Decoder(payload)
	var msg interface{}
	switch code {
	case CodeCheckinRequest:
		msg, _ = CheckinRequest{}.walk(&c)
	case CodeCheckinResponse:
		msg, _ = CheckinResponse{}.walk(&c)
	case CodeReportRequest:
		msg, _ = ReportRequest{}.walk(&c)
	case CodeReportResponse:
		msg, _ = ReportResponse{}.walk(&c)
	case CodeAbort:
		msg, _ = Abort{}.walk(&c)
	case CodeStripeSeal:
		msg, _ = StripeSeal{}.walk(&c)
	case CodeRoundConfig:
		msg, _ = RoundConfig{}.walk(&c)
	case CodeRoundFinalize:
		msg, _ = RoundFinalize{}.walk(&c)
	case CodeRoundAbort:
		msg, _ = RoundAbort{}.walk(&c)
	case CodeShardHello:
		msg, _ = ShardHello{}.walk(&c)
	case CodeCheckinRate:
		msg, _ = CheckinRate{}.walk(&c)
	case CodeActorEnvelope:
		msg, _ = ActorEnvelope{}.walk(&c)
	case CodeHeartbeat:
		msg, _ = Heartbeat{}.walk(&c)
	case CodeTelemetrySnapshot:
		msg, _ = TelemetrySnapshot{}.walk(&c)
	default:
		return nil, fmt.Errorf("protocol: unknown type code %d", code)
	}
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("protocol: type code %d: %w", code, err)
	}
	return msg, nil
}

// The layouts. Each walk names the message's fields in wire order and
// returns the message — holding what it read, on a decoding pass — and its
// type code.

func (m CheckinRequest) walk(c *wire.Codec) (CheckinRequest, byte) {
	c.Str(&m.DeviceID)
	c.Str(&m.Population)
	c.Int(&m.RuntimeVersion)
	c.Bytes(&m.AttestationToken)
	return m, CodeCheckinRequest
}

func (m CheckinResponse) walk(c *wire.Codec) (CheckinResponse, byte) {
	c.Bool(&m.Accepted)
	c.Dur(&m.RetryAfter)
	c.Str(&m.Reason)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.Bytes(&m.Plan)
	c.Bytes(&m.Checkpoint)
	c.Dur(&m.ReportDeadline)
	return m, CodeCheckinResponse
}

func (m ReportRequest) walk(c *wire.Codec) (ReportRequest, byte) {
	c.Str(&m.DeviceID)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.Bytes(&m.Update)
	c.F64Map(&m.Metrics)
	c.Bool(&m.Aborted)
	return m, CodeReportRequest
}

func (m ReportResponse) walk(c *wire.Codec) (ReportResponse, byte) {
	c.Bool(&m.Accepted)
	c.Str(&m.Reason)
	c.Dur(&m.RetryAfter)
	return m, CodeReportResponse
}

func (m Abort) walk(c *wire.Codec) (Abort, byte) {
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.Str(&m.Reason)
	return m, CodeAbort
}

func (m StripeSeal) walk(c *wire.Codec) (StripeSeal, byte) {
	c.Str(&m.Population)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.U32(&m.Shard)
	c.I64(&m.Reports)
	c.I64(&m.EvalReports)
	c.I64(&m.Lost)
	c.I64(&m.Aborted)
	c.I64(&m.Clipped)
	c.F64(&m.Weight)
	c.Bytes(&m.Sum)
	c.F64sMap(&m.Metrics)
	c.I64Map(&m.Phases)
	c.Strs(&m.Blamed)
	c.Strs(&m.GroupErrors)
	c.Strs(&m.RobustRejected)
	return m, CodeStripeSeal
}

func (m RoundConfig) walk(c *wire.Codec) (RoundConfig, byte) {
	c.Str(&m.Population)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.Int(&m.Target)
	c.Int(&m.Admit)
	c.Int(&m.MinReports)
	c.Int(&m.MinRuntime)
	c.Int(&m.Estimate)
	c.Bytes(&m.Plan)
	c.Bytes(&m.Checkpoint)
	return m, CodeRoundConfig
}

func (m RoundFinalize) walk(c *wire.Codec) (RoundFinalize, byte) {
	c.Str(&m.Population)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	return m, CodeRoundFinalize
}

func (m RoundAbort) walk(c *wire.Codec) (RoundAbort, byte) {
	c.Str(&m.Population)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.Str(&m.Reason)
	return m, CodeRoundAbort
}

func (m ShardHello) walk(c *wire.Codec) (ShardHello, byte) {
	c.U32(&m.Shard)
	c.Str(&m.Name)
	return m, CodeShardHello
}

func (m CheckinRate) walk(c *wire.Codec) (CheckinRate, byte) {
	c.Str(&m.Population)
	c.U32(&m.Shard)
	c.Str(&m.Source)
	c.I64(&m.Count)
	c.Dur(&m.Elapsed)
	c.I64(&m.Demand)
	return m, CodeCheckinRate
}

func (m ActorEnvelope) walk(c *wire.Codec) (ActorEnvelope, byte) {
	c.Str(&m.Target)
	c.Bytes(&m.Payload)
	return m, CodeActorEnvelope
}

func (m Heartbeat) walk(c *wire.Codec) (Heartbeat, byte) {
	c.U64(&m.Seq)
	c.Bool(&m.Ack)
	return m, CodeHeartbeat
}

func (m TelemetrySnapshot) walk(c *wire.Codec) (TelemetrySnapshot, byte) {
	c.U32(&m.Shard)
	c.Str(&m.Name)
	c.I64Map(&m.Counters)
	c.F64Map(&m.Gauges)
	c.F64sMap(&m.Summaries)
	return m, CodeTelemetrySnapshot
}
