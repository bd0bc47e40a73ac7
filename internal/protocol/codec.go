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
	// Secure Aggregation's messages (secagg.go).
	CodeSecAggAdvertise
	CodeSecAggRoster
	CodeSecAggShares
	CodeSecAggRouted
	CodeSecAggComplaint
	CodeSecAggMaskSet
	CodeSecAggMasked
	CodeSecAggSurvivors
	CodeSecAggUnmask
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

// Phase is a device session's place in the protocol of Sec. 2.2, or in
// Secure Aggregation's four rounds (Sec. 6), one bit each so that a row can
// name a set of them.
type Phase uint16

const (
	PhaseCheckin    Phase = 1 << iota // the check-in is sent, its verdict awaited
	PhaseConfigured                   // the plan and global are held, nothing reported
	PhaseReported                     // the report is sent, its verdict awaited
	PhaseDone                         // the session ended
	PhaseAborted                      // the server aborted the session
	PhaseAdvertise                    // keys advertised; the roster not yet broadcast
	PhaseShare                        // shares dealt and relayed; the mask set not yet broadcast
	PhaseMask                         // masked inputs sent; the survivors not yet broadcast
	PhaseUnmask                       // unmask responses sent
)

var phaseNames = [...]string{"checkin", "configured", "reported", "done", "aborted", "advertise", "share", "mask", "unmask"}

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
	CodeSecAggAdvertise:   {"SecAggAdvertise", smallFrame, false, Device, PhaseAdvertise},
	CodeSecAggRoster:      {"SecAggRoster", bulkFrame, false, Server, PhaseAdvertise},
	CodeSecAggShares:      {"SecAggShares", bulkFrame, false, Device, PhaseShare},
	CodeSecAggRouted:      {"SecAggRouted", bulkFrame, false, Server, PhaseShare},
	CodeSecAggComplaint:   {"SecAggComplaint", smallFrame, false, Device, PhaseShare},
	CodeSecAggMaskSet:     {"SecAggMaskSet", smallFrame, false, Server, PhaseShare},
	CodeSecAggMasked:      {"SecAggMasked", bulkFrame, false, Device, PhaseMask},
	CodeSecAggSurvivors:   {"SecAggSurvivors", smallFrame, false, Server, PhaseMask},
	CodeSecAggUnmask:      {"SecAggUnmask", bulkFrame, false, Device, PhaseUnmask},
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
	code := CodeOf(msg)
	if row := table[code]; row.Sender != from || row.Phases&phase == 0 {
		return 0, fmt.Errorf("protocol: %T from the %s is illegal in phase %s", msg, from, phase)
	}
	return code, nil
}

// CodeOf returns msg's type code from a sizing walk, 0 for a type without
// one.
func CodeOf(msg interface{}) byte {
	var c wire.Codec
	return walk(&c, msg)
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
		code = m.walk(c)
	case CheckinResponse:
		code = m.walk(c)
	case ReportRequest:
		code = m.walk(c)
	case ReportResponse:
		code = m.walk(c)
	case Abort:
		code = m.walk(c)
	default:
		return walkPeer(c, msg)
	}
	return code
}

// walkPeer is walk for the shard and actor links' messages. Their copies
// live in its frame, not walk's: in one switch with the device link's they
// took 848 B, and a device session's reader grew its stack to send one
// ReportResponse.
func walkPeer(c *wire.Codec, msg interface{}) (code byte) {
	switch m := msg.(type) {
	case StripeSeal:
		code = m.walk(c)
	case RoundConfig:
		code = m.walk(c)
	case RoundFinalize:
		code = m.walk(c)
	case RoundAbort:
		code = m.walk(c)
	case ShardHello:
		code = m.walk(c)
	case CheckinRate:
		code = m.walk(c)
	case ActorEnvelope:
		code = m.walk(c)
	case Heartbeat:
		code = m.walk(c)
	case TelemetrySnapshot:
		code = m.walk(c)
	default:
		return walkSecAgg(c, msg)
	}
	return code
}

// UnmarshalBinary decodes a payload produced by MarshalBinary. Byte-slice
// fields alias the payload buffer (each received frame owns its buffer, so
// decode is copy-free). A truncated, non-canonical or trailing-garbage
// payload returns an error, never panics.
func UnmarshalBinary(code byte, payload []byte) (interface{}, error) {
	if code == 0 || code >= codeEnd {
		return nil, codeErr(code, nil)
	}
	msg, err := decoders[code](wire.Decoder(payload))
	if err != nil {
		return nil, codeErr(code, err)
	}
	return msg, nil
}

// UnmarshalInto is UnmarshalBinary for a reader that holds the message it
// expects: a payload of the type dst points to, a CheckinRequest or a
// ReportRequest, is decoded into *dst, with no box, and dst returned. Every
// field is overwritten, but a string equal to the one dst holds is kept.
func UnmarshalInto(dst any, code byte, payload []byte) (any, error) {
	var c wire.Codec
	if code == 0 || into(&c, dst) != code {
		return UnmarshalBinary(code, payload)
	}
	c = wire.Decoder(payload)
	into(&c, dst)
	if err := c.Finish(); err != nil {
		return nil, codeErr(code, err)
	}
	return dst, nil
}

// into runs the walk of the message dst points to over c and returns its
// type code, 0 for any other dst. Only decoding takes a pointer: walk, which
// sizes and encodes, refuses one.
func into(c *wire.Codec, dst any) byte {
	switch m := dst.(type) {
	case *CheckinRequest:
		return m.walk(c)
	case *ReportRequest:
		return m.walk(c)
	}
	return 0
}

//go:noinline
func codeErr(code byte, err error) error {
	if err == nil {
		return fmt.Errorf("protocol: unknown type code %d", code)
	}
	return fmt.Errorf("protocol: type code %d: %w", code, err)
}

// decoders walks each code in a function of its own, never inlined, so that
// a reader's stack does not grow at its first decode for temporaries of all.
var decoders = [codeEnd]func(c wire.Codec) (any, error){
	CodeCheckinRequest:    func(c wire.Codec) (any, error) { var m CheckinRequest; m.walk(&c); return m, c.Finish() },
	CodeCheckinResponse:   func(c wire.Codec) (any, error) { var m CheckinResponse; m.walk(&c); return m, c.Finish() },
	CodeReportRequest:     func(c wire.Codec) (any, error) { var m ReportRequest; m.walk(&c); return m, c.Finish() },
	CodeReportResponse:    func(c wire.Codec) (any, error) { var m ReportResponse; m.walk(&c); return m, c.Finish() },
	CodeAbort:             func(c wire.Codec) (any, error) { var m Abort; m.walk(&c); return m, c.Finish() },
	CodeStripeSeal:        func(c wire.Codec) (any, error) { var m StripeSeal; m.walk(&c); return m, c.Finish() },
	CodeRoundConfig:       func(c wire.Codec) (any, error) { var m RoundConfig; m.walk(&c); return m, c.Finish() },
	CodeRoundFinalize:     func(c wire.Codec) (any, error) { var m RoundFinalize; m.walk(&c); return m, c.Finish() },
	CodeRoundAbort:        func(c wire.Codec) (any, error) { var m RoundAbort; m.walk(&c); return m, c.Finish() },
	CodeShardHello:        func(c wire.Codec) (any, error) { var m ShardHello; m.walk(&c); return m, c.Finish() },
	CodeCheckinRate:       func(c wire.Codec) (any, error) { var m CheckinRate; m.walk(&c); return m, c.Finish() },
	CodeActorEnvelope:     func(c wire.Codec) (any, error) { var m ActorEnvelope; m.walk(&c); return m, c.Finish() },
	CodeHeartbeat:         func(c wire.Codec) (any, error) { var m Heartbeat; m.walk(&c); return m, c.Finish() },
	CodeTelemetrySnapshot: func(c wire.Codec) (any, error) { var m TelemetrySnapshot; m.walk(&c); return m, c.Finish() },
	CodeSecAggAdvertise:   func(c wire.Codec) (any, error) { var m SecAggAdvertise; m.walk(&c); return m, c.Finish() },
	CodeSecAggRoster:      func(c wire.Codec) (any, error) { var m SecAggRoster; m.walk(&c); return m, c.Finish() },
	CodeSecAggShares:      func(c wire.Codec) (any, error) { var m SecAggShares; m.walk(&c); return m, c.Finish() },
	CodeSecAggRouted:      func(c wire.Codec) (any, error) { var m SecAggRouted; m.walk(&c); return m, c.Finish() },
	CodeSecAggComplaint:   func(c wire.Codec) (any, error) { var m SecAggComplaint; m.walk(&c); return m, c.Finish() },
	CodeSecAggMaskSet:     func(c wire.Codec) (any, error) { var m SecAggMaskSet; m.walk(&c); return m, c.Finish() },
	CodeSecAggMasked:      func(c wire.Codec) (any, error) { var m SecAggMasked; m.walk(&c); return m, c.Finish() },
	CodeSecAggSurvivors:   func(c wire.Codec) (any, error) { var m SecAggSurvivors; m.walk(&c); return m, c.Finish() },
	CodeSecAggUnmask:      func(c wire.Codec) (any, error) { var m SecAggUnmask; m.walk(&c); return m, c.Finish() },
}

// The layouts. Each walk names the message's fields in wire order — a
// decoding pass writes them — and returns its type code.

func (m *CheckinRequest) walk(c *wire.Codec) byte {
	c.Str(&m.DeviceID)
	c.Str(&m.Population)
	c.Int(&m.RuntimeVersion)
	c.Bytes(&m.AttestationToken)
	return CodeCheckinRequest
}

func (m *CheckinResponse) walk(c *wire.Codec) byte {
	c.Bool(&m.Accepted)
	c.Dur(&m.RetryAfter)
	c.Str(&m.Reason)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.Bytes(&m.Plan)
	c.Bytes(&m.Checkpoint)
	c.Dur(&m.ReportDeadline)
	return CodeCheckinResponse
}

func (m *ReportRequest) walk(c *wire.Codec) byte {
	c.Str(&m.DeviceID)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.Bytes(&m.Update)
	c.F64Map(&m.Metrics)
	c.Bool(&m.Aborted)
	return CodeReportRequest
}

func (m *ReportResponse) walk(c *wire.Codec) byte {
	c.Bool(&m.Accepted)
	c.Str(&m.Reason)
	c.Dur(&m.RetryAfter)
	return CodeReportResponse
}

func (m *Abort) walk(c *wire.Codec) byte {
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.Str(&m.Reason)
	return CodeAbort
}

func (m *StripeSeal) walk(c *wire.Codec) byte {
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
	return CodeStripeSeal
}

func (m *RoundConfig) walk(c *wire.Codec) byte {
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
	return CodeRoundConfig
}

func (m *RoundFinalize) walk(c *wire.Codec) byte {
	c.Str(&m.Population)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	return CodeRoundFinalize
}

func (m *RoundAbort) walk(c *wire.Codec) byte {
	c.Str(&m.Population)
	c.Str(&m.TaskID)
	c.I64(&m.Round)
	c.Str(&m.Reason)
	return CodeRoundAbort
}

func (m *ShardHello) walk(c *wire.Codec) byte {
	c.U32(&m.Shard)
	c.Str(&m.Name)
	return CodeShardHello
}

func (m *CheckinRate) walk(c *wire.Codec) byte {
	c.Str(&m.Population)
	c.U32(&m.Shard)
	c.Str(&m.Source)
	c.I64(&m.Count)
	c.Dur(&m.Elapsed)
	c.I64(&m.Demand)
	return CodeCheckinRate
}

func (m *ActorEnvelope) walk(c *wire.Codec) byte {
	c.Str(&m.Target)
	c.Bytes(&m.Payload)
	return CodeActorEnvelope
}

func (m *Heartbeat) walk(c *wire.Codec) byte {
	c.U64(&m.Seq)
	c.Bool(&m.Ack)
	return CodeHeartbeat
}

func (m *TelemetrySnapshot) walk(c *wire.Codec) byte {
	c.U32(&m.Shard)
	c.Str(&m.Name)
	c.I64Map(&m.Counters)
	c.F64Map(&m.Gauges)
	c.F64sMap(&m.Summaries)
	return CodeTelemetrySnapshot
}
