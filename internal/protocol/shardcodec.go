package protocol

import (
	"time"

	"repro/internal/wire"
)

// Binary codec for the sharded-deployment messages of shard.go, following
// codec.go's conventions exactly: fixed-order big-endian fields, u32-length
// prefixes, i64-nanosecond durations, and count-vs-remaining-bytes
// validation before any count-sized allocation. The bulk fields — a
// StripeSeal's Sum, a RoundConfig's Plan and Checkpoint — are returned as
// their own ALIASED segments so the transport's vectored writes ship a
// multi-MB sealed partial without ever copying it into a contiguous frame.

// marshalShardParts extends MarshalBinaryParts with the shard messages.
func marshalShardParts(msg interface{}) (code byte, parts [][]byte, ok bool) {
	switch m := msg.(type) {
	case StripeSeal:
		head := make([]byte, 0, wire.SizeStr(m.Population)+wire.SizeStr(m.TaskID)+8+4+8+8+8+8+8+8+4)
		head = wire.AppendStr(head, m.Population)
		head = wire.AppendStr(head, m.TaskID)
		head = wire.AppendI64(head, m.Round)
		head = wire.AppendU32(head, m.Shard)
		head = wire.AppendI64(head, m.Reports)
		head = wire.AppendI64(head, m.EvalReports)
		head = wire.AppendI64(head, m.Lost)
		head = wire.AppendI64(head, m.Aborted)
		head = wire.AppendI64(head, m.Clipped)
		head = wire.AppendF64(head, m.Weight)
		head = wire.AppendU32(head, uint32(len(m.Sum)))
		tail := make([]byte, 0, wire.SizeMetricSamples(m.Metrics)+wire.SizeNamedI64s(m.Phases)+
			wire.SizeStrs(m.Blamed)+wire.SizeStrs(m.GroupErrors)+wire.SizeStrs(m.RobustRejected))
		tail = wire.AppendMetricSamples(tail, m.Metrics)
		tail = wire.AppendNamedI64s(tail, m.Phases)
		tail = wire.AppendStrs(tail, m.Blamed)
		tail = wire.AppendStrs(tail, m.GroupErrors)
		tail = wire.AppendStrs(tail, m.RobustRejected)
		return CodeStripeSeal, [][]byte{head, m.Sum, tail}, true
	case RoundConfig:
		head := make([]byte, 0, wire.SizeStr(m.Population)+wire.SizeStr(m.TaskID)+8+8+8+8+8+8+4)
		head = wire.AppendStr(head, m.Population)
		head = wire.AppendStr(head, m.TaskID)
		head = wire.AppendI64(head, m.Round)
		head = wire.AppendI64(head, int64(m.Target))
		head = wire.AppendI64(head, int64(m.Admit))
		head = wire.AppendI64(head, int64(m.MinReports))
		head = wire.AppendI64(head, int64(m.MinRuntime))
		head = wire.AppendI64(head, int64(m.Estimate))
		head = wire.AppendU32(head, uint32(len(m.Plan)))
		mid := make([]byte, 0, 4)
		mid = wire.AppendU32(mid, uint32(len(m.Checkpoint)))
		return CodeRoundConfig, [][]byte{head, m.Plan, mid, m.Checkpoint}, true
	case RoundFinalize:
		buf := make([]byte, 0, wire.SizeStr(m.Population)+wire.SizeStr(m.TaskID)+8)
		buf = wire.AppendStr(buf, m.Population)
		buf = wire.AppendStr(buf, m.TaskID)
		buf = wire.AppendI64(buf, m.Round)
		return CodeRoundFinalize, [][]byte{buf}, true
	case RoundAbort:
		buf := make([]byte, 0, wire.SizeStr(m.Population)+wire.SizeStr(m.TaskID)+8+wire.SizeStr(m.Reason))
		buf = wire.AppendStr(buf, m.Population)
		buf = wire.AppendStr(buf, m.TaskID)
		buf = wire.AppendI64(buf, m.Round)
		buf = wire.AppendStr(buf, m.Reason)
		return CodeRoundAbort, [][]byte{buf}, true
	case ShardHello:
		buf := make([]byte, 0, 4+wire.SizeStr(m.Name))
		buf = wire.AppendU32(buf, m.Shard)
		buf = wire.AppendStr(buf, m.Name)
		return CodeShardHello, [][]byte{buf}, true
	case CheckinRate:
		buf := make([]byte, 0, wire.SizeStr(m.Population)+4+wire.SizeStr(m.Source)+8+8+8)
		buf = wire.AppendStr(buf, m.Population)
		buf = wire.AppendU32(buf, m.Shard)
		buf = wire.AppendStr(buf, m.Source)
		buf = wire.AppendI64(buf, m.Count)
		buf = wire.AppendI64(buf, int64(m.Elapsed))
		buf = wire.AppendI64(buf, m.Demand)
		return CodeCheckinRate, [][]byte{buf}, true
	case ActorEnvelope:
		head := make([]byte, 0, wire.SizeStr(m.Target)+4)
		head = wire.AppendStr(head, m.Target)
		head = wire.AppendU32(head, uint32(len(m.Payload)))
		return CodeActorEnvelope, [][]byte{head, m.Payload}, true
	case Heartbeat:
		buf := make([]byte, 0, 8+1)
		buf = wire.AppendI64(buf, int64(m.Seq))
		buf = wire.AppendBool(buf, m.Ack)
		return CodeHeartbeat, [][]byte{buf}, true
	case TelemetrySnapshot:
		buf := make([]byte, 0, 4+wire.SizeStr(m.Name)+wire.SizeNamedI64s(m.Counters)+
			wire.SizeMetrics(m.Gauges)+wire.SizeMetricSamples(m.Summaries))
		buf = wire.AppendU32(buf, m.Shard)
		buf = wire.AppendStr(buf, m.Name)
		buf = wire.AppendNamedI64s(buf, m.Counters)
		buf = wire.AppendMetrics(buf, m.Gauges)
		buf = wire.AppendMetricSamples(buf, m.Summaries)
		return CodeTelemetrySnapshot, [][]byte{buf}, true
	}
	return 0, nil, false
}

// unmarshalShard extends UnmarshalBinary with the shard messages. handled
// is false for codes this file does not know; decode errors latch in r and
// are reported by the caller, which also enforces the trailing-bytes check.
func unmarshalShard(code byte, r *wire.Reader) (msg interface{}, handled bool) {
	switch code {
	case CodeStripeSeal:
		m := StripeSeal{}
		m.Population = r.Str()
		m.TaskID = r.Str()
		m.Round = r.I64()
		m.Shard = r.U32("shard")
		m.Reports = r.I64()
		m.EvalReports = r.I64()
		m.Lost = r.I64()
		m.Aborted = r.I64()
		m.Clipped = r.I64()
		m.Weight = r.F64()
		m.Sum = r.Bytes()
		m.Metrics = r.MetricSamples()
		m.Phases = r.NamedI64s("seal phases")
		m.Blamed = r.Strs("seal blamed")
		m.GroupErrors = r.Strs("seal group errors")
		m.RobustRejected = r.Strs("seal robust rejections")
		return m, true
	case CodeRoundConfig:
		m := RoundConfig{}
		m.Population = r.Str()
		m.TaskID = r.Str()
		m.Round = r.I64()
		m.Target = int(r.I64())
		m.Admit = int(r.I64())
		m.MinReports = int(r.I64())
		m.MinRuntime = int(r.I64())
		m.Estimate = int(r.I64())
		m.Plan = r.Bytes()
		m.Checkpoint = r.Bytes()
		return m, true
	case CodeRoundFinalize:
		m := RoundFinalize{}
		m.Population = r.Str()
		m.TaskID = r.Str()
		m.Round = r.I64()
		return m, true
	case CodeRoundAbort:
		m := RoundAbort{}
		m.Population = r.Str()
		m.TaskID = r.Str()
		m.Round = r.I64()
		m.Reason = r.Str()
		return m, true
	case CodeShardHello:
		m := ShardHello{}
		m.Shard = r.U32("shard")
		m.Name = r.Str()
		return m, true
	case CodeCheckinRate:
		m := CheckinRate{}
		m.Population = r.Str()
		m.Shard = r.U32("shard")
		m.Source = r.Str()
		m.Count = r.I64()
		m.Elapsed = time.Duration(r.I64())
		m.Demand = r.I64()
		return m, true
	case CodeActorEnvelope:
		m := ActorEnvelope{}
		m.Target = r.Str()
		m.Payload = r.Bytes()
		return m, true
	case CodeHeartbeat:
		m := Heartbeat{}
		m.Seq = uint64(r.I64())
		m.Ack = r.Bool()
		return m, true
	case CodeTelemetrySnapshot:
		m := TelemetrySnapshot{}
		m.Shard = r.U32("shard")
		m.Name = r.Str()
		m.Counters = r.NamedI64s("telemetry counters")
		m.Gauges = r.Metrics()
		m.Summaries = r.MetricSamples()
		return m, true
	}
	return nil, false
}
