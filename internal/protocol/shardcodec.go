package protocol

import (
	"encoding/binary"
	"math"
	"time"
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
		head := make([]byte, 0, sizeStr(m.Population)+sizeStr(m.TaskID)+8+4+8+8+8+8+8+8+4)
		head = appendStr(head, m.Population)
		head = appendStr(head, m.TaskID)
		head = binary.BigEndian.AppendUint64(head, uint64(m.Round))
		head = binary.BigEndian.AppendUint32(head, m.Shard)
		head = binary.BigEndian.AppendUint64(head, uint64(m.Reports))
		head = binary.BigEndian.AppendUint64(head, uint64(m.EvalReports))
		head = binary.BigEndian.AppendUint64(head, uint64(m.Lost))
		head = binary.BigEndian.AppendUint64(head, uint64(m.Aborted))
		head = binary.BigEndian.AppendUint64(head, uint64(m.Clipped))
		head = binary.BigEndian.AppendUint64(head, math.Float64bits(m.Weight))
		head = binary.BigEndian.AppendUint32(head, uint32(len(m.Sum)))
		tail := make([]byte, 0, sizeMetricSamples(m.Metrics)+sizeNamedI64s(m.Phases)+
			sizeStrs(m.Blamed)+sizeStrs(m.GroupErrors)+sizeStrs(m.RobustRejected))
		tail = appendMetricSamples(tail, m.Metrics)
		tail = appendNamedI64s(tail, m.Phases)
		tail = appendStrs(tail, m.Blamed)
		tail = appendStrs(tail, m.GroupErrors)
		tail = appendStrs(tail, m.RobustRejected)
		return CodeStripeSeal, [][]byte{head, m.Sum, tail}, true
	case RoundConfig:
		head := make([]byte, 0, sizeStr(m.Population)+sizeStr(m.TaskID)+8+8+8+8+8+8+4)
		head = appendStr(head, m.Population)
		head = appendStr(head, m.TaskID)
		head = binary.BigEndian.AppendUint64(head, uint64(m.Round))
		head = binary.BigEndian.AppendUint64(head, uint64(int64(m.Target)))
		head = binary.BigEndian.AppendUint64(head, uint64(int64(m.Admit)))
		head = binary.BigEndian.AppendUint64(head, uint64(int64(m.MinReports)))
		head = binary.BigEndian.AppendUint64(head, uint64(int64(m.MinRuntime)))
		head = binary.BigEndian.AppendUint64(head, uint64(int64(m.Estimate)))
		head = binary.BigEndian.AppendUint32(head, uint32(len(m.Plan)))
		mid := make([]byte, 0, 4)
		mid = binary.BigEndian.AppendUint32(mid, uint32(len(m.Checkpoint)))
		return CodeRoundConfig, [][]byte{head, m.Plan, mid, m.Checkpoint}, true
	case RoundFinalize:
		buf := make([]byte, 0, sizeStr(m.Population)+sizeStr(m.TaskID)+8)
		buf = appendStr(buf, m.Population)
		buf = appendStr(buf, m.TaskID)
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.Round))
		return CodeRoundFinalize, [][]byte{buf}, true
	case RoundAbort:
		buf := make([]byte, 0, sizeStr(m.Population)+sizeStr(m.TaskID)+8+sizeStr(m.Reason))
		buf = appendStr(buf, m.Population)
		buf = appendStr(buf, m.TaskID)
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.Round))
		buf = appendStr(buf, m.Reason)
		return CodeRoundAbort, [][]byte{buf}, true
	case ShardHello:
		buf := make([]byte, 0, 4+sizeStr(m.Name))
		buf = binary.BigEndian.AppendUint32(buf, m.Shard)
		buf = appendStr(buf, m.Name)
		return CodeShardHello, [][]byte{buf}, true
	case CheckinRate:
		buf := make([]byte, 0, sizeStr(m.Population)+4+sizeStr(m.Source)+8+8+8)
		buf = appendStr(buf, m.Population)
		buf = binary.BigEndian.AppendUint32(buf, m.Shard)
		buf = appendStr(buf, m.Source)
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.Count))
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(m.Elapsed)))
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.Demand))
		return CodeCheckinRate, [][]byte{buf}, true
	case ActorEnvelope:
		head := make([]byte, 0, sizeStr(m.Target)+4)
		head = appendStr(head, m.Target)
		head = binary.BigEndian.AppendUint32(head, uint32(len(m.Payload)))
		return CodeActorEnvelope, [][]byte{head, m.Payload}, true
	case LockRequest:
		buf := make([]byte, 0, 8+1+sizeStr(m.Key)+sizeStr(m.Owner))
		buf = binary.BigEndian.AppendUint64(buf, m.Seq)
		buf = append(buf, m.Op)
		buf = appendStr(buf, m.Key)
		buf = appendStr(buf, m.Owner)
		return CodeLockRequest, [][]byte{buf}, true
	case LockResponse:
		buf := make([]byte, 0, 8+1+sizeStr(m.Owner))
		buf = binary.BigEndian.AppendUint64(buf, m.Seq)
		buf = appendBool(buf, m.OK)
		buf = appendStr(buf, m.Owner)
		return CodeLockResponse, [][]byte{buf}, true
	case Heartbeat:
		buf := make([]byte, 0, 8+1)
		buf = binary.BigEndian.AppendUint64(buf, m.Seq)
		buf = appendBool(buf, m.Ack)
		return CodeHeartbeat, [][]byte{buf}, true
	case TelemetrySnapshot:
		buf := make([]byte, 0, 4+sizeStr(m.Name)+sizeNamedI64s(m.Counters)+
			sizeMetrics(m.Gauges)+sizeMetricSamples(m.Summaries))
		buf = binary.BigEndian.AppendUint32(buf, m.Shard)
		buf = appendStr(buf, m.Name)
		buf = appendNamedI64s(buf, m.Counters)
		buf = appendMetrics(buf, m.Gauges)
		buf = appendMetricSamples(buf, m.Summaries)
		return CodeTelemetrySnapshot, [][]byte{buf}, true
	}
	return 0, nil, false
}

// unmarshalShard extends UnmarshalBinary with the shard messages. handled
// is false for codes this file does not know; decode errors latch in r and
// are reported by the caller, which also enforces the trailing-bytes check.
func unmarshalShard(code byte, r *reader) (msg interface{}, handled bool) {
	switch code {
	case CodeStripeSeal:
		m := StripeSeal{}
		m.Population = r.str()
		m.TaskID = r.str()
		m.Round = r.i64()
		m.Shard = r.u32c("shard")
		m.Reports = r.i64()
		m.EvalReports = r.i64()
		m.Lost = r.i64()
		m.Aborted = r.i64()
		m.Clipped = r.i64()
		m.Weight = r.f64()
		m.Sum = r.bytes()
		m.Metrics = r.metricSamples()
		m.Phases = r.namedI64s("seal phases")
		m.Blamed = r.strs("seal blamed")
		m.GroupErrors = r.strs("seal group errors")
		m.RobustRejected = r.strs("seal robust rejections")
		return m, true
	case CodeRoundConfig:
		m := RoundConfig{}
		m.Population = r.str()
		m.TaskID = r.str()
		m.Round = r.i64()
		m.Target = int(r.i64())
		m.Admit = int(r.i64())
		m.MinReports = int(r.i64())
		m.MinRuntime = int(r.i64())
		m.Estimate = int(r.i64())
		m.Plan = r.bytes()
		m.Checkpoint = r.bytes()
		return m, true
	case CodeRoundFinalize:
		m := RoundFinalize{}
		m.Population = r.str()
		m.TaskID = r.str()
		m.Round = r.i64()
		return m, true
	case CodeRoundAbort:
		m := RoundAbort{}
		m.Population = r.str()
		m.TaskID = r.str()
		m.Round = r.i64()
		m.Reason = r.str()
		return m, true
	case CodeShardHello:
		m := ShardHello{}
		m.Shard = r.u32c("shard")
		m.Name = r.str()
		return m, true
	case CodeCheckinRate:
		m := CheckinRate{}
		m.Population = r.str()
		m.Shard = r.u32c("shard")
		m.Source = r.str()
		m.Count = r.i64()
		m.Elapsed = time.Duration(r.i64())
		m.Demand = r.i64()
		return m, true
	case CodeActorEnvelope:
		m := ActorEnvelope{}
		m.Target = r.str()
		m.Payload = r.bytes()
		return m, true
	case CodeLockRequest:
		m := LockRequest{}
		m.Seq = uint64(r.i64())
		m.Op = r.u8("lock op")
		m.Key = r.str()
		m.Owner = r.str()
		return m, true
	case CodeLockResponse:
		m := LockResponse{}
		m.Seq = uint64(r.i64())
		m.OK = r.bool()
		m.Owner = r.str()
		return m, true
	case CodeHeartbeat:
		m := Heartbeat{}
		m.Seq = uint64(r.i64())
		m.Ack = r.bool()
		return m, true
	case CodeTelemetrySnapshot:
		m := TelemetrySnapshot{}
		m.Shard = r.u32c("shard")
		m.Name = r.str()
		m.Counters = r.namedI64s("telemetry counters")
		m.Gauges = r.metrics()
		m.Summaries = r.metricSamples()
		return m, true
	}
	return nil, false
}

// --- codec helpers for the shard messages ---

func sizeMetricSamples(m map[string][]float64) int {
	n := 4
	for k, vs := range m {
		n += sizeStr(k) + 4 + 8*len(vs)
	}
	return n
}

func appendMetricSamples(buf []byte, m map[string][]float64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m)))
	for k, vs := range m {
		buf = appendStr(buf, k)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(vs)))
		for _, v := range vs {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

func sizeNamedI64s(m map[string]int64) int {
	n := 4
	for k := range m {
		n += sizeStr(k) + 8
	}
	return n
}

func appendNamedI64s(buf []byte, m map[string]int64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m)))
	for k, v := range m {
		buf = appendStr(buf, k)
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func sizeStrs(ss []string) int {
	n := 4
	for _, s := range ss {
		n += sizeStr(s)
	}
	return n
}

func appendStrs(buf []byte, ss []string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ss)))
	for _, s := range ss {
		buf = appendStr(buf, s)
	}
	return buf
}

// strs decodes a string list (seal attributions). The entry count is
// validated against the bytes actually remaining — each entry is ≥ 4 bytes
// (its length prefix) — so a hostile count cannot commit memory
// proportional to its claim.
func (r *reader) strs(what string) []string {
	n := r.u32(what + " count")
	if r.err != nil || n == 0 {
		return nil
	}
	if n > len(r.b)/4 {
		r.fail(what + " entries")
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	if r.err != nil {
		return nil
	}
	return ss
}

// namedI64s decodes a name→int64 map (telemetry counters, seal phase
// durations). The entry count is validated against the bytes actually
// remaining — each entry is ≥ 12 bytes (name length prefix + value) — so a
// hostile count cannot commit memory proportional to its claim.
func (r *reader) namedI64s(what string) map[string]int64 {
	n := r.u32(what + " count")
	if r.err != nil || n == 0 {
		return nil
	}
	if n > len(r.b)/12 {
		r.fail(what + " entries")
		return nil
	}
	m := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := r.str()
		v := r.i64()
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

func (r *reader) u32c(what string) uint32 {
	b := r.take(4, what)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u8(what string) uint8 {
	b := r.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) f64() float64 {
	return math.Float64frombits(uint64(r.i64()))
}

// metricSamples decodes a map of per-metric value slices. Both the entry
// count and every per-metric value count are validated against the bytes
// actually remaining before allocating, so a hostile count cannot commit
// memory proportional to its claim.
func (r *reader) metricSamples() map[string][]float64 {
	n := r.u32("metric sample count")
	if r.err != nil || n == 0 {
		return nil
	}
	// Each entry is ≥ 8 bytes (name length prefix + value count).
	if n > len(r.b)/8 {
		r.fail("metric sample entries")
		return nil
	}
	m := make(map[string][]float64, n)
	for i := 0; i < n; i++ {
		k := r.str()
		c := r.u32("metric value count")
		if r.err != nil {
			return nil
		}
		if c > len(r.b)/8 {
			r.fail("metric values")
			return nil
		}
		vs := make([]float64, c)
		for j := range vs {
			vs[j] = r.f64()
		}
		if r.err != nil {
			return nil
		}
		m[k] = vs
	}
	return m
}
