package protocol

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/plan"
)

// TestActorEnvelopeCarriesAnyOtherMessage wraps every wire message: the
// envelope's payload is the message's own code and body, decoded by the one
// parser, and an envelope cannot ride inside an envelope.
func TestActorEnvelopeCarriesAnyOtherMessage(t *testing.T) {
	var msgs []interface{}
	for _, m := range goldenMessages() {
		msgs = append(msgs, m, zeroOf(m))
	}
	for _, in := range msgs {
		env, err := NewActorEnvelope("sink", in)
		if _, nested := in.(ActorEnvelope); nested {
			if err == nil {
				t.Error("an envelope was wrapped in an envelope")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := binRoundTrip(t, env).(ActorEnvelope).Message()
		if err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("envelope changed %T: %v\n in  %+v\n out %+v", in, err, in, out)
		}
	}
	if _, err := NewActorEnvelope("sink", struct{ X int }{1}); err == nil {
		t.Error("a type without a codec was wrapped")
	}
	for _, payload := range [][]byte{nil, {0}, {CodeActorEnvelope, 0, 0, 0, 0, 0, 0, 0, 0}, {CodeHeartbeat, 1}} {
		if _, err := (ActorEnvelope{Payload: payload}).Message(); err == nil {
			t.Errorf("envelope payload %v decoded cleanly", payload)
		}
	}
}

// hU32 / hU64 / hUv / hInt / hStr build hostile payloads field by field:
// fixed-width numbers, a uvarint length or count, a zigzag varint, a string.
func hU32(buf []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(buf, v) }
func hU64(buf []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(buf, v) }
func hUv(buf []byte, v uint64) []byte  { return binary.AppendUvarint(buf, v) }
func hInt(buf []byte, v int64) []byte  { return binary.AppendVarint(buf, v) }
func hStr(buf []byte, s string) []byte { return append(hUv(buf, uint64(len(s))), s...) }

// Varints that are not canonical: a zero in two bytes, eleven bytes, and ten
// bytes whose last carries bits past 64.
var (
	overlongVarint   = []byte{0x80, 0x00}
	elevenByteVarint = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	overflowVarint   = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}
)

// hostileShardPayloads are hand-built frames whose length fields promise far
// more data than the payload holds — the claims range from 4 GiB strings to
// billion-entry metric maps — or whose varints are not canonical. Every one
// must be rejected.
func hostileShardPayloads() map[string][2]interface{} {
	sealHead := func(sumLen uint64) []byte {
		b := hStr(nil, "")               // Population
		b = hStr(b, "")                  // TaskID
		b = hInt(b, 1)                   // Round
		b = hU32(b, 0)                   // Shard
		b = hInt(b, 0)                   // Reports
		b = hInt(b, 0)                   // EvalReports
		b = hInt(b, 0)                   // Lost
		b = hInt(b, 0)                   // Aborted
		b = hInt(b, 0)                   // Clipped
		b = hU64(b, math.Float64bits(1)) // Weight
		return hUv(b, sumLen)            // Sum length
	}
	rcHead := func() []byte {
		b := hStr(nil, "")
		b = hStr(b, "")
		b = hInt(b, 1) // Round
		b = hInt(b, 1) // Target
		b = hInt(b, 1) // Admit
		b = hInt(b, 1) // MinReports
		b = hInt(b, 0) // MinRuntime
		b = hInt(b, 1) // Estimate
		return b
	}
	finalize := func(round []byte) []byte { return append(hStr(hStr(nil, "p"), "t"), round...) }
	return map[string][2]interface{}{
		"stripe-seal sum 4GiB":          {CodeStripeSeal, sealHead(0xFFFFFFFF)},
		"stripe-seal 1B metric entries": {CodeStripeSeal, hUv(sealHead(0), 0x40000000)},
		"stripe-seal 1B metric values": {CodeStripeSeal,
			hUv(hStr(hUv(sealHead(0), 1), "k"), 0x40000000)},
		"stripe-seal 1B phase entries": {CodeStripeSeal,
			hUv(hUv(sealHead(0), 0), 0x40000000)},
		"stripe-seal 1B blamed entries": {CodeStripeSeal,
			hUv(hUv(hUv(sealHead(0), 0), 0), 0x40000000)},
		"stripe-seal blamed entry 4GiB": {CodeStripeSeal,
			hUv(hUv(hUv(hUv(sealHead(0), 0), 0), 1), 0xFFFFFFFF)},
		"stripe-seal 1B group-error entries": {CodeStripeSeal,
			hUv(hUv(hUv(hUv(sealHead(0), 0), 0), 0), 0x40000000)},
		"stripe-seal 1B robust-rejection entries": {CodeStripeSeal,
			hUv(hUv(hUv(hUv(hUv(sealHead(0), 0), 0), 0), 0), 0x40000000)},
		"round-config plan 4GiB":           {CodeRoundConfig, hUv(rcHead(), 0xFFFFFFFF)},
		"round-config checkpoint 4GiB":     {CodeRoundConfig, hUv(hUv(rcHead(), 0), 0xFFFFFFF0)},
		"round-abort reason 4GiB":          {CodeRoundAbort, hUv(hInt(hStr(hStr(nil, ""), ""), 1), 0xFFFFFFFF)},
		"round-finalize overlong round":    {CodeRoundFinalize, finalize(overlongVarint)},
		"round-finalize 11-byte round":     {CodeRoundFinalize, finalize(elevenByteVarint)},
		"round-finalize overflowing round": {CodeRoundFinalize, finalize(overflowVarint)},
		"shard-hello name 4GiB":            {CodeShardHello, hUv(hU32(nil, 1), 0xFFFFFFFF)},
		"shard-hello overlong name length": {CodeShardHello, append(hU32(nil, 1), overlongVarint...)},
		"checkin-rate source 4GiB":         {CodeCheckinRate, hUv(hU32(hStr(nil, "pop"), 0), 0xFFFFFFFF)},
		"actor-envelope payload 2GiB":      {CodeActorEnvelope, hUv(hStr(nil, "t"), 0x7FFFFFFF)},
		"telemetry name 4GiB":              {CodeTelemetrySnapshot, hUv(hU32(nil, 1), 0xFFFFFFFF)},
		"telemetry 1B counters":            {CodeTelemetrySnapshot, hUv(hStr(hU32(nil, 1), "s"), 0x40000000)},
		"telemetry 1B gauges": {CodeTelemetrySnapshot,
			hUv(hUv(hStr(hU32(nil, 1), "s"), 0), 0x40000000)},
		"telemetry 1B summary values": {CodeTelemetrySnapshot,
			hUv(hStr(hUv(hUv(hUv(hStr(hU32(nil, 1), "s"), 0), 0), 1), "k"), 0x40000000)},
		"telemetry counter count past the buffer": {CodeTelemetrySnapshot,
			append(hStr(hU32(nil, 1), "s"), 0x80)},
	}
}

// TestShardCodecTruncationSafe chops every prefix of every shard message's
// encoding, with every field set to a distinct non-zero value: decode must
// error, never panic, and trailing garbage after a complete message must be
// rejected.
func TestShardCodecTruncationSafe(t *testing.T) {
	golden := goldenMessages()
	for code := CodeStripeSeal; code < codeEnd; code++ {
		in := filledOf(golden[code])
		_, payload, ok := MarshalBinary(in)
		if !ok {
			t.Fatalf("MarshalBinary rejected %T", in)
		}
		for n := 0; n < len(payload); n++ {
			if _, err := UnmarshalBinary(code, payload[:n]); err == nil {
				t.Errorf("%T truncated to %d/%d bytes decoded cleanly", in, n, len(payload))
			}
		}
		if _, err := UnmarshalBinary(code, append(payload[:len(payload):len(payload)], 0xFF)); err == nil {
			t.Errorf("%T with trailing garbage decoded cleanly", in)
		}
	}
}

func TestShardCodecHostileLengths(t *testing.T) {
	for name, h := range hostileShardPayloads() {
		if _, err := UnmarshalBinary(h[0].(byte), h[1].([]byte)); err == nil {
			t.Errorf("%s decoded cleanly", name)
		}
	}
}

// TestShardCodecUnknownTypeCodes walks every unassigned code, the reserved
// code 0 among them: decode must reject it without touching the payload.
func TestShardCodecUnknownTypeCodes(t *testing.T) {
	payload := make([]byte, 64)
	for c := 0; c < 256; c++ {
		if _, known := Lookup(byte(c)); known {
			continue
		}
		if _, err := UnmarshalBinary(byte(c), payload); err == nil {
			t.Fatalf("unknown type code %d decoded cleanly", c)
		}
	}
}

// TestShardCodecHostileAllocationBounded decodes every hostile payload many
// times — bare, inside an actor envelope, and as a plan descriptor — and
// asserts the heap growth stays far below the multi-GiB claims: rejection
// must happen before any claim-sized allocation.
func TestShardCodecHostileAllocationBounded(t *testing.T) {
	hostile := hostileShardPayloads()
	// A plan whose Ops field claims 2 GiB, after format, Type,
	// ReportEncoding, model Kind and five model dimensions.
	zeroPlan, _ := (&plan.Plan{}).Marshal()
	const opsAt = 1 + 1 + 1 + 1 + 5
	hostilePlan := hUv(zeroPlan[:opsAt:opsAt], 0x7FFFFFFF)
	if _, err := plan.Unmarshal(hostilePlan); err == nil {
		t.Fatal("plan with a 2 GiB op list decoded cleanly")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const iters = 100
	for i := 0; i < iters; i++ {
		for _, h := range hostile {
			_, _ = UnmarshalBinary(h[0].(byte), h[1].([]byte))
			_, _ = ActorEnvelope{Payload: append([]byte{h[0].(byte)}, h[1].([]byte)...)}.Message()
		}
		_, _ = plan.Unmarshal(hostilePlan)
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	// ~4000 rejected decodes of payloads claiming GiBs must stay under a
	// few MiB of cumulative allocation (error values and small headers).
	if grew > 8<<20 {
		t.Fatalf("hostile decodes allocated %d bytes total over %d iterations", grew, iters*len(hostile))
	}
}

// hostileSecAggPayloads are secure rows whose counts promise more adverts,
// shares, commitments, ids or elements — or longer byte strings — than the
// payload holds.
func hostileSecAggPayloads() map[string][2]interface{} {
	const billion = 0x40000000
	return map[string][2]interface{}{
		"advertise key 4GiB":             {CodeSecAggAdvertise, hUv(hInt(nil, 1), 0xFFFFFFFF)},
		"roster 1B adverts":              {CodeSecAggRoster, hUv(nil, billion)},
		"shares 1B bundles":              {CodeSecAggShares, hUv(nil, billion)},
		"shares bundle 4GiB":             {CodeSecAggShares, hUv(hInt(hInt(hUv(nil, 1), 3), 1), 0xFFFFFFFF)},
		"shares 1B commitments":          {CodeSecAggShares, hUv(hInt(hUv(nil, 0), 3), billion)},
		"shares commitment past the end": {CodeSecAggShares, append(hUv(hInt(hUv(nil, 0), 3), 1), make([]byte, 31)...)},
		"routed 1B commitment sets":      {CodeSecAggRouted, hUv(hUv(nil, 0), billion)},
		"complaint reason 4GiB":          {CodeSecAggComplaint, hUv(hInt(hInt(nil, 1), 2), 0xFFFFFFFF)},
		"mask set 1B ids":                {CodeSecAggMaskSet, hUv(nil, billion)},
		"masked 1B elements":             {CodeSecAggMasked, hUv(hInt(nil, 1), billion)},
		"masked element past the end":    {CodeSecAggMasked, append(hUv(hInt(nil, 1), 2), make([]byte, 15)...)},
		"survivors 1B ids":               {CodeSecAggSurvivors, hUv(nil, billion)},
		"unmask 1B shares":               {CodeSecAggUnmask, hUv(hInt(nil, 1), billion)},
		"unmask share past the end":      {CodeSecAggUnmask, append(hUv(hInt(nil, 1), 1), make([]byte, 72)...)},
	}
}

// TestSecAggCodecHostileLengths: every hostile secure row is refused before
// anything is made for its claim — the count is checked against the bytes
// left first — so a hundred rounds of refusals allocate only their errors.
func TestSecAggCodecHostileLengths(t *testing.T) {
	hostile := hostileSecAggPayloads()
	for name, h := range hostile {
		if _, err := UnmarshalBinary(h[0].(byte), h[1].([]byte)); err == nil {
			t.Errorf("%s decoded cleanly", name)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const iters = 100
	for range iters {
		for _, h := range hostile {
			_, _ = UnmarshalBinary(h[0].(byte), h[1].([]byte))
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(iters*len(hostile)); per > 1<<10 {
		t.Fatalf("a refused secure row allocates %d bytes", per)
	}
}

// TestJudgeRefusesSecureRowsFromTheWrongSender: each secure row is legal
// from its Sender in its phase, and from no other sender in any phase.
func TestJudgeRefusesSecureRowsFromTheWrongSender(t *testing.T) {
	golden := goldenMessages()
	for code := CodeSecAggAdvertise; code <= CodeSecAggUnmask; code++ {
		row, _ := Lookup(code)
		for _, from := range []Sender{Device, Server, ShardLink} {
			for phase := PhaseCheckin; phase <= PhaseUnmask; phase <<= 1 {
				_, err := Judge(golden[code], from, phase)
				if legal := from == row.Sender && phase&row.Phases != 0; (err == nil) != legal {
					t.Errorf("%s from the %s in phase %s: judged %v, legal %v", row.Name, from, phase, err, legal)
				}
			}
		}
	}
}
