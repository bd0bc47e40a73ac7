package protocol

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// binRoundTrip pushes a message through the binary codec and back.
func binRoundTrip(t *testing.T, msg interface{}) interface{} {
	t.Helper()
	code, payload, ok := MarshalBinary(msg)
	if !ok {
		t.Fatalf("MarshalBinary rejected %T", msg)
	}
	out, err := UnmarshalBinary(code, payload)
	if err != nil {
		t.Fatalf("UnmarshalBinary %T: %v", msg, err)
	}
	return out
}

// codes lists every row of the wire table in code order.
func codes() []byte {
	var cs []byte
	for c := byte(0); c < codeEnd; c++ {
		if _, ok := Lookup(c); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

// zeroOf and filledOf are msg's type with every field zero, and with every
// field set to a distinct non-zero value by reflection.
func zeroOf(msg interface{}) interface{} { return reflect.Zero(reflect.TypeOf(msg)).Interface() }

func filledOf(msg interface{}) interface{} {
	v := reflect.New(reflect.TypeOf(msg))
	wiretest.Fill(v.Interface())
	return v.Elem().Interface()
}

// TestBinaryCodecRoundTripsAllMessages is also the codec's field-coverage
// guard: each table row's message additionally round-trips with every field
// set to a distinct non-zero value, so a field added to a message but not to
// its walk fails here.
func TestBinaryCodecRoundTripsAllMessages(t *testing.T) {
	golden := goldenMessages()
	if len(golden) != len(codes()) {
		t.Fatalf("%d golden messages, %d table rows", len(golden), len(codes()))
	}
	for _, code := range codes() {
		row, _ := Lookup(code)
		msg := golden[code]
		if name := reflect.TypeOf(msg).Name(); name != row.Name {
			t.Fatalf("code %d: row names %s, golden message is a %s", code, row.Name, name)
		}
		for _, in := range []interface{}{msg, zeroOf(msg), filledOf(msg)} {
			if out := binRoundTrip(t, in); !reflect.DeepEqual(in, out) {
				t.Errorf("round trip changed %T:\n in  %+v\n out %+v", in, in, out)
			}
			if _, payload, _ := MarshalBinary(in); Size(in) != len(payload) {
				t.Errorf("%T: Size %d, payload %d bytes", in, Size(in), len(payload))
			}
		}
	}
}

func TestBinaryCodecNegativeDurationsAndRounds(t *testing.T) {
	in := CheckinResponse{RetryAfter: -time.Second, Round: -7, ReportDeadline: -time.Minute}
	out := binRoundTrip(t, in).(CheckinResponse)
	if out.RetryAfter != -time.Second || out.Round != -7 || out.ReportDeadline != -time.Minute {
		t.Fatalf("got %+v", out)
	}
}

func TestBinaryCodecLargePayloads(t *testing.T) {
	big := make([]byte, 6<<20) // 6 MiB, a realistic full-model checkpoint
	for i := range big {
		big[i] = byte(i * 31)
	}
	resp := binRoundTrip(t, CheckinResponse{
		Accepted: true, TaskID: "t", Plan: big[:1<<20], Checkpoint: big,
	}).(CheckinResponse)
	if !reflect.DeepEqual(resp.Checkpoint, big) || len(resp.Plan) != 1<<20 {
		t.Fatal("large checkin payload corrupted")
	}
	rep := binRoundTrip(t, ReportRequest{DeviceID: "d", Update: big}).(ReportRequest)
	if !reflect.DeepEqual(rep.Update, big) {
		t.Fatal("large report payload corrupted")
	}
}

func TestBinaryCodecRejectsUnknownTypes(t *testing.T) {
	if _, _, ok := MarshalBinary("not a protocol message"); ok {
		t.Fatal("a string is not a wire message")
	}
	if _, _, ok := MarshalBinary(&CheckinRequest{}); ok {
		t.Fatal("pointer forms are not wire messages")
	}
	if _, err := UnmarshalBinary(99, nil); err == nil {
		t.Fatal("unknown type code must error")
	}
	if _, err := UnmarshalBinary(0, nil); err == nil {
		t.Fatal("code 0 is reserved: an all-zero frame must not parse")
	}
}

// TestBinaryCodecTruncationSafe chops every prefix of every table row's
// encoding, for its golden and its zero message: decode must return an
// error, never panic, and trailing garbage must be rejected.
func TestBinaryCodecTruncationSafe(t *testing.T) {
	golden := goldenMessages()
	for _, code := range codes() {
		for _, in := range []interface{}{golden[code], zeroOf(golden[code])} {
			_, payload, _ := MarshalBinary(in)
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
}

// TestBinaryCodecHostileLengths feeds length fields that promise more data
// than the payload holds, including a metrics count that would allocate
// gigabytes if trusted.
func TestBinaryCodecHostileLengths(t *testing.T) {
	for _, h := range hostileDevicePayloads() {
		if _, err := UnmarshalBinary(h[0].(byte), h[1].([]byte)); err == nil {
			t.Errorf("hostile payload for code %d decoded cleanly", h[0])
		}
	}
}

func hostileDevicePayloads() [][2]interface{} {
	report := func(round []byte) []byte {
		b := append(hStr(hStr(nil, ""), ""), round...) // DeviceID, TaskID, Round
		return append(b, 0, 0, 0)                      // no Update, no metrics, not aborted
	}
	return [][2]interface{}{
		{CodeCheckinRequest, hUv(nil, 0xFFFFFFFF)}, // DeviceID 4 GiB
		{CodeCheckinRequest, append(overlongVarint, 0, 0, 0)},
		{CodeReportRequest, append(hUv(hInt(hStr(hStr(nil, ""), ""), 0), 0), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)}, // metrics count 4 billion
		{CodeReportRequest, append(hUv(hInt(hStr(hStr(nil, ""), ""), 0), 0), 0x80)},                         // metrics count cut off
		{CodeReportRequest, report(overlongVarint)},
		{CodeReportRequest, report(elevenByteVarint)},
		{CodeReportRequest, report(overflowVarint)},
	}
}

// TestMapKeysDecodeInAnyOrderOnce: map entries in an order other than the
// encoder's still decode (and re-encode in key order), but a repeated key is
// refused, so no two payloads decode to one message.
func TestMapKeysDecodeInAnyOrderOnce(t *testing.T) {
	entry := func(k string, v byte) []byte { return append(hStr(nil, k), 0x3F, v, 0, 0, 0, 0, 0, 0) }
	report := func(entries ...[]byte) []byte {
		b := hUv(hInt(hStr(hStr(nil, "d"), "t"), 1), 0) // DeviceID, TaskID, Round, Update
		b = hUv(b, uint64(len(entries)))
		for _, e := range entries {
			b = append(b, e...)
		}
		return append(b, 0) // Aborted
	}
	msg, err := UnmarshalBinary(CodeReportRequest, report(entry("loss", 0xE0), entry("acc", 0xF0)))
	if err != nil {
		t.Fatalf("entries out of key order: %v", err)
	}
	if m := msg.(ReportRequest).Metrics; len(m) != 2 || m["loss"] != 0.5 || m["acc"] != 1 {
		t.Fatalf("decoded %v", m)
	}
	if _, again, _ := MarshalBinary(msg); !bytes.Equal(again, report(entry("acc", 0xF0), entry("loss", 0xE0))) {
		t.Fatalf("re-encoded out of key order: %x", again)
	}
	if _, err := UnmarshalBinary(CodeReportRequest, report(entry("loss", 0xE0), entry("loss", 0xF0))); err == nil {
		t.Fatal("a repeated map key decoded cleanly")
	}
}

// allocMessages are the small instances TestCodecAllocs measures, one per
// code.
func allocMessages() map[byte]interface{} {
	return map[byte]interface{}{
		CodeCheckinRequest:  CheckinRequest{DeviceID: "stub-100", Population: "pop", RuntimeVersion: 3, AttestationToken: []byte{1, 2, 3}},
		CodeCheckinResponse: CheckinResponse{Accepted: true, Plan: make([]byte, 100), Checkpoint: make([]byte, 1000), ReportDeadline: time.Minute},
		CodeReportRequest: ReportRequest{DeviceID: "stub-100", TaskID: "t", Round: 1, Update: make([]byte, 1000),
			Metrics: map[string]float64{"loss": 0.5}},
		CodeReportResponse: ReportResponse{Accepted: true, RetryAfter: time.Second},
		CodeAbort:          Abort{Round: 1},
		CodeStripeSeal:     StripeSeal{Sum: make([]byte, 1000)},
		CodeRoundConfig:    RoundConfig{Plan: make([]byte, 100), Checkpoint: make([]byte, 1000)},
		CodeRoundFinalize:  RoundFinalize{Round: 1},
		CodeRoundAbort:     RoundAbort{Round: 1},
		CodeShardHello:     ShardHello{Shard: 1},
		CodeCheckinRate:    CheckinRate{Shard: 1, Count: 2, Elapsed: time.Second, Demand: 3},
		CodeActorEnvelope:  ActorEnvelope{Payload: []byte{CodeHeartbeat, 0, 0, 0, 0, 0, 0, 0, 1, 0}},
		CodeHeartbeat:      Heartbeat{Seq: 1, Ack: true},
		CodeTelemetrySnapshot: TelemetrySnapshot{Shard: 1, Counters: map[string]int64{"c": 1},
			Gauges: map[string]float64{"g": 1}, Summaries: map[string][]float64{"s": {1, 2}}},
		CodeSecAggAdvertise: SecAggAdvertise{ID: 1, CPub: make([]byte, 32), SPub: make([]byte, 32)},
		CodeSecAggRoster:    SecAggRoster{Adverts: make([]SecAggAdvertise, 16)},
		CodeSecAggShares: SecAggShares{Shares: make([]RoutedShare, 15),
			Commitments: ShareCommitments{B: make([][32]byte, 16), SK: make([][32]byte, 16)}},
		CodeSecAggRouted:    SecAggRouted{Shares: make([]RoutedShare, 15), Commitments: make([]ShareCommitments, 16)},
		CodeSecAggComplaint: SecAggComplaint{By: 1, Against: 2, Reason: "undecryptable bundle"},
		CodeSecAggMaskSet:   SecAggMaskSet{IDs: make([]int, 16)},
		CodeSecAggMasked:    SecAggMasked{ID: 1, Y: make([]uint64, 1000)},
		CodeSecAggSurvivors: SecAggSurvivors{IDs: make([]int, 16)},
		CodeSecAggUnmask:    SecAggUnmask{From: 1, BShares: make([]OwnerShare, 12), SKShares: make([]OwnerShare, 3)},
	}
}

// TestCodecAllocs pins each code's allocations per MarshalBinaryParts and
// per UnmarshalBinary call to at most what the per-message hand-written
// codec this one replaced measured on the same instances, so the small
// frames of a control-plane round cannot grow their garbage unnoticed. Size,
// a sizing walk, allocates nothing.
func TestCodecAllocs(t *testing.T) {
	limits := map[byte][2]float64{ // {encode, decode}
		CodeCheckinRequest: {2, 3}, CodeCheckinResponse: {4, 1}, CodeReportRequest: {3, 6},
		CodeReportResponse: {2, 1}, CodeAbort: {2, 1}, CodeStripeSeal: {3, 6}, CodeRoundConfig: {3, 1},
		CodeRoundFinalize: {2, 1}, CodeRoundAbort: {2, 1}, CodeShardHello: {2, 1}, CodeCheckinRate: {2, 1},
		CodeActorEnvelope: {2, 1}, CodeHeartbeat: {2, 1}, CodeTelemetrySnapshot: {2, 12},
		// The secure rows: a box and each list the message holds.
		CodeSecAggAdvertise: {2, 1}, CodeSecAggRoster: {2, 2}, CodeSecAggShares: {2, 4}, CodeSecAggRouted: {2, 3},
		CodeSecAggComplaint: {2, 2}, CodeSecAggMaskSet: {2, 2}, CodeSecAggMasked: {2, 2}, CodeSecAggSurvivors: {2, 2},
		CodeSecAggUnmask: {2, 3},
	}
	msgs := allocMessages()
	for _, code := range codes() {
		msg := msgs[code]
		_, payload, _ := MarshalBinary(msg)
		enc := testing.AllocsPerRun(100, func() { MarshalBinaryParts(msg) })
		dec := testing.AllocsPerRun(100, func() { _, _ = UnmarshalBinary(code, payload) })
		// Under -race an encode's count is the instrumented build's.
		if lim := limits[code]; enc > lim[0] && !raceEnabled || dec > lim[1] {
			t.Errorf("%T: %v allocs per encode, %v per decode; at most %v and %v", msg, enc, dec, lim[0], lim[1])
		}
		if n := testing.AllocsPerRun(100, func() { Size(msg) }); n != 0 {
			t.Errorf("%T: %v allocs per Size", msg, n)
		}
		// Judging a legal arrival costs no allocation: a device session
		// judges every message it receives.
		if row, _ := Lookup(code); row.Phases != 0 {
			if n := testing.AllocsPerRun(100, func() { _, _ = Judge(msg, row.Sender, row.Phases) }); n != 0 {
				t.Errorf("%T: %v allocs per legal Judge", msg, n)
			}
		}
	}
}

// TestUnmarshalIntoAllocs: a server reads a report into a ReportRequest it
// holds, seeded with its session's device ID and its round's task ID. A
// conforming report then decodes with no allocation — no box, no string,
// its metrics map from wire's stock and handed back — into the message
// UnmarshalBinary returns. A check-in decodes into a held record the same
// way; a payload of another code leaves the held message alone and decodes
// as UnmarshalBinary's does.
func TestUnmarshalIntoAllocs(t *testing.T) {
	want := allocMessages()[CodeReportRequest].(ReportRequest)
	_, payload, _ := MarshalBinary(want)
	var held ReportRequest
	var got any
	var err error
	decode := func() {
		held = ReportRequest{DeviceID: want.DeviceID, TaskID: want.TaskID}
		got, err = UnmarshalInto(&held, CodeReportRequest, payload)
	}
	n := testing.AllocsPerRun(100, func() { decode(); wire.PutF64Map(held.Metrics) })
	if decode(); err != nil || got != &held || !reflect.DeepEqual(held, want) {
		t.Fatalf("UnmarshalInto = %v, %v, holding %+v; want the held message %+v", got, err, held, want)
	}
	if n != 0 && !raceEnabled { // the race detector's pool drops Puts
		t.Fatalf("decoding a conforming report into a held message allocates %v objects, want 0", n)
	}
	checkin := allocMessages()[CodeCheckinRequest].(CheckinRequest)
	code, cpayload, _ := MarshalBinary(checkin)
	var rec CheckinRequest
	if got, err := UnmarshalInto(&rec, code, cpayload); err != nil || got != &rec || !reflect.DeepEqual(rec, checkin) {
		t.Fatalf("a check-in decoded into a held record: %v, %v, holding %+v", got, err, rec)
	}
	if got, err := UnmarshalInto(&held, code, cpayload); err != nil || !reflect.DeepEqual(got, checkin) || !reflect.DeepEqual(held, want) {
		t.Fatalf("a check-in read by a report's reader: %v, %v, the report now %+v", got, err, held)
	}
}

// FuzzUnmarshalBinary drives the one parser with every type code: it never
// panics, and whatever it accepts re-encodes under the same code to a payload
// that decodes to the same message and is a byte-level fixed point from then
// on.
func FuzzUnmarshalBinary(f *testing.F) {
	golden := goldenMessages()
	for _, code := range codes() {
		frame, err := os.ReadFile(goldenPath(code))
		if err != nil {
			f.Fatal(err)
		}
		payload := frame[6:]
		f.Add(code, payload)
		f.Add(code, payload[:len(payload)/2])
		for _, m := range []interface{}{zeroOf(golden[code]), filledOf(golden[code])} {
			_, payload, _ := MarshalBinary(m)
			f.Add(code, payload)
		}
	}
	for _, h := range hostileDevicePayloads() {
		f.Add(h[0].(byte), h[1].([]byte))
	}
	for _, h := range hostileShardPayloads() {
		f.Add(h[0].(byte), h[1].([]byte))
	}
	for _, h := range hostileSecAggPayloads() {
		f.Add(h[0].(byte), h[1].([]byte))
	}
	f.Fuzz(func(t *testing.T, code byte, payload []byte) {
		msg, err := UnmarshalBinary(code, payload)
		if err != nil {
			return
		}
		if e, ok := msg.(ActorEnvelope); ok {
			_, _ = e.Message()
		}
		code2, again, ok := MarshalBinary(msg)
		if !ok || code2 != code {
			t.Fatalf("decoded %T under code %d re-encodes as (%d, %v)", msg, code, code2, ok)
		}
		msg2, err := UnmarshalBinary(code2, again)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", msg, err)
		}
		// Printed form, not DeepEqual: NaN metric values are legal.
		if fmt.Sprintf("%#v", msg) != fmt.Sprintf("%#v", msg2) {
			t.Fatalf("not a fixed point:\n first  %#v\n second %#v", msg, msg2)
		}
		if _, twice, _ := MarshalBinary(msg2); !bytes.Equal(again, twice) {
			t.Fatalf("re-encoding is not a byte-level fixed point:\n first  %x\n second %x", again, twice)
		}
	})
}
