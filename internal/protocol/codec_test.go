package protocol

import (
	"fmt"
	"reflect"
	"testing"
	"time"

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

// deviceMessages returns populated and sparse instances of the five
// device-facing wire messages.
func deviceMessages() []interface{} {
	return []interface{}{
		CheckinRequest{DeviceID: "d1", Population: "pop", RuntimeVersion: 3,
			AttestationToken: []byte{1, 2, 3}},
		CheckinRequest{DeviceID: "", Population: "p"},
		CheckinResponse{Accepted: true, TaskID: "t", Round: 9,
			Plan: []byte{4, 5}, Checkpoint: []byte{6}, ReportDeadline: 2 * time.Minute},
		CheckinResponse{Accepted: false, RetryAfter: time.Hour, Reason: "come back later"},
		ReportRequest{DeviceID: "d1", TaskID: "t", Round: 3, Update: []byte{9, 9},
			Metrics: map[string]float64{"train_loss": 0.5, "train_acc": 0.25}},
		ReportRequest{DeviceID: "d2", TaskID: "t", Round: 4, Aborted: true},
		ReportResponse{Accepted: true, RetryAfter: time.Minute},
		ReportResponse{Accepted: false, Reason: "reporting window closed"},
		Abort{TaskID: "t", Round: 2, Reason: "enough devices"},
	}
}

// TestBinaryCodecRoundTripsAllMessages is also the codec's field-coverage
// guard: each message type additionally round-trips with every field set to
// a distinct non-zero value, so a field added to a message but not to its
// codec case fails here.
func TestBinaryCodecRoundTripsAllMessages(t *testing.T) {
	msgs := append(deviceMessages(), shardMessages()...)
	seen := map[reflect.Type]bool{}
	for _, m := range msgs[:len(msgs):len(msgs)] {
		if typ := reflect.TypeOf(m); !seen[typ] {
			seen[typ] = true
			filled := reflect.New(typ)
			wiretest.Fill(filled.Interface())
			msgs = append(msgs, filled.Elem().Interface())
		}
	}
	if len(seen) != int(codeEnd)-1 {
		t.Fatalf("%d message types exercised, %d codes assigned", len(seen), codeEnd-1)
	}
	for _, in := range msgs {
		out := binRoundTrip(t, in)
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip changed %T:\n in  %+v\n out %+v", in, in, out)
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

// TestBinaryCodecTruncationSafe chops every prefix of every message's
// encoding: decode must return an error (or an incomplete value), never
// panic, and trailing garbage must be rejected.
func TestBinaryCodecTruncationSafe(t *testing.T) {
	msgs := []interface{}{
		CheckinRequest{DeviceID: "d1", Population: "pop", RuntimeVersion: 3, AttestationToken: []byte{1}},
		CheckinResponse{Accepted: true, TaskID: "t", Round: 9, Plan: []byte{4, 5}, Checkpoint: []byte{6}},
		ReportRequest{DeviceID: "d1", TaskID: "t", Round: 3, Update: []byte{9}, Metrics: map[string]float64{"l": 1}},
		ReportResponse{Accepted: true, Reason: "r"},
		Abort{TaskID: "t", Round: 2, Reason: "r"},
	}
	for _, in := range msgs {
		code, payload, _ := MarshalBinary(in)
		for n := 0; n < len(payload); n++ {
			if _, err := UnmarshalBinary(code, payload[:n]); err == nil {
				t.Errorf("%T truncated to %d/%d bytes decoded cleanly", in, n, len(payload))
			}
		}
		if _, err := UnmarshalBinary(code, append(append([]byte{}, payload...), 0xFF)); err == nil {
			t.Errorf("%T with trailing garbage decoded cleanly", in)
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
	return [][2]interface{}{
		{CodeCheckinRequest, []byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'}},
		{CodeReportRequest, []byte{
			0, 0, 0, 0, // DeviceID ""
			0, 0, 0, 0, // TaskID ""
			0, 0, 0, 0, 0, 0, 0, 0, // Round
			0, 0, 0, 0, // Update empty
			0xFF, 0xFF, 0xFF, 0xFF, // metrics count 4 billion
		}},
	}
}

// FuzzUnmarshalBinary drives the one parser with every type code: it never
// panics, and whatever it accepts re-encodes under the same code to a
// payload that decodes to the same message.
func FuzzUnmarshalBinary(f *testing.F) {
	for _, m := range append(deviceMessages(), shardMessages()...) {
		code, payload, _ := MarshalBinary(m)
		f.Add(code, payload)
		f.Add(code, payload[:len(payload)/2])
	}
	for _, h := range hostileDevicePayloads() {
		f.Add(h[0].(byte), h[1].([]byte))
	}
	for _, h := range hostileShardPayloads() {
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
	})
}
