package protocol

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// partsMessages covers every codec message with its large fields populated.
func partsMessages() []interface{} {
	big := make([]byte, 1<<16)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return []interface{}{
		CheckinRequest{DeviceID: "d-1", Population: "pop", RuntimeVersion: 3, AttestationToken: []byte{1, 2, 3}},
		CheckinResponse{Accepted: true, TaskID: "t", Round: 9, Plan: big[:4096], Checkpoint: big,
			ReportDeadline: time.Minute},
		CheckinResponse{Accepted: false, Reason: "later", RetryAfter: time.Second},
		ReportRequest{DeviceID: "d-1", TaskID: "t", Round: 9, Update: big,
			Metrics: map[string]float64{"loss": 0.5}},
		ReportRequest{DeviceID: "d-2", TaskID: "t", Round: 9, Aborted: true},
		ReportResponse{Accepted: true, RetryAfter: time.Second},
		Abort{TaskID: "t", Round: 9, Reason: "done"},
	}
}

// TestMarshalBinaryPartsConcatenationMatches: the vectored segments must
// concatenate to exactly the contiguous MarshalBinary payload, and decode
// back to the original message.
func TestMarshalBinaryPartsConcatenationMatches(t *testing.T) {
	for _, msg := range partsMessages() {
		codeP, parts, ok := MarshalBinaryParts(msg)
		if !ok {
			t.Fatalf("%T not covered by parts codec", msg)
		}
		codeB, payload, ok := MarshalBinary(msg)
		if !ok || codeP != codeB {
			t.Fatalf("%T: code mismatch %d vs %d", msg, codeP, codeB)
		}
		var joined []byte
		for _, p := range parts {
			joined = append(joined, p...)
		}
		if !bytes.Equal(joined, payload) {
			t.Fatalf("%T: parts concatenation differs from contiguous payload (%d vs %d bytes)",
				msg, len(joined), len(payload))
		}
		got, err := UnmarshalBinary(codeP, joined)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("%T: round-trip mismatch:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}

// TestMarshalBinaryPartsAliasesLargeFields: the whole point of the parts
// codec is that the O(dim) payloads are NOT copied — the returned segments
// must share backing arrays with the message's byte fields.
func TestMarshalBinaryPartsAliasesLargeFields(t *testing.T) {
	upd := []byte{9, 8, 7, 6}
	_, parts, ok := MarshalBinaryParts(ReportRequest{DeviceID: "d", Update: upd})
	if !ok || len(parts) != 3 {
		t.Fatalf("unexpected parts shape: ok=%v len=%d", ok, len(parts))
	}
	if &parts[1][0] != &upd[0] {
		t.Fatal("ReportRequest.Update was copied, not aliased")
	}
	planB, ckpt := []byte{1, 2}, []byte{3, 4, 5}
	_, parts, ok = MarshalBinaryParts(CheckinResponse{Accepted: true, Plan: planB, Checkpoint: ckpt})
	if !ok || len(parts) != 5 {
		t.Fatalf("unexpected parts shape: ok=%v len=%d", ok, len(parts))
	}
	if &parts[1][0] != &planB[0] || &parts[3][0] != &ckpt[0] {
		t.Fatal("CheckinResponse.Plan/Checkpoint were copied, not aliased")
	}
}

// TestMarshalBinaryPartsUnknownType: a type without a codec is not claimed.
func TestMarshalBinaryPartsUnknownType(t *testing.T) {
	if _, _, ok := MarshalBinaryParts(struct{ X int }{1}); ok {
		t.Fatal("unknown type must not be claimed by the binary codec")
	}
}
