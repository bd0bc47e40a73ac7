package shard

import (
	"testing"

	"repro/internal/fedavg"
	"repro/internal/protocol"
	"repro/internal/tensor"
)

// TestSealWireBytesCountsTheFrame: the upstream byte count behind
// BytesUpstream (and payload_bytes_per_round) is the StripeSeal's frame —
// its MarshalBinary payload plus the 6-byte header — for a seal carrying
// every variable-length field, and counting it encodes nothing.
func TestSealWireBytesCountsTheFrame(t *testing.T) {
	m := protocol.StripeSeal{Population: "pop", TaskID: "pop/train", Round: 300, Shard: 2,
		Reports: 128, EvalReports: 3, Lost: 4, Aborted: 5, Clipped: 6, Weight: 1280,
		Sum:            fedavg.MarshalSum(make(tensor.Vector, 4096)),
		Metrics:        map[string][]float64{"train_loss": {0.5, 0.25}, "train_acc": {1}},
		Phases:         map[string]int64{"configure": 12_000_000, "edge_accumulate": 34_000_000},
		Blamed:         []string{"dev-7: forged share"},
		GroupErrors:    []string{"secagg: only 1 of 4 group devices delivered"},
		RobustRejected: []string{"dev-1: cosine distance 1.9"}}
	_, payload, _ := protocol.MarshalBinary(m)
	if got, want := sealWireBytes(m), int64(len(payload))+6; got != want {
		t.Fatalf("sealWireBytes %d, frame %d bytes", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { sealWireBytes(m) }); n != 0 {
		t.Fatalf("%v allocs per sealWireBytes", n)
	}
}
