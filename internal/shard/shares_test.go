package shard

import (
	"runtime"
	"testing"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/flserver"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestRoundConfigsShareOneMarshal: opening three shard edges on one round's
// different shares marshals the plan and the checkpoint once. Every
// RoundConfig aliases the one checkpoint buffer, and the three opens together
// allocate less than a second checkpoint would.
func TestRoundConfigsShareOneMarshal(t *testing.T) {
	const dim = 1 << 16
	p, err := plan.Generate(plan.Config{
		TaskID: engineTask, Population: enginePop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1, TargetDevices: 128,
		ReportEncoding: checkpoint.EncodingFloat64,
	})
	if err != nil {
		t.Fatal(err)
	}
	global := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, dim)}
	cp := &CoordinatorProc{cfg: CoordinatorConfig{Clock: actor.Wall}}
	edges, peers := make([]*shardEdge, 3), make([]transport.Conn, 3)
	cfgs := make([]*flserver.EdgeRoundConfig, 3)
	for i, target := range []int{43, 43, 42} {
		conn, peer := transport.Pipe()
		sess := remote.NewSession(conn, remote.SessionOptions{})
		defer sess.Close()
		edges[i], peers[i] = &shardEdge{cp: cp, sess: sess}, peer
		cfgs[i] = &flserver.EdgeRoundConfig{Population: enginePop, Plan: p, Global: global, Dim: dim,
			Target: target, Admit: target, MinReports: target}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, e := range edges {
		if err := e.Open(cfgs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b, err := global.Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	size := len(b)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(2*size) {
		t.Fatalf("opening three shares allocated %d bytes: a second %d-byte checkpoint", grew, size)
	}
	var ckpt *byte
	for i, peer := range peers {
		msg, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		rc := msg.(protocol.RoundConfig)
		if rc.Target != cfgs[i].Target || len(rc.Checkpoint) != size {
			t.Fatalf("edge %d: Target %d with %d checkpoint bytes, want %d with %d", i, rc.Target, len(rc.Checkpoint), cfgs[i].Target, size)
		}
		if ckpt == nil {
			ckpt = &rc.Checkpoint[0]
		} else if &rc.Checkpoint[0] != ckpt {
			t.Fatalf("edge %d's RoundConfig carries its own copy of the checkpoint", i)
		}
	}
}
