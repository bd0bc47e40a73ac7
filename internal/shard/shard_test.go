package shard

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// runShardedRounds drives a 1+N rig to its round target with 2K stub
// devices that report and check straight back in, then checks what crossed
// the selector→coordinator boundary: one sealed stripe per shard per round
// — never a raw update — accounted per shard.
func runShardedRounds(t *testing.T, topo engineTopology, k int) *engineRig {
	p, err := plan.Generate(plan.Config{
		TaskID: engineTask, Population: enginePop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: k, MinReportFraction: 0.5,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 20 * time.Second,
		ReportEncoding: checkpoint.EncodingFloat64,
	})
	if err != nil {
		t.Fatal(err)
	}
	update, err := stubUpdate(0, 1).Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	rig := startEngine(t, topo, p)
	stop := make(chan struct{})
	var stubs sync.WaitGroup
	for i := 0; i < 2*k; i++ {
		stubs.Add(1)
		go func(i int) {
			defer stubs.Done()
			for {
				s := configured(actor.Wall, rig.dials[i%len(rig.dials)], fmt.Sprintf("stub-%d", i), stop)
				if s == nil {
					return
				}
				_, _ = s.Report(update, nil)
			}
		}(i)
	}
	waitEngineDone(t, rig)
	close(stop)
	// A stub that never returns holds a connection nobody answered.
	idle := make(chan struct{})
	go func() { stubs.Wait(); close(idle) }()
	select {
	case <-idle:
	case <-time.After(30 * time.Second):
		t.Fatal("stub devices still waiting for an answer after the last round committed")
	}

	st, err := rig.coord.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rounds := st.RoundsCompleted + st.RoundsFailed
	if st.RoundsCompleted == 0 || st.SealsReceived != int64(topo.shards*rounds) || st.BytesUpstream <= 0 {
		t.Fatalf("want one seal per shard per round: %+v", st)
	}
	per := rig.coord.perShardStats()
	if len(per) != topo.shards {
		t.Fatalf("per-shard breakdown has %d of %d shards: %+v", len(per), topo.shards, per)
	}
	for id, c := range per {
		if c.Seals != int64(rounds) || c.Bytes <= 0 {
			t.Fatalf("shard %d: %+v over %d rounds", id, c, rounds)
		}
	}
	return rig
}

// TestShardedRoundTCP: device links and shard links on loopback sockets.
// Released receive buffers are poisoned, and a StripeSeal's Sum aliases one
// that the coordinator's session reader releases as soon as its handler
// returns: a sum read after that would commit ~1e132, not the stubs' update.
func TestShardedRoundTCP(t *testing.T) {
	transport.PoisonReleasedForTest()
	rig := runShardedRounds(t, engineTopology{name: "1+3", shards: 3, tcpPeers: true}, 6)
	got, err := rig.store.LatestCheckpoint(engineTask)
	if err != nil {
		t.Fatal(err)
	}
	// Every stub reports the same update over a zero global: the committed
	// parameters are that update's per-example mean.
	want := stubUpdate(0, 1)
	for j, w := range want.Params {
		if math.Abs(got.Params[j]-w/want.Weight) > 1e-9 {
			t.Fatalf("round %d param %d: committed %v, want %v", got.Round, j, got.Params[j], w/want.Weight)
		}
	}
}

// TestShardedCheckinStorm runs K = 64, 512, 4096 back to back, five times,
// over the mem network. Before the round's control sends left its Receive
// (flserver.roundOutbox) this sequence hung on a 2-core host about every
// other time: at K=4096 a Selector's mailbox filled with check-ins while the
// round's filled with report outcomes, and each actor parked on the other's.
func TestShardedCheckinStorm(t *testing.T) {
	storm := engineTopology{name: "1+3", shards: 3, storm: true}
	for pass := 0; pass < 5; pass++ {
		for _, k := range []int{64, 512, 4096} {
			if k == 4096 && (raceEnabled || testing.Short()) {
				continue
			}
			t.Run(fmt.Sprintf("pass-%d/K-%d", pass, k), func(t *testing.T) { runShardedRounds(t, storm, k) })
		}
	}
}

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
