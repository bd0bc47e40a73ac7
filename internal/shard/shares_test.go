package shard

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/flserver"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func sharePlan(t *testing.T, k int) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID: engineTask, Population: enginePop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: k, OverSelectFactor: 1.0, MinReportFraction: 1.0,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 30 * time.Second,
		ReportEncoding: checkpoint.EncodingFloat64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardedRoundMeetsItsGoalCount: a K three shards cannot split evenly is
// split exactly — K = 128 as 43 + 43 + 42 — and K = 2 opens two of the three
// edges (the third would be lifted to a one-device target). Every round's
// per-edge Targets sum to K, and the committed trace counts K reports, not
// the 129 (and 3) a ceil share per edge configured.
func TestShardedRoundMeetsItsGoalCount(t *testing.T) {
	for _, k := range []int{128, 2} {
		t.Run(fmt.Sprintf("K-%d", k), func(t *testing.T) {
			p := sharePlan(t, k)
			update, err := stubUpdate(0, 1).Marshal(checkpoint.EncodingFloat64)
			if err != nil {
				t.Fatal(err)
			}
			rig := startEngine(t, engineTopologies[2], p)
			stop := make(chan struct{})
			stubs := runStubs(rig, k+3, func(int) ([]byte, map[string]float64) { return update, nil }, stop)
			defer func() { close(stop); stubs.Wait() }()
			waitEngineDone(t, rig)

			if tr := lastTrace(t, rig.store); !tr.Committed || tr.Reports != k {
				t.Fatalf("trace committed=%v with %d reports, want %d", tr.Committed, tr.Reports, k)
			}
			rig.mu.Lock()
			targets := slices.Clone(rig.targets)
			rig.mu.Unlock()
			// Rounds open one after another, so each attempt's configs are
			// consecutive.
			opened := min(k, 3)
			if len(targets) == 0 || len(targets)%opened != 0 {
				t.Fatalf("RoundConfig Targets %v: want %d per round", targets, opened)
			}
			for r := 0; r < len(targets); r += opened {
				sum := 0
				for _, target := range targets[r : r+opened] {
					sum += target
				}
				if sum != k {
					t.Fatalf("RoundConfig Targets %v: a round's shares sum to %d, want %d", targets, sum, k)
				}
			}
		})
	}
}

// TestRoundConfigsShareOneMarshal: opening three shard edges on one round's
// different shares marshals the plan and the checkpoint once. Every
// RoundConfig aliases the one checkpoint buffer, and the three opens together
// allocate less than a second checkpoint would.
func TestRoundConfigsShareOneMarshal(t *testing.T) {
	const dim = 1 << 16
	p := sharePlan(t, 128)
	global := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, dim)}
	cp := &CoordinatorProc{}
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
