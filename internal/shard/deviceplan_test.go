package shard_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// TestDevicesNeverSeeTheServerPlan runs real device.Clients, training on
// their own examples, through one round in process and over 1+1: on the
// rig's mem links in virtual time, and on poisoned loopback sockets. Each
// plan carries the sentinels in its server part, and the composition
// matrix's tap checks every configuration and report the devices' links
// carry. Alongside:
//   - a legacy plan (Server.ReportEncoding Quant8, Device.ReportEncoding unset)
//     still has its devices report Quant8;
//   - a fused-op plan lowered for runtime-1 devices decodes and executes;
//   - an eval plan's devices report metrics only.
func TestDevicesNeverSeeTheServerPlan(t *testing.T) {
	transport.PoisonReleasedForTest()
	const devices, features = 4, 63
	dim := (features + 1) * 3
	fed, err := data.Blobs(data.BlobsConfig{Users: devices, ExamplesPer: 10, Features: features, Classes: 3, TestSize: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cfg     func(c *plan.Config)
		legacy  bool
		runtime int
	}{
		{name: "trimmed_mean", cfg: func(c *plan.Config) {
			c.Robust = plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: trimFraction}
		}, runtime: stubRuntime},
		{name: "legacy_quant8", cfg: func(c *plan.Config) { c.ReportEncoding = checkpoint.EncodingQuant8 }, legacy: true, runtime: stubRuntime},
		{name: "fused_on_runtime_1", cfg: func(c *plan.Config) { c.UseFusedOps = true }, runtime: 1},
		{name: "eval", cfg: asEval, runtime: stubRuntime},
	} {
		for _, topo := range topologies[:2] {
			for _, mem := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/mem=%v", tc.name, topo.name, mem), func(t *testing.T) {
					cfg := plan.Config{
						TaskID: matrixTask, Population: matrixPop,
						Model:     nn.Spec{Kind: nn.KindLogistic, Features: features, Classes: 3, Seed: 1},
						StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
						TargetDevices: devices, OverSelectFactor: 1, MinReportFraction: 1,
						SelectionTimeout: 30 * time.Second, ReportTimeout: 30 * time.Second,
						ReportEncoding: checkpoint.EncodingFloat64, SecAggThresholdFraction: secaggThreshold,
					}
					tc.cfg(&cfg)
					p, err := plan.Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					p.Server.Robust.TrimFraction, p.Server.Robust.MaxCosineDistance = trimFraction, cosineDistance
					if tc.legacy {
						p.Device.ReportEncoding = 0
					}
					if err := p.Validate(); err != nil {
						t.Fatal(err)
					}
					c := newCell(t, shape{name: tc.name}, topo, faults[0], p, 0, dim)
					c.runtime = tc.runtime
					clients := func(clock simclock.Clock) {
						for i := range devices {
							id := fmt.Sprintf("dev-%d", i)
							rt := device.NewRuntime(id, tc.runtime, nil, uint64(i))
							st, err := device.NewMemStore("clicks", 100, 0)
							if err != nil {
								t.Fatal(err)
							}
							for _, ex := range fed.Users[i] {
								st.Add(ex, clock.Now())
							}
							if err := rt.RegisterStore(st); err != nil {
								t.Fatal(err)
							}
							c.clients = append(c.clients, &device.Client{ID: id, Population: matrixPop, Runtime: rt, Clock: clock})
						}
					}
					if mem {
						rig, err := chaos.NewRig(chaos.RigConfig{Plan: p, Store: c.store, PopulationEstimate: devices, MaxRounds: 1, Shards: topo.shards, Seed: 1})
						if err != nil {
							t.Fatal(err)
						}
						defer rig.Close()
						clients(rig.Clock)
						c.swarm(rig, devices, func(i int) time.Duration { return time.Second + time.Duration(i)*time.Millisecond })
						if err := rig.Clock.Run(2*time.Minute, func() bool { return len(c.store.Traces()) > 0 }); err != nil && !errors.Is(err, simclock.ErrHorizon) {
							t.Fatal(err)
						}
						if err := rig.StopDevices(time.Hour); err != nil {
							t.Fatal(err)
						}
					} else {
						clients(simclock.Wall)
						c.runTCP(t, topo.shards, 1, devices, nil)
					}

					if len(c.bad) > 0 {
						t.Fatalf("device link: %d bad messages, first: %s", len(c.bad), c.bad[0])
					}
					if c.configs != devices || c.reports != devices {
						t.Fatalf("%d configurations and %d reports, want %d each", c.configs, c.reports, devices)
					}
					if traces := c.store.Traces(); len(traces) != 1 || !traces[0].Committed {
						t.Fatalf("want one committed round, got %+v", traces)
					}
				})
			}
		}
	}
}
