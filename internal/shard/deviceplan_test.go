package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// deviceTap records what real devices' connections carried: a copy of every
// accepted CheckinResponse, taken before the receive lease goes back, and
// every report.
type deviceTap struct {
	mu      sync.Mutex
	resps   []protocol.CheckinResponse
	reports []protocol.ReportRequest
}

type tapConn struct {
	transport.Conn
	tap *deviceTap
}

func (c tapConn) Recv() (interface{}, error) {
	msg, err := c.Conn.Recv()
	if r, ok := msg.(protocol.CheckinResponse); ok && r.Accepted {
		r.Plan, r.Checkpoint = slices.Clone(r.Plan), slices.Clone(r.Checkpoint)
		c.tap.mu.Lock()
		c.tap.resps = append(c.tap.resps, r)
		c.tap.mu.Unlock()
	}
	return msg, err
}

func (c tapConn) Send(msg interface{}) error {
	if r, ok := msg.(protocol.ReportRequest); ok {
		c.tap.mu.Lock()
		c.tap.reports = append(c.tap.reports, r)
		c.tap.mu.Unlock()
	}
	return c.Conn.Send(msg)
}

// TestDevicesNeverSeeTheServerPlan runs real device.Clients through one round
// in process and over 1+1, on mem and TCP device links, for plans that carry
// sentinel values in the server's part: the robust policy's TrimFraction and
// MaxCosineDistance and the secagg threshold. No CheckinResponse a device
// receives may hold any sentinel's 8 bytes in either byte order. Alongside:
//   - a legacy plan (Server.ReportEncoding Quant8, Device.ReportEncoding unset)
//     still has its devices report Quant8;
//   - a fused-op plan lowered for runtime-1 devices decodes and executes;
//   - an eval plan's devices report metrics only.
func TestDevicesNeverSeeTheServerPlan(t *testing.T) {
	transport.PoisonReleasedForTest()
	const devices = 4
	const trim, cosine, threshold = 0.1234567890123, 1.9876543210987, 0.6180339887498949
	var sentinels [][]byte
	for _, v := range []float64{trim, cosine, threshold} {
		sentinels = append(sentinels, binary.BigEndian.AppendUint64(nil, math.Float64bits(v)),
			binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	// Logistic over 2047 features with 3 classes has engineDim parameters,
	// the size of the checkpoint the rig seeds.
	fed, err := data.Blobs(data.BlobsConfig{Users: devices, ExamplesPer: 10, Features: 2047, Classes: 3, TestSize: 1, Seed: 5})
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
			c.Robust = plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: trim}
		}, runtime: 3},
		{name: "legacy_quant8", cfg: func(c *plan.Config) { c.ReportEncoding = checkpoint.EncodingQuant8 }, legacy: true, runtime: 3},
		{name: "fused_on_runtime_1", cfg: func(c *plan.Config) { c.UseFusedOps = true }, runtime: 1},
		{name: "eval", cfg: func(c *plan.Config) {
			c.Type, c.BatchSize, c.Epochs, c.LearningRate = plan.TaskEval, 0, 0, 0
		}, runtime: 3},
	} {
		for _, topo := range []engineTopology{{name: "in-process"}, {name: "1+1", shards: 1}} {
			for _, mem := range []bool{true, false} {
				topo := topo
				topo.memDevices = mem
				t.Run(fmt.Sprintf("%s/%s/mem=%v", tc.name, topo.name, mem), func(t *testing.T) {
					cfg := plan.Config{
						TaskID: engineTask, Population: enginePop,
						Model:     nn.Spec{Kind: nn.KindLogistic, Features: 2047, Classes: 3, Seed: 1},
						StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
						TargetDevices: devices, OverSelectFactor: 1, MinReportFraction: 1,
						SelectionTimeout: 30 * time.Second, ReportTimeout: 30 * time.Second,
						ReportEncoding: checkpoint.EncodingFloat64, SecAggThresholdFraction: threshold,
					}
					tc.cfg(&cfg)
					p, err := plan.Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					p.Server.Robust.TrimFraction, p.Server.Robust.MaxCosineDistance = trim, cosine
					if tc.legacy {
						p.Device.ReportEncoding = 0
					}
					if err := p.Validate(); err != nil {
						t.Fatal(err)
					}
					rig := startEngine(t, topo, p)
					tap := &deviceTap{}
					var wg sync.WaitGroup
					for i := 0; i < devices; i++ {
						id := fmt.Sprintf("dev-%d", i)
						rt := device.NewRuntime(id, tc.runtime, nil, uint64(i))
						st, err := device.NewMemStore("clicks", 100, 0)
						if err != nil {
							t.Fatal(err)
						}
						for _, ex := range fed.Users[i] {
							st.Add(ex, time.Now())
						}
						if err := rt.RegisterStore(st); err != nil {
							t.Fatal(err)
						}
						client := &device.Client{ID: id, Population: enginePop, Runtime: rt}
						wg.Add(1)
						go func() {
							defer wg.Done()
							for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
								conn, err := rig.dials[0]()
								if err != nil {
									t.Error(err)
									return
								}
								out, err := client.RunOnce(tapConn{Conn: conn, tap: tap})
								if err != nil {
									t.Errorf("%s: %v", id, err)
									return
								}
								if out.Accepted {
									if !out.ReportAccepted {
										t.Errorf("%s: report not accepted: %+v", id, out)
									}
									return
								}
							}
							t.Errorf("%s never configured", id)
						}()
					}
					wg.Wait()
					if t.Failed() {
						return
					}
					waitEngineDone(t, rig)

					if len(tap.resps) != devices || len(tap.reports) != devices {
						t.Fatalf("%d configurations and %d reports, want %d each", len(tap.resps), len(tap.reports), devices)
					}
					for _, r := range tap.resps {
						for _, s := range sentinels {
							if bytes.Contains(r.Plan, s) || bytes.Contains(r.Checkpoint, s) {
								t.Fatalf("a device was sent the server plan's sentinel %x", s)
							}
						}
						dp, err := plan.UnmarshalDevice(r.Plan)
						if err != nil {
							t.Fatal(err)
						}
						if dp.Device.MinRuntimeVersion > tc.runtime {
							t.Fatalf("runtime-%d device served a plan needing %d", tc.runtime, dp.Device.MinRuntimeVersion)
						}
					}
					for _, r := range tap.reports {
						if p.Type == plan.TaskEval {
							if r.Update != nil || len(r.Metrics) == 0 {
								t.Fatalf("eval report carries %d update bytes and metrics %v", len(r.Update), r.Metrics)
							}
							continue
						}
						meta, err := checkpoint.ParseMeta(r.Update)
						if err != nil || meta.Encoding != p.UplinkEncoding() {
							t.Fatalf("device reported %+v (%v), want encoding %d", meta, err, p.UplinkEncoding())
						}
					}
				})
			}
		}
	}
}
