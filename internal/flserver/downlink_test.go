package flserver

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fedavg"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// tapConn records what one device connection carried: the checkpoint bytes the
// device was served and the update it sent back.
type tapConn struct {
	transport.Conn
	served, update []byte
}

func (c *tapConn) Recv() (interface{}, error) {
	msg, err := c.Conn.Recv()
	if r, ok := msg.(protocol.CheckinResponse); ok && r.Accepted {
		c.served = append([]byte(nil), r.Checkpoint...) // before the lease goes back
	}
	return msg, err
}

func (c *tapConn) Send(msg interface{}) error {
	if r, ok := msg.(protocol.ReportRequest); ok {
		c.update = r.Update
	}
	return c.Conn.Send(msg)
}

// TestQuantizedDownlink runs one round of real device.Clients over MemNetwork
// and over TCP (released buffers poisoned) for a Quant8 training plan, a
// float64 one and an eval one whose reports would be Quant8:
//   - the Quant8 training plan's devices are served a Quant8 checkpoint whose
//     every coordinate is within (hi − lo)/510 of the stored master;
//   - the float64 plan's and the eval plan's devices are served the master
//     bit for bit;
//   - a training round commits a float64 checkpoint equal to the master plus
//     the weighted mean of the reported deltas — the master itself, not its
//     quantization, is what the deltas land on.
func TestQuantizedDownlink(t *testing.T) {
	transport.PoisonReleasedForTest()
	const devices = 6
	fed, err := data.Blobs(data.BlobsConfig{
		Users: devices, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		typ  plan.TaskType
		enc  checkpoint.Encoding
		want checkpoint.Encoding
	}{
		{"train/quant8", plan.TaskTrain, checkpoint.EncodingQuant8, checkpoint.EncodingQuant8},
		{"train/float64", plan.TaskTrain, checkpoint.EncodingFloat64, checkpoint.EncodingFloat64},
		{"eval/quant8", plan.TaskEval, checkpoint.EncodingQuant8, checkpoint.EncodingFloat64},
	} {
		for _, tcp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tcp=%v", tc.name, tcp), func(t *testing.T) {
				p, err := plan.Generate(plan.Config{
					TaskID: "pop/task", Population: "pop", Type: tc.typ,
					Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
					StoreName: "clicks", BatchSize: 10, Epochs: 1, LearningRate: 0.05,
					TargetDevices: devices, OverSelectFactor: 1, MinReportFraction: 1,
					SelectionTimeout: time.Minute, ReportTimeout: time.Minute, ReportEncoding: tc.enc,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := p.DownlinkEncoding(); got != tc.want {
					t.Fatalf("DownlinkEncoding = %d, want %d", got, tc.want)
				}
				// A master whose values Quant8 cannot hold exactly.
				m, err := p.Device.Model.Build()
				if err != nil {
					t.Fatal(err)
				}
				master := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, m.NumParams())}
				tensor.NewRNG(7).FillNormal(master.Params, 1)
				masterBytes, err := master.Marshal(checkpoint.EncodingFloat64)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				store, err := storage.NewFile(dir)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.PutCheckpoint(master); err != nil {
					t.Fatal(err)
				}
				srv, err := New(Config{
					Population: "pop", Plans: []*plan.Plan{p}, Store: store,
					Steering: pacing.New(time.Second), MaxRounds: 1, Seed: 42,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				l, dial, err := listen(tcp)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				go srv.Serve(l)

				// Each device checks in until a round configures it.
				taps := make([]*tapConn, devices)
				deadline := time.Now().Add(30 * time.Second)
				var wg sync.WaitGroup
				for i := range taps {
					client, err := device.NewLocalDataClient(fmt.Sprintf("dev-%d", i), "pop", "clicks", fed.Users[i], uint64(i))
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for time.Now().Before(deadline) {
							conn, err := dial()
							if err != nil {
								t.Error(err)
								return
							}
							tap := &tapConn{Conn: conn}
							if out, err := client.RunOnce(tap); err == nil && out.Accepted {
								if !out.ReportAccepted {
									t.Errorf("device %d: report not accepted: %+v", i, out)
								}
								taps[i] = tap
								return
							}
							time.Sleep(time.Millisecond)
						}
						t.Errorf("device %d never configured", i)
					}(i)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				waitDone(t, srv, 30*time.Second)

				lo, hi := master.Params.Range()
				tol := (hi - lo) / 510 * (1 + 1e-12)
				for i, tap := range taps {
					meta, err := checkpoint.ParseMeta(tap.served)
					if err != nil {
						t.Fatal(err)
					}
					if meta.Encoding != tc.want {
						t.Fatalf("device %d served encoding %d, want %d", i, meta.Encoding, tc.want)
					}
					if tc.want == checkpoint.EncodingFloat64 {
						if !bytes.Equal(tap.served, masterBytes) {
							t.Fatalf("device %d: float64 download differs from the master", i)
						}
						continue
					}
					got, err := checkpoint.Unmarshal(tap.served)
					if err != nil {
						t.Fatal(err)
					}
					for j, w := range master.Params {
						if d := math.Abs(got.Params[j] - w); d > tol {
							t.Fatalf("device %d param %d: served %v, master %v (off by %v > %v)", i, j, got.Params[j], w, d, tol)
						}
					}
				}

				committed, err := filepath.Glob(filepath.Join(dir, "*", "round-0000000001.ckpt"))
				if err != nil {
					t.Fatal(err)
				}
				if tc.typ == plan.TaskEval {
					if len(committed) != 0 {
						t.Fatalf("eval round committed %v", committed)
					}
					return
				}
				if len(committed) != 1 {
					t.Fatalf("round-1 checkpoint files: %v", committed)
				}
				b, err := os.ReadFile(committed[0])
				if err != nil {
					t.Fatal(err)
				}
				if meta, err := checkpoint.ParseMeta(b); err != nil || meta.Encoding != checkpoint.EncodingFloat64 {
					t.Fatalf("committed checkpoint stored as %+v (%v), want float64", meta, err)
				}
				stored, err := checkpoint.Unmarshal(b)
				if err != nil {
					t.Fatal(err)
				}
				acc := fedavg.NewAccumulator(len(master.Params))
				for _, tap := range taps {
					u, err := checkpoint.Unmarshal(tap.update)
					if err != nil {
						t.Fatal(err)
					}
					if err := acc.Add(&fedavg.Update{Delta: u.Params, Weight: u.Weight}); err != nil {
						t.Fatal(err)
					}
				}
				want, _, err := acc.Step(master.Params)
				if err != nil {
					t.Fatal(err)
				}
				for j, w := range want {
					if math.Abs(stored.Params[j]-w) > 1e-9*(1+math.Abs(w)) {
						t.Fatalf("param %d: committed %v, master + mean delta %v", j, stored.Params[j], w)
					}
				}
			})
		}
	}
}

// TestDownlinkFrameSize pins the download of a dim-65 536 round (the size of
// the benchmark's uplink workloads): the pre-framed configuration response
// carries the global model marshaled in the plan's downlink encoding —
// 65 582 checkpoint bytes instead of 524 318 for Quant8.
func TestDownlinkFrameSize(t *testing.T) {
	for _, enc := range []checkpoint.Encoding{checkpoint.EncodingQuant8, checkpoint.EncodingFloat64} {
		p, err := plan.Generate(plan.Config{
			TaskID: "bench/round", Population: "bench",
			Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
			StoreName: "bench", BatchSize: 10, Epochs: 1, LearningRate: 0.1,
			TargetDevices: 128, ReportEncoding: enc,
		})
		if err != nil {
			t.Fatal(err)
		}
		global := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, 65536)}
		tensor.NewRNG(3).FillNormal(global.Params, 1)
		er := &EdgeRound{cfg: EdgeRoundConfig{Plan: p, Round: 1, Global: global}, resps: map[int]*versionResp{}}
		vr := er.respFor(3)
		if vr.err != "" {
			t.Fatal(vr.err)
		}
		ckpt := vr.enc.Message().(protocol.CheckinResponse).Checkpoint
		if meta, err := checkpoint.ParseMeta(ckpt); err != nil || meta.Encoding != enc {
			t.Fatalf("served %+v (%v), want encoding %d", meta, err, enc)
		}
		if want, err := global.Marshal(enc); err != nil || !bytes.Equal(ckpt, want) {
			t.Fatalf("encoding %d: served %d checkpoint bytes, not the global's %d (%v)", enc, len(ckpt), len(want), err)
		}
		if want := map[checkpoint.Encoding]int{checkpoint.EncodingQuant8: 65582, checkpoint.EncodingFloat64: 524318}[enc]; len(ckpt) != want {
			t.Fatalf("encoding %d: download is %d bytes, want %d", enc, len(ckpt), want)
		}
	}
}
