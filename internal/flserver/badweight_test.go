package flserver

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestNonFiniteWeightReportsRefused: a report whose checkpoint header
// carries Weight = NaN or +Inf used to pass every `weight <= 0` guard and
// turn the stripe weight, 1/n̄ and the committed checkpoint into NaN for
// the rest of the lineage. Over transport.Pipe against a real server, on
// the plain, secure and retention ingest branches: both reports are
// refused, the rejection counter moves by exactly two, and the round
// commits the closed form of the honest devices with every parameter
// finite.
func TestNonFiniteWeightReportsRefused(t *testing.T) {
	const honest, dim, weight = 8, 16, 2.0
	for _, tc := range []struct {
		name   string
		secure bool
		robust plan.RobustPolicy
		tol    float64
	}{
		{name: "plain"}, // power-of-two weights: the closed form is exact
		{name: "secure", secure: true, tol: 1e-3},
		{name: "retention", robust: plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: 0.25}, tol: 1e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := plan.Generate(plan.Config{
				TaskID: "pop/train", Population: "pop",
				Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
				StoreName: "clicks", BatchSize: 10, Epochs: 1, LearningRate: 0.1,
				// Admit honest+2, so the two refused devices take no
				// honest device's place; one secure group holds them all.
				TargetDevices: honest, OverSelectFactor: 1.25, MinReportFraction: 1,
				SelectionTimeout: time.Minute, ReportTimeout: time.Minute,
				SecureAggregation: tc.secure, SecAggGroupSize: honest + 2,
				Robust: tc.robust,
			})
			if err != nil {
				t.Fatal(err)
			}
			global := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, dim)}
			delta := make(tensor.Vector, dim) // per-example delta, the same on every device
			for j := range delta {
				global.Params[j] = 0.5 * float64(j)
				delta[j] = 0.25*float64(j%5) - 0.5
			}
			update := func(w float64) []byte {
				u := &checkpoint.Checkpoint{TaskName: p.ID, Weight: w, Params: delta.Clone()}
				u.Params.Scale(weight)
				b, err := u.Marshal(checkpoint.EncodingFloat64)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			store := storage.NewMem()
			if err := store.PutCheckpoint(global); err != nil {
				t.Fatal(err)
			}
			outcomes := make(chan roundOutcome, 1)
			clock := newWatchedClock()
			srv, err := newServer(Config{
				Population: "pop", Plans: []*plan.Plan{p}, Store: store,
				Steering: pacing.New(time.Second), PopulationEstimate: honest + 2, MaxRounds: 1,
			}, clock, func(out roundOutcome) { outcomes <- out }, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// session runs one device over a Pipe until it is admitted, and
			// records the server's verdict on its report.
			var mu sync.Mutex
			verdicts := map[string]protocol.ReportResponse{}
			session := func(id string, upd []byte) {
				clock.Go(func() {
					for {
						srvEnd, dev := transport.Pipe(clock)
						clock.Go(func() { srv.fleet.router.handleConn(srvEnd) })
						_ = dev.Send(protocol.CheckinRequest{DeviceID: id, Population: "pop", RuntimeVersion: 3})
						msg, err := dev.Recv()
						if resp, ok := msg.(protocol.CheckinResponse); err == nil && ok && resp.Accepted {
							_ = dev.Send(protocol.ReportRequest{DeviceID: id, TaskID: resp.TaskID, Round: resp.Round, Update: upd})
							ack, err := dev.Recv()
							dev.Close()
							if err != nil {
								t.Errorf("%s: no verdict: %v", id, err)
							}
							mu.Lock()
							verdicts[id], _ = ack.(protocol.ReportResponse)
							mu.Unlock()
							return
						}
						dev.Close()
						actor.Sleep(clock, time.Millisecond, nil)
					}
				})
			}
			heard := func(n int) func() bool {
				return func() bool { mu.Lock(); defer mu.Unlock(); return len(verdicts) == n }
			}

			rejectedBefore := obsReportsRejected.Value()
			weights := map[string]float64{"nan": math.NaN(), "inf": math.Inf(1)}
			for id, w := range weights {
				session(id, update(w))
			}
			clock.until(t, "the non-finite reports' verdicts", heard(2))
			for id, w := range weights {
				if v := verdicts[id]; v.Accepted || v.Reason != "non-positive or non-finite weight" {
					t.Fatalf("weight %v: verdict %+v, want a non-finite-weight refusal", w, v)
				}
			}
			if got := obsReportsRejected.Value() - rejectedBefore; got != 2 {
				t.Fatalf("fl_reports_rejected_total moved by %d, want 2", got)
			}
			for i := 0; i < honest; i++ {
				session(fmt.Sprintf("honest-%d", i), update(weight))
			}
			clock.until(t, "the honest reports' verdicts and the round", func() bool { return heard(2+honest)() && len(outcomes) == 1 })
			for id, v := range verdicts {
				if _, bad := weights[id]; !bad && !v.Accepted {
					t.Errorf("%s: honest report refused: %+v", id, v)
				}
			}

			out := <-outcomes
			if out.Committed == nil {
				t.Fatalf("round failed: %s", out.FailReason)
			}
			if out.Completed != honest {
				t.Fatalf("completed %d, want %d", out.Completed, honest)
			}
			if w := out.Committed.Weight; math.Abs(w-honest*weight) > tc.tol {
				t.Fatalf("committed weight %v, want %v", w, honest*weight)
			}
			for j, got := range out.Committed.Params {
				want := global.Params[j] + delta[j]
				if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-want) > tc.tol {
					t.Fatalf("param %d: committed %v, closed form %v", j, got, want)
				}
			}
		})
	}
}
