package flserver

import (
	"fmt"
	"math"
	"strings"
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
// the rest of the lineage. On the plain, secure and retention ingest
// branches both reports are refused and the round commits the closed form
// of the honest devices.
func TestNonFiniteWeightReportsRefused(t *testing.T) {
	for _, tc := range refusalCases {
		t.Run(tc.name, func(t *testing.T) {
			refuseThenCommit(t, tc.secure, tc.robust, tc.tol, "non-positive or non-finite weight",
				map[string]func(*protocol.ReportRequest, func(float64) []byte){
					"nan": func(r *protocol.ReportRequest, update func(float64) []byte) { r.Update = update(math.NaN()) },
					"inf": func(r *protocol.ReportRequest, update func(float64) []byte) { r.Update = update(math.Inf(1)) },
				})
		})
	}
}

// TestReportForAnotherRoundRefused: a report is folded only into the round
// its session was configured for. A device that reports for the next round,
// or for another task, over a configured session is refused on every ingest
// branch, and the round commits the closed form of the honest reports.
func TestReportForAnotherRoundRefused(t *testing.T) {
	for _, tc := range refusalCases {
		t.Run(tc.name, func(t *testing.T) {
			refuseThenCommit(t, tc.secure, tc.robust, tc.tol, "report for ",
				map[string]func(*protocol.ReportRequest, func(float64) []byte){
					"next round": func(r *protocol.ReportRequest, _ func(float64) []byte) { r.Round++ },
					"other task": func(r *protocol.ReportRequest, _ func(float64) []byte) { r.TaskID = "pop/other" },
				})
		})
	}
}

// TestReportFromAnotherDeviceRefused: a report must name the device whose
// session carries it. One naming another device of the round, or none, is
// refused on every ingest branch, not folded under the session's device.
func TestReportFromAnotherDeviceRefused(t *testing.T) {
	for _, tc := range refusalCases {
		t.Run(tc.name, func(t *testing.T) {
			refuseThenCommit(t, tc.secure, tc.robust, tc.tol, "report from ",
				map[string]func(*protocol.ReportRequest, func(float64) []byte){
					"another device": func(r *protocol.ReportRequest, _ func(float64) []byte) { r.DeviceID = "honest-0" },
					"no device":      func(r *protocol.ReportRequest, _ func(float64) []byte) { r.DeviceID = "" },
				})
		})
	}
}

// refusalCases are the three ingest branches a report can take.
var refusalCases = []struct {
	name   string
	secure bool
	robust plan.RobustPolicy
	tol    float64
}{
	{name: "plain"}, // power-of-two weights: the closed form is exact
	{name: "secure", secure: true, tol: 1e-3},
	{name: "retention", robust: plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: 0.25}, tol: 1e-9},
}

// refuseThenCommit runs one round over transport.Pipe against a real
// server. First two devices report what bad makes of an honest report — it
// is handed the report and a function marshaling an update of a given
// weight — and each must be refused with a reason starting with reason, the
// rejection counter moving by exactly two. Then the honest devices report,
// and the round must commit their closed form with every parameter finite.
func refuseThenCommit(t *testing.T, secure bool, robust plan.RobustPolicy, tol float64, reason string,
	bad map[string]func(*protocol.ReportRequest, func(float64) []byte)) {
	const honest, dim, weight = 8, 16, 2.0
	p, err := plan.Generate(plan.Config{
		TaskID: "pop/train", Population: "pop",
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 10, Epochs: 1, LearningRate: 0.1,
		// Admit honest+2, so the two refused devices take no
		// honest device's place; one secure group holds them all.
		TargetDevices: honest, OverSelectFactor: 1.25, MinReportFraction: 1,
		SelectionTimeout: time.Minute, ReportTimeout: time.Minute,
		SecureAggregation: secure, SecAggGroupSize: honest + 2,
		Robust: robust,
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
	}, clock, func(out roundOutcome) { outcomes <- out })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// session runs one device over a Pipe until it is admitted, and
	// records the server's verdict on its report.
	var mu sync.Mutex
	verdicts := map[string]protocol.ReportResponse{}
	session := func(id string, report func(protocol.CheckinResponse) protocol.ReportRequest) {
		clock.Go(func() {
			for {
				srvEnd, dev := transport.Pipe(clock)
				clock.Go(func() { srv.fleet.tier.router.handleConn(srvEnd) })
				_ = dev.Send(protocol.CheckinRequest{DeviceID: id, Population: "pop", RuntimeVersion: 3})
				msg, err := dev.Recv()
				if resp, ok := msg.(protocol.CheckinResponse); err == nil && ok && resp.Accepted {
					_ = dev.Send(report(resp))
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
	for id, b := range bad {
		session(id, func(resp protocol.CheckinResponse) protocol.ReportRequest {
			r := protocol.ReportRequest{DeviceID: id, TaskID: resp.TaskID, Round: resp.Round, Update: update(weight)}
			b(&r, update)
			return r
		})
	}
	clock.until(t, "the refused reports' verdicts", heard(len(bad)))
	for id := range bad {
		if v := verdicts[id]; v.Accepted || !strings.HasPrefix(v.Reason, reason) {
			t.Fatalf("%s: verdict %+v, want a refusal for %q", id, v, reason)
		}
	}
	if got := obsReportsRejected.Value() - rejectedBefore; got != int64(len(bad)) {
		t.Fatalf("fl_reports_rejected_total moved by %d, want %d", got, len(bad))
	}
	for i := 0; i < honest; i++ {
		id := fmt.Sprintf("honest-%d", i)
		session(id, func(resp protocol.CheckinResponse) protocol.ReportRequest {
			return protocol.ReportRequest{DeviceID: id, TaskID: resp.TaskID, Round: resp.Round, Update: update(weight)}
		})
	}
	clock.until(t, "the honest reports' verdicts and the round", func() bool { return heard(len(bad)+honest)() && len(outcomes) == 1 })
	for id, v := range verdicts {
		if _, refused := bad[id]; !refused && !v.Accepted {
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
	if w := out.Committed.Weight; math.Abs(w-honest*weight) > tol {
		t.Fatalf("committed weight %v, want %v", w, honest*weight)
	}
	for j, got := range out.Committed.Params {
		want := global.Params[j] + delta[j]
		if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-want) > tol {
			t.Fatalf("param %d: committed %v, closed form %v", j, got, want)
		}
	}
}
