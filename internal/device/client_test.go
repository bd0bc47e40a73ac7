package device

import (
	"os"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// configuration is the CheckinResponse that configures a device for p.
func configuration(t *testing.T, p *plan.Plan) protocol.CheckinResponse {
	t.Helper()
	planBytes, err := p.MarshalDevice()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := globalCkpt(t, p).Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	return protocol.CheckinResponse{Accepted: true, TaskID: p.ID, Round: 3, Plan: planBytes, Checkpoint: ck}
}

// TestAbortIsAnOutcome: the server may abort a session at check-in — a
// device forwarded to a round that sealed before configuring it — or at
// report. Either way the session ends aborted with a clean shape, not in
// error; an evaluation plan's report included.
func TestAbortIsAnOutcome(t *testing.T) {
	client := func() *Client {
		rt := NewRuntime("d", 3, nil, 7)
		if err := rt.RegisterStore(filledStore(t)); err != nil {
			t.Fatal(err)
		}
		return &Client{ID: "d", Population: "pop", Runtime: rt}
	}
	abort := protocol.Abort{TaskID: "pop/eval", Reason: "round sealed"}

	dev, srv := transport.Pipe()
	_ = srv.Send(abort)
	out, err := client().RunOnce(dev)
	if err != nil || !out.Aborted || out.Accepted || out.SessionShape != "-" {
		t.Fatalf("abort at check-in: %+v, %v; want aborted, shape -, no error", out, err)
	}

	p, err := plan.Generate(plan.Config{TaskID: "pop/eval", Population: "pop", Type: plan.TaskEval,
		Model: nn.Spec{Kind: nn.KindLogistic, Features: 2, Classes: 2, Seed: 1}, StoreName: "clicks", TargetDevices: 10})
	if err != nil {
		t.Fatal(err)
	}
	dev, srv = transport.Pipe()
	_ = srv.Send(configuration(t, p))
	_ = srv.Send(abort)
	out, err = client().RunOnce(dev)
	if err != nil || !out.Aborted || out.ReportAccepted || out.SessionShape != "-v+#" {
		t.Fatalf("abort at an evaluation report: %+v, %v; want aborted, shape -v+#, no error", out, err)
	}
}

// TestTrainingThatDoesNotRunEndsTheSession: a configured device whose
// runtime refuses the plan (a version-1 runtime given a fused plan) tells
// the server it aborted and ends in error, '*'; one that lost eligibility
// drops silently, '!'. Neither is an error of the session's.
func TestTrainingThatDoesNotRunEndsTheSession(t *testing.T) {
	cases := []struct {
		name    string
		version int
		elig    *Eligibility
		fused   bool
		shape   string
		aborted bool // the server is sent an aborted report
	}{
		{"plan refused", 1, nil, true, "-v*", true},
		{"eligibility lost", 3, NewEligibility(Conditions{}), false, "-v!", false},
	}
	for _, tc := range cases {
		rt := NewRuntime("d", tc.version, tc.elig, 7)
		if err := rt.RegisterStore(filledStore(t)); err != nil {
			t.Fatal(err)
		}
		dev, srv := transport.Pipe()
		_ = srv.Send(configuration(t, trainingPlan(t, tc.fused)))
		out, err := (&Client{ID: "d", Population: "pop", Runtime: rt}).RunOnce(dev)
		if err != nil || out.SessionShape != tc.shape {
			t.Fatalf("%s: %+v, %v; want shape %s, no error", tc.name, out, err, tc.shape)
		}
		if _, err := srv.Recv(); err != nil { // the check-in
			t.Fatal(err)
		}
		msg, err := srv.Recv()
		report, ok := msg.(protocol.ReportRequest)
		if tc.aborted && (err != nil || !ok || !report.Aborted || report.TaskID != "pop/train") {
			t.Fatalf("%s: the server got %+v, %v; want an aborted ReportRequest", tc.name, msg, err)
		}
		if !tc.aborted && err == nil {
			t.Fatalf("%s: the server got %+v; want nothing", tc.name, msg)
		}
	}
}

// TestReportsNameTheConfiguredTask: the device plan names no task, so a
// session reports under the task and round of its configuration — in the
// ReportRequest and, for a training plan, in the update's TaskName — for a
// training and an evaluation task alike. A device plan in format 2, the
// fixed-width layout format 4 replaced, is refused before training.
func TestReportsNameTheConfiguredTask(t *testing.T) {
	eval, err := plan.Generate(plan.Config{TaskID: "pop/eval", Population: "pop", Type: plan.TaskEval,
		Model: nn.Spec{Kind: nn.KindLogistic, Features: 2, Classes: 2, Seed: 1}, StoreName: "clicks", TargetDevices: 10})
	if err != nil {
		t.Fatal(err)
	}
	client := func() *Client {
		rt := NewRuntime("d", 3, nil, 7)
		if err := rt.RegisterStore(filledStore(t)); err != nil {
			t.Fatal(err)
		}
		return &Client{ID: "d", Population: "pop", Runtime: rt}
	}
	for _, p := range []*plan.Plan{trainingPlan(t, false), eval} {
		resp := configuration(t, p)
		resp.TaskID = "pop/configured"
		dev, srv := transport.Pipe()
		_ = srv.Send(resp)
		_ = srv.Send(protocol.ReportResponse{Accepted: true})
		if out, err := client().RunOnce(dev); err != nil || !out.ReportAccepted {
			t.Fatalf("%s: %+v, %v", p.Type, out, err)
		}
		_, _ = srv.Recv() // the check-in
		msg, err := srv.Recv()
		report, ok := msg.(protocol.ReportRequest)
		if err != nil || !ok || report.TaskID != resp.TaskID || report.Round != resp.Round {
			t.Fatalf("%s: the server got %+v, %v; want a report for %s round %d", p.Type, msg, err, resp.TaskID, resp.Round)
		}
		if p.Type == plan.TaskEval {
			if report.Update != nil {
				t.Fatalf("eval: the report carries %d update bytes", len(report.Update))
			}
			continue
		}
		if ck, err := checkpoint.Unmarshal(report.Update); err != nil || ck.TaskName != resp.TaskID {
			t.Fatalf("train: the update is %+v, %v; want TaskName %s", ck, err, resp.TaskID)
		}
	}

	old, err := os.ReadFile("../plan/testdata/device_v2.golden")
	if err != nil {
		t.Fatal(err)
	}
	resp := configuration(t, trainingPlan(t, false))
	resp.Plan = old
	dev, srv := transport.Pipe()
	_ = srv.Send(resp)
	if out, err := client().RunOnce(dev); err == nil || out.SessionShape != "-v*" {
		t.Fatalf("a format-2 plan: %+v, %v; want shape -v* and an error", out, err)
	}
}
