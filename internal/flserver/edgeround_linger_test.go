package flserver

import (
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/pacing"
	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestEdgeRoundLingerWindow is the regression test for the configurable
// post-seal linger: a device arriving INSIDE the window gets an explicit
// protocol.Abort (its connection answered, then closed), while a device
// checking in AFTER the window gets a clean steering rejection from the
// Selector (the quota revocation has drained; the round actor is gone).
func TestEdgeRoundLingerWindow(t *testing.T) {
	sys := actor.NewSystem()
	defer sys.Shutdown()

	sel := sys.Spawn("sel", NewSelector(nil, pacing.New(time.Minute), 0, 1, nil,
		SelectorPopulation{Name: "pop"}))

	seals := make(chan EdgeSeal, 1)
	const linger = 400 * time.Millisecond
	p := testPlan(t, 1, false)
	p.ID, p.Server.ReportTimeout = "task", 50*time.Millisecond
	er := NewEdgeRound(EdgeRoundConfig{
		Population: "pop",
		Plan:       p,
		Round:      7,
		Global:     &checkpoint.Checkpoint{TaskName: "task", Round: 7, Params: make(tensor.Vector, 4)},
		Dim:        4,
		Target:     1,
		Linger:     linger,
	}, []actor.Ref{sel}, func(s EdgeSeal) { seals <- s })
	ref := sys.Spawn("edge-linger-test", er)
	_ = ref.Send(msgEdgeStart{})
	er.requestDevices(ref)

	// No device reports; the window times out and the round seals empty.
	select {
	case <-seals:
	case <-time.After(5 * time.Second):
		t.Fatal("round never sealed")
	}
	sealedAt := time.Now()

	// INSIDE the linger window: a late forward reaches the still-lingering
	// round actor and must be answered with an explicit abort.
	srvEnd, devEnd := transport.Pipe()
	if err := ref.Send(msgDevices{Devices: []heldDevice{{ID: "late-inside", Conn: srvEnd}}}); err != nil {
		t.Fatalf("send inside linger window: %v", err)
	}
	got := make(chan interface{}, 1)
	go func() {
		msg, err := devEnd.Recv()
		if err != nil {
			got <- err
			return
		}
		got <- msg
	}()
	select {
	case msg := <-got:
		ab, ok := msg.(protocol.Abort)
		if !ok {
			t.Fatalf("late device inside window got %T (%v), want protocol.Abort", msg, msg)
		}
		if ab.Reason != "round sealed" || ab.TaskID != "task" || ab.Round != 7 {
			t.Fatalf("abort = %+v", ab)
		}
	case <-time.After(linger):
		t.Fatal("late device inside window never answered")
	}
	// The abort was sent after the seal on the actor's goroutine, so the
	// round's state is safe to read: a lingering round must hold nothing
	// model-sized — at tens of rounds a second, 2s of linger is hundreds of
	// live rounds.
	if er.ingest != nil || er.resps != nil || er.devices != nil || er.reader.ingest != nil ||
		er.cfg.Global != nil || er.cfg.Checkpoint != nil {
		t.Fatalf("lingering round retains round state: %+v", er)
	}
	// The connection is closed after the abort, not left half-open.
	if _, err := devEnd.Recv(); err == nil {
		t.Fatal("late device connection left open after abort")
	}

	// OUTSIDE the window: the round actor has stopped itself.
	deadline := sealedAt.Add(linger + 2*time.Second)
	for !ref.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("round actor still alive well past its linger window")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A fresh check-in now gets a clean steering rejection from the
	// Selector — quota was revoked at seal, so there is no round to join
	// and nothing to abort.
	srvEnd2, devEnd2 := transport.Pipe()
	if err := sel.Send(msgCheckin{
		Req:  protocol.CheckinRequest{Population: "pop", DeviceID: "late-outside"},
		Conn: srvEnd2,
	}); err != nil {
		t.Fatalf("post-linger checkin: %v", err)
	}
	msg, err := devEnd2.Recv()
	if err != nil {
		t.Fatalf("post-linger device recv: %v", err)
	}
	resp, ok := msg.(protocol.CheckinResponse)
	if !ok {
		t.Fatalf("post-linger device got %T, want clean CheckinResponse rejection", msg)
	}
	if resp.Accepted {
		t.Fatal("post-linger checkin accepted with no round open")
	}
	if resp.RetryAfter <= 0 {
		t.Fatalf("clean rejection carries no steering hint: %+v", resp)
	}
}

// TestEdgeRoundLingerDefault pins the default window so the knob's zero
// value stays backward compatible.
func TestEdgeRoundLingerDefault(t *testing.T) {
	er := NewEdgeRound(EdgeRoundConfig{Population: "p", Dim: 1}, nil, func(EdgeSeal) {})
	if er.cfg.Linger != defaultEdgeRoundLinger {
		t.Fatalf("default linger = %v, want %v", er.cfg.Linger, defaultEdgeRoundLinger)
	}
	er = NewEdgeRound(EdgeRoundConfig{Population: "p", Dim: 1, Linger: time.Second}, nil, func(EdgeSeal) {})
	if er.cfg.Linger != time.Second {
		t.Fatalf("explicit linger = %v, want 1s", er.cfg.Linger)
	}
}
