package flserver

import (
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestEdgeRoundLingerWindow is the regression test for the post-seal
// linger: a device arriving INSIDE the window gets an explicit
// protocol.Abort (its connection answered, then closed), while a device
// checking in AFTER the window gets a clean steering rejection from the
// Selector (the quota revocation has drained; the round actor is gone).
func TestEdgeRoundLingerWindow(t *testing.T) {
	clock := newWatchedClock()
	sys := actor.NewSystem(clock)
	defer sys.Shutdown()
	sel := spawnSelector(sys, "sel", 1, "pop")

	seals := make(chan EdgeSeal, 1)
	p := testPlan(t, 1, false)
	p.ID, p.Server.SelectionTimeout, p.Server.ReportTimeout = "task", time.Minute, 50*time.Millisecond
	er := newEdgeRound(EdgeRoundConfig{
		Population: "pop",
		Plan:       p,
		Round:      7,
		Global:     &checkpoint.Checkpoint{TaskName: "task", Round: 7, Params: make(tensor.Vector, 4)},
		Dim:        4,
		Target:     1,
	}, []actor.Ref{sel}, func(s EdgeSeal) { seals <- s })
	ref := sys.Spawn("edge-linger-test", er)
	_ = ref.Send(msgEdgeStart{})
	er.requestDevices(ref)

	// No device reports; the window times out and the round seals empty.
	clock.expire(t, "report window", clock.armed(t, p.Server.ReportTimeout, 1), func() bool { return len(seals) == 1 })

	// INSIDE the linger window: a late forward reaches the still-lingering
	// round actor and must be answered with an explicit abort.
	srvEnd, devEnd := transport.Pipe(clock)
	if err := ref.Send(msgDevices{Devices: []*session{{CheckinRequest: protocol.CheckinRequest{DeviceID: "late-inside"}, conn: srvEnd}}}); err != nil {
		t.Fatalf("send inside linger window: %v", err)
	}
	msg, err := devEnd.Recv()
	if err != nil {
		t.Fatalf("late device inside window never answered: %v", err)
	}
	ab, ok := msg.(protocol.Abort)
	if !ok {
		t.Fatalf("late device inside window got %T (%v), want protocol.Abort", msg, msg)
	}
	if ab.Reason != "round sealed" || ab.TaskID != "task" || ab.Round != 7 {
		t.Fatalf("abort = %+v", ab)
	}
	// The abort was sent after the seal on the actor's goroutine, so the
	// round's state is safe to read: a lingering round must hold nothing
	// model-sized — at tens of rounds a second, 2s of linger is hundreds of
	// live rounds.
	if er.ingest != nil || er.resps != nil || er.devices != nil || er.reader != nil ||
		er.cfg.Global != nil || er.cfg.Checkpoint != nil {
		t.Fatalf("lingering round retains round state: %+v", er)
	}
	// The connection is closed after the abort, not left half-open.
	if _, err := devEnd.Recv(); err == nil {
		t.Fatal("late device connection left open after abort")
	}

	// OUTSIDE the window: the round actor has stopped itself, at the
	// window's last instant.
	clock.expire(t, "linger window", clock.armed(t, edgeRoundLinger, 1), ref.Stopped)

	// A fresh check-in now gets a clean steering rejection from the
	// Selector — quota was revoked at seal, so there is no round to join
	// and nothing to abort.
	srvEnd2, devEnd2 := transport.Pipe(clock)
	if err := sel.Send(&session{
		CheckinRequest: protocol.CheckinRequest{Population: "pop", DeviceID: "late-outside"},
		conn:           srvEnd2,
	}); err != nil {
		t.Fatalf("post-linger checkin: %v", err)
	}
	msg, err = devEnd2.Recv()
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
