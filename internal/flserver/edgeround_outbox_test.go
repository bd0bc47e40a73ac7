package flserver

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/protocol"
	"repro/internal/tensor"
)

// TestRoundSurvivesSaturatedSelectorMailbox builds, by hand, the state a
// check-in storm at K=4096 produced by chance: the round's mailbox is full,
// its Selector is parked forwarding a device into it, the Selector's own
// mailbox is full of check-ins with more forwarders parked behind them —
// and the next message the round handles is the loss of a configured
// device, whose replacement request goes to that Selector. Sent from inside
// Receive the request parks behind the forwarders while the Selector parks
// on the round: neither returns. The round
// must instead drain, have its replacement configured, seal when told to,
// hand its quota back, and the system must shut down.
func TestRoundSurvivesSaturatedSelectorMailbox(t *testing.T) {
	const (
		mailbox    = 1024 // actor.mailboxSize
		forwarders = 8
		// Every check-in below is admitted: d0, the one the Selector parks
		// on, a mailbox of them, and the parked forwarders.
		admit = 2 + mailbox + forwarders
	)
	clock := newWatchedClock()
	sys := actor.NewSystem(clock)
	t.Cleanup(func() { sys.Shutdown() })
	sel := spawnSelector(sys, "sel", 1, "pop")

	p := testPlan(t, admit, false)
	p.Server.SelectionTimeout, p.Server.ReportTimeout = time.Minute, time.Minute
	seals := make(chan EdgeSeal, 1)
	er := newEdgeRound(EdgeRoundConfig{
		Population: "pop", Plan: p, Round: 1, Dim: 4, Target: admit,
		Global: &checkpoint.Checkpoint{TaskName: p.ID, Round: 1, Params: make(tensor.Vector, 4)},
	}, []actor.Ref{sel}, func(s EdgeSeal) { seals <- s })
	// gate parks the round's actor inside Receive until released, so its
	// mailbox can be filled behind it; lose posts a configured device's own
	// record back unreported, as its reader does when the device is lost,
	// resolved on the round's goroutine.
	type gate struct{}
	type lose string
	entered := make(chan struct{})
	var release actor.Gate
	t.Cleanup(release.Close)
	ref := sys.Spawn("edge-outbox-test", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		switch m := msg.(type) {
		case gate:
			close(entered)
			actor.Sleep(clock, time.Hour, &release)
		case lose:
			d := er.devices[string(m)]
			er.Receive(ctx, (*reportDone)(d))
			_ = d.conn.Close() // its reader, still waiting for the report, ends
		default:
			er.Receive(ctx, msg)
		}
	}))
	_ = ref.Send(msgEdgeStart{})
	er.requestDevices(ref)

	var configured atomic.Int64
	onResp := func(r protocol.CheckinResponse) {
		if r.Accepted && r.TaskID == p.ID {
			configured.Add(1)
		}
	}
	checkin(sys, sel, "pop", "d0", onResp)
	clock.until(t, "d0 configured", func() bool { return configured.Load() == 1 })

	_ = ref.Send(gate{})
	<-entered
	// First in the round's mailbox: d0 is lost. Then filler to the brim.
	_ = ref.Send(lose("d0"))
	stray := (*reportDone)(&session{CheckinRequest: protocol.CheckinRequest{DeviceID: "never-configured"}})
	for i := 1; i < mailbox; i++ {
		_ = ref.Send(stray)
	}
	// The Selector admits d1 and parks forwarding it; the rest fill its
	// mailbox, and the forwarders park behind that.
	for i := 1; i <= 1+mailbox; i++ {
		checkin(sys, sel, "pop", fmt.Sprintf("d%d", i), onResp)
	}
	for i := 0; i < forwarders; i++ {
		clock.Go(func() { checkin(sys, sel, "pop", fmt.Sprintf("fwd%d", i), onResp) })
	}
	clock.until(t, "the forwarders to park on their Send", func() bool { return true })
	release.Close()

	// Everything drains: every admitted device is configured, and the
	// replacement request — queued behind all of them — reaches the Selector.
	clock.until(t, "every admitted device configured", func() bool { return configured.Load() == admit })
	clock.until(t, "the replacement request", func() bool { return popStats(t, sel, "pop").QuotaGranted == admit+1 })
	checkin(sys, sel, "pop", "replacement", onResp)
	clock.until(t, "the replacement configured", func() bool { return configured.Load() == admit+1 })

	// A second loss leaves one slot outstanding for the seal to revoke.
	_ = ref.Send(lose("d1"))
	clock.until(t, "one slot outstanding", func() bool { return popStats(t, sel, "pop").QuotaOutstanding == 1 })
	_ = ref.Send(msgEdgeFinalize{})
	clock.until(t, "the seal", func() bool { return len(seals) == 1 })
	if seal := <-seals; seal.Lost != 2 || seal.Aborted != admit-1 {
		t.Fatalf("seal lost %d aborted %d, want 2 and %d", seal.Lost, seal.Aborted, admit-1)
	}
	// The revocation still arrives: nothing is admitted to the sealed round.
	clock.until(t, "the revocation", func() bool {
		st := popStats(t, sel, "pop")
		return st.QuotaOutstanding == 0 && st.QuotaRevoked == 1 && st.quotaConserved()
	})
	var late atomic.Int64
	checkin(sys, sel, "pop", "late", func(r protocol.CheckinResponse) {
		if !r.Accepted {
			late.Add(1)
		}
	})
	clock.until(t, "the late device's rejection", func() bool { return late.Load() == 1 })
}

// TestSealSurvivesSaturatedGroupMailbox is the same wait-for cycle one level
// down (ROADMAP 5(d)): a secure group's Aggregator has a mailbox full of
// messages with more senders parked behind them, and the next message the
// round handles tells it to seal — which orders every group to finalize.
// The order goes through the round's outbox like every send from inside
// Receive; the round must drain, hear the group's (empty) result and ship
// its seal. Only the round sends to a group, and a group sends the round
// nothing before its result, so the cycle this test once caught — the
// group parked on the round's full mailbox — can no longer form.
func TestSealSurvivesSaturatedGroupMailbox(t *testing.T) {
	const (
		mailbox = 1024 // actor.mailboxSize
		readers = 8
	)
	clock := newWatchedClock()
	sys := actor.NewSystem(clock)
	t.Cleanup(func() { sys.Shutdown() })
	p := twoGroupSecurePlan(t)
	p.Server.SelectionTimeout, p.Server.ReportTimeout = time.Minute, time.Minute
	seals := make(chan EdgeSeal, 1)
	er := newEdgeRound(EdgeRoundConfig{
		Population: "pop", Plan: p, Round: 1, Dim: 4, Target: 4,
		Global: &checkpoint.Checkpoint{TaskName: p.ID, Round: 1, Params: make(tensor.Vector, 4)},
	}, nil, func(s EdgeSeal) { seals <- s })
	type gate struct{}
	entered := make(chan struct{})
	var release actor.Gate
	t.Cleanup(release.Close)
	ref := sys.Spawn("edge-group-outbox-test", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		if _, ok := msg.(gate); ok {
			close(entered)
			actor.Sleep(clock, time.Hour, &release)
			return
		}
		er.Receive(ctx, msg)
	}))
	_ = ref.Send(msgEdgeStart{})
	_ = ref.Send(gate{})
	<-entered
	// The round is parked behind its start: its one group (4 admitted,
	// groups of 4) is spawned. First in its mailbox: the order to seal. Then
	// filler to the brim.
	if len(er.aggs) != 1 {
		t.Fatalf("%d groups, want 1", len(er.aggs))
	}
	agg := er.aggs[0]
	_ = ref.Send(msgEdgeFinalize{})
	for i := 1; i < mailbox; i++ {
		_ = ref.Send((*reportDone)(&session{CheckinRequest: protocol.CheckinRequest{DeviceID: "never-configured"}}))
	}
	// Filler the Aggregator ignores: nothing is buffered for a secagg run.
	// It fills the group's mailbox, and the senders park behind that.
	filler := func(i int) actor.Message {
		return (*reportDone)(&session{CheckinRequest: protocol.CheckinRequest{DeviceID: fmt.Sprintf("d%d", i)}})
	}
	for i := 0; i <= mailbox; i++ {
		_ = agg.Send(filler(i))
	}
	for i := 0; i < readers; i++ {
		clock.Go(func() { _ = agg.Send(filler(mailbox + 1 + i)) })
	}
	clock.until(t, "the senders to park on their Send", func() bool { return true })
	release.Close()

	clock.until(t, "the seal (the round must not park on its group's mailbox)", func() bool { return len(seals) == 1 })
	if seal := <-seals; seal.Seal.Count != 0 || len(seal.GroupErrors) != 0 {
		t.Fatalf("seal of a group that buffered nothing: %+v", seal)
	}
}
