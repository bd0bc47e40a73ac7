package flserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/pacing"
	"repro/internal/protocol"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// spawnSelector spawns a Selector serving the named populations with the
// given parked-pool capacity.
func spawnSelector(sys *actor.System, name string, capacity int, seed uint64, pops ...string) actor.Ref {
	sel := sys.Spawn(name, NewSelector(nil, pacing.New(time.Second), capacity, seed))
	for _, p := range pops {
		_ = RegisterSelectorPopulation(sel, SelectorPopulation{Name: p, Steering: pacing.New(time.Second), PopulationEstimate: 100})
	}
	return sel
}

// checkin sends one device check-in; the device side is drained so
// rejection responses never block, and the last response is recorded.
func checkin(sys *actor.System, sel actor.Ref, pop, id string, responses func(protocol.CheckinResponse)) {
	client, server := transport.Pipe(sys.Clock())
	sys.Clock().Go(func() {
		for {
			msg, err := client.Recv()
			if err != nil {
				return
			}
			if r, ok := msg.(protocol.CheckinResponse); ok && responses != nil {
				responses(r)
			}
		}
	})
	_ = sel.Send(msgCheckin{
		Req:  protocol.CheckinRequest{DeviceID: id, Population: pop, RuntimeVersion: 3},
		Conn: server,
	})
}

// popStats queries one population's counters synchronously.
func popStats(t *testing.T, sel actor.Ref, pop string) SelectorStats {
	t.Helper()
	st, err := QuerySelectorStats(sel, pop)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// driveSelector sends n device check-ins into a Selector with quota 1 and
// returns the ID of the device that survives the reservoir.
func driveSelector(t *testing.T, sys *actor.System, seed uint64, n int) string {
	t.Helper()
	sel := spawnSelector(sys, fmt.Sprintf("sel-%d", seed), 0, seed, "pop")
	defer sel.Stop()

	_ = sel.Send(msgSetQuota{Population: "pop", Accept: 1})
	for i := 0; i < n; i++ {
		checkin(sys, sel, "pop", fmt.Sprintf("dev-%d", i), nil)
	}

	// Collect the survivor.
	var mu sync.Mutex
	var survivor string
	got := make(chan struct{}, 1)
	collector := sys.Spawn(fmt.Sprintf("collector-%d", seed), actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		if m, ok := msg.(msgDevices); ok && len(m.Devices) > 0 {
			mu.Lock()
			survivor = m.Devices[0].ID
			mu.Unlock()
			got <- struct{}{}
		}
	}))
	defer collector.Stop()
	_ = sel.Send(msgForwardDevices{Population: "pop", N: 1, To: collector})
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no device forwarded")
	}
	mu.Lock()
	defer mu.Unlock()
	return survivor
}

func TestReservoirSamplingIsNotFCFS(t *testing.T) {
	// With quota 1 and 5 sequential check-ins, first-come-first-served
	// would always keep dev-0. Reservoir sampling keeps each with
	// probability 1/5; across 40 trials several distinct devices must win,
	// and dev-0 must not win them all.
	sys := actor.NewSystem()
	winners := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		w := driveSelector(t, sys, uint64(trial)+1, 5)
		winners[w]++
	}
	if len(winners) < 3 {
		t.Fatalf("reservoir should spread selection, got winners %v", winners)
	}
	if winners["dev-0"] == 40 {
		t.Fatal("selection is first-come-first-served")
	}
	// dev-0 should win roughly 1/5 of the time, certainly not never and
	// not a majority.
	if winners["dev-0"] > 25 {
		t.Fatalf("dev-0 won %d/40, reservoir not uniform-ish: %v", winners["dev-0"], winners)
	}
}

func TestSelectorRejectsUnknownPopulation(t *testing.T) {
	sys := actor.NewSystem()
	sel := spawnSelector(sys, "sel", 0, 1, "pop")
	defer sel.Stop()
	_ = sel.Send(msgSetQuota{Population: "pop", Accept: 5})

	client, server := transport.Pipe()
	_ = sel.Send(msgCheckin{
		Req:  protocol.CheckinRequest{DeviceID: "d", Population: "other"},
		Conn: server,
	})
	msg, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp := msg.(protocol.CheckinResponse)
	if resp.Accepted {
		t.Fatal("unknown population must be rejected")
	}
	if resp.RetryAfter <= 0 {
		t.Fatal("rejection must carry a pace-steering hint")
	}
	st, err := QuerySelectorStats(sel, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.UnknownPopulation != 1 {
		t.Fatalf("unknown-population rejections = %d, want 1", st.UnknownPopulation)
	}
}

func TestSelectorQuotaForOtherPopulationIgnored(t *testing.T) {
	sys := actor.NewSystem()
	sel := spawnSelector(sys, "sel", 0, 1, "pop")
	defer sel.Stop()
	_ = sel.Send(msgSetQuota{Population: "other", Accept: 5})

	client, server := transport.Pipe()
	_ = sel.Send(msgCheckin{
		Req:  protocol.CheckinRequest{DeviceID: "d", Population: "pop"},
		Conn: server,
	})
	msg, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.(protocol.CheckinResponse).Accepted {
		t.Fatal("quota for another population must not admit devices")
	}
}

func TestSelectorFairSharesCapacityAcrossPopulations(t *testing.T) {
	// Capacity 4, pop-a demanding 6 vs pop-b demanding 2: shares are 3 and
	// 1. pop-a may fill the whole pool while alone, but a pop-b check-in
	// must displace a parked pop-a device rather than be starved; a second
	// pop-b check-in is over pop-b's share and bounces.
	sys := actor.NewSystem()
	sel := spawnSelector(sys, "sel", 4, 1, "pop-a", "pop-b")
	defer sel.Stop()
	_ = sel.Send(msgSetQuota{Population: "pop-a", Accept: 6})
	_ = sel.Send(msgSetQuota{Population: "pop-b", Accept: 2})

	for i := 0; i < 6; i++ {
		checkin(sys, sel, "pop-a", fmt.Sprintf("a-%d", i), nil)
	}
	if st := popStats(t, sel, "pop-a"); st.Held != 4 {
		t.Fatalf("pop-a alone should fill the pool: held=%d", st.Held)
	}

	checkin(sys, sel, "pop-b", "b-0", nil)
	if st := popStats(t, sel, "pop-b"); st.Held != 1 {
		t.Fatalf("pop-b below its share must displace into the pool: held=%d", st.Held)
	}
	if st := popStats(t, sel, "pop-a"); st.Held != 3 {
		t.Fatalf("pop-a must give back its over-share slot: held=%d", st.Held)
	}

	checkin(sys, sel, "pop-b", "b-1", nil)
	if st := popStats(t, sel, "pop-b"); st.Held != 1 {
		t.Fatalf("pop-b at its share must not grow: held=%d", st.Held)
	}

	total, err := QuerySelectorStats(sel, "")
	if err != nil {
		t.Fatal(err)
	}
	if total.Held != 4 {
		t.Fatalf("capacity must bound the pool: held=%d", total.Held)
	}
}

func TestSelectorDeregisterSteersParkedDevices(t *testing.T) {
	sys := actor.NewSystem()
	sel := spawnSelector(sys, "sel", 0, 1, "pop")
	defer sel.Stop()
	_ = sel.Send(msgSetQuota{Population: "pop", Accept: 2})

	responses := make(chan protocol.CheckinResponse, 4)
	record := func(r protocol.CheckinResponse) { responses <- r }
	checkin(sys, sel, "pop", "d-0", record)
	checkin(sys, sel, "pop", "d-1", record)
	if st := popStats(t, sel, "pop"); st.Held != 2 {
		t.Fatalf("held=%d, want 2", st.Held)
	}

	_ = sel.Send(msgDeregisterPopulation{Name: "pop"})
	for i := 0; i < 2; i++ {
		select {
		case r := <-responses:
			if r.Accepted || r.RetryAfter <= 0 {
				t.Fatalf("parked device must get a steering-backed rejection: %+v", r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked device never got a deregistration rejection")
		}
	}

	// Later check-ins are unknown-population rejections.
	checkin(sys, sel, "pop", "d-2", nil)
	st, err := QuerySelectorStats(sel, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.UnknownPopulation == 0 {
		t.Fatal("check-in after deregistration must count as unknown population")
	}
	// The deregistered population's history stays in the totals: counters
	// are monotonic across deregistrations.
	if st.Accepted != 2 {
		t.Fatalf("accepted history lost on deregistration: %+v", st)
	}
	if st.Rejected < 2 {
		t.Fatalf("deregistration rejections lost: %+v", st)
	}
}

// TestSelectorRateProbeSamplesAndResets: a rate probe returns the arrivals
// observed since the previous sample and resets the window; windows shorter
// than minRateWindow stay accumulating (no zero-rate noise from tick
// bursts). The Selector runs on a virtual clock, advanced only once it has
// processed everything sent so far, so the window arithmetic is
// deterministic.
func TestSelectorRateProbeSamplesAndResets(t *testing.T) {
	clock := simclock.New(time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC))
	sys := actor.NewSystem(clock)
	defer sys.Shutdown()
	sel := spawnSelector(sys, "sel-rate", 0, 1, "pop")
	// A stats query queues behind every message sent before it: once it is
	// answered, those were stamped with the time before the advance.
	advance := func(d time.Duration) {
		popStats(t, sel, "pop")
		clock.Advance(d)
	}
	var mu sync.Mutex

	var got []msgCheckinRate
	sig := make(chan struct{}, 16)
	sink := sys.Spawn("rate-sink", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		if m, ok := msg.(msgCheckinRate); ok {
			mu.Lock()
			got = append(got, m)
			mu.Unlock()
			sig <- struct{}{}
		}
	}))

	for i := 0; i < 6; i++ {
		checkin(sys, sel, "pop", fmt.Sprintf("d-%d", i), nil)
	}
	// Probe inside the minimum window: no sample may be produced.
	_ = sel.Send(msgRateProbe{Population: "pop", To: sink})
	advance(2 * time.Second)
	_ = sel.Send(msgRateProbe{Population: "pop", To: sink})
	select {
	case <-sig:
	case <-time.After(5 * time.Second):
		t.Fatal("no rate sample after a full window")
	}
	mu.Lock()
	first := got[0]
	mu.Unlock()
	if first.Count != 6 || first.Elapsed != 2*time.Second {
		t.Fatalf("first sample: %+v, want 6 arrivals over 2s", first)
	}
	// The window reset: two more arrivals over one more second.
	checkin(sys, sel, "pop", "d-6", nil)
	checkin(sys, sel, "pop", "d-7", nil)
	advance(time.Second)
	_ = sel.Send(msgRateProbe{Population: "pop", To: sink})
	select {
	case <-sig:
	case <-time.After(5 * time.Second):
		t.Fatal("no second sample")
	}
	mu.Lock()
	second := got[1]
	mu.Unlock()
	if second.Count != 2 || second.Elapsed != time.Second {
		t.Fatalf("second sample: %+v, want 2 arrivals over 1s", second)
	}
}

// TestSelectorReleaseParkedFreesConnections: a finished Coordinator's
// release must steer every parked device away (closing its connection)
// and zero the quota so no device is parked for a round that will never
// start.
func TestSelectorReleaseParkedFreesConnections(t *testing.T) {
	clock := newWatchedClock()
	sys := actor.NewSystem(clock)
	defer sys.Shutdown()
	sel := spawnSelector(sys, "sel-release", 0, 3, "pop")
	_ = sel.Send(msgSetQuota{Population: "pop", Accept: 4})

	var mu sync.Mutex
	released := 0
	for i := 0; i < 4; i++ {
		checkin(sys, sel, "pop", fmt.Sprintf("d-%d", i), func(r protocol.CheckinResponse) {
			if !r.Accepted && r.RetryAfter > 0 {
				mu.Lock()
				released++
				mu.Unlock()
			}
		})
	}
	clock.until(t, "four parked", func() bool { return popStats(t, sel, "pop").Held == 4 })
	_ = sel.Send(msgReleaseParked{Population: "pop"})
	clock.until(t, "none parked", func() bool { return popStats(t, sel, "pop").Held == 0 })
	clock.until(t, "four steered away", func() bool { mu.Lock(); defer mu.Unlock(); return released == 4 })
	// Quota is gone: the next check-in is rejected, not parked.
	checkin(sys, sel, "pop", "late", nil)
	clock.until(t, "the late rejection", func() bool { st := popStats(t, sel, "pop"); return st.Held == 0 && st.Rejected >= 5 })
}

// TestStaleRevocationKeepsSuccessorQuota: a superseded round revokes its
// quota when it is abandoned — possibly after its successor's grant already
// landed (the successor's grant is a function call, the abandon a mailbox
// hop). The late revocation must not strip the successor's quota, or the
// new round starves until its selection window expires.
func TestStaleRevocationKeepsSuccessorQuota(t *testing.T) {
	sys := actor.NewSystem()
	defer sys.Shutdown()
	sel := spawnSelector(sys, "sel", 0, 1, "pop")
	noop := actor.BehaviorFunc(func(*actor.Context, actor.Message) {})
	old, next := sys.Spawn("round-old", noop), sys.Spawn("round-next", noop)

	_ = sel.Send(msgSetQuota{Population: "pop", Accept: 3, Owner: old})
	_ = sel.Send(msgSetQuota{Population: "pop", Accept: 2, Owner: next})
	_ = sel.Send(msgSetQuota{Population: "pop", Owner: old}) // the stale revocation
	if st := popStats(t, sel, "pop"); st.QuotaOutstanding != 2 || !st.quotaConserved() {
		t.Fatalf("stale revocation touched the successor's quota: %+v", st)
	}
	_ = sel.Send(msgSetQuota{Population: "pop", Owner: next})
	if st := popStats(t, sel, "pop"); st.QuotaOutstanding != 0 || !st.quotaConserved() {
		t.Fatalf("the owner's own revocation was ignored: %+v", st)
	}
}
