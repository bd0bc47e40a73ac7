package flserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/pacing"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// spawnSelector spawns a Selector serving the named populations.
func spawnSelector(sys *actor.System, name string, seed uint64, pops ...string) actor.Ref {
	sel := sys.Spawn(name, newSelector(nil, pacing.New(time.Second), seed))
	for _, p := range pops {
		_ = sel.Send(msgRegisterPopulation{Pop: SelectorPopulation{Name: p, Steering: pacing.New(time.Second), PopulationEstimate: 100}})
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
	_ = sel.Send(&session{
		CheckinRequest: protocol.CheckinRequest{DeviceID: id, Population: pop, RuntimeVersion: 3},
		conn:           server,
	})
}

// admitted lists the devices one admission carries: a check-in's own
// *session, or a pooled batch.
func admitted(msg actor.Message) []*session {
	switch m := msg.(type) {
	case *session:
		return []*session{m}
	case msgDevices:
		return m.Devices
	}
	return nil
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

// driveSelector pools n device check-ins behind a staffed round of two and
// returns the two the next grant admits.
func driveSelector(t *testing.T, seed uint64, n int) []string {
	t.Helper()
	r := newPoolRig(t, seed, "pop")
	r.staffedRound("pop", 2)
	for i := 0; i < n; i++ {
		r.checkin("pop", fmt.Sprintf("dev-%d", i))
	}
	r.send(msgSetQuota{Population: "pop", Accept: 2, Owner: r.round})
	r.clock.until(t, "one batch", func() bool { r.mu.Lock(); defer r.mu.Unlock(); return len(r.batches) == 1 })
	r.sys.Shutdown()
	return r.batches[0]
}

func TestReservoirSamplingIsNotFCFS(t *testing.T) {
	// With demand 2 and 6 check-ins between rounds, first-come-first-served
	// would always admit dev-0 and dev-1. Reservoir sampling keeps each with
	// probability 1/3; across 40 trials most devices must win sometimes,
	// and dev-0 must not win them all.
	winners := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		for _, w := range driveSelector(t, uint64(trial)+1, 6) {
			winners[w]++
		}
	}
	if len(winners) < 5 {
		t.Fatalf("reservoir should spread selection, got winners %v", winners)
	}
	// dev-0 should win roughly 1/3 of the time, certainly not never and
	// not nearly always.
	if winners["dev-0"] == 0 || winners["dev-0"] > 25 {
		t.Fatalf("dev-0 won %d/40, reservoir not uniform-ish: %v", winners["dev-0"], winners)
	}
}

func TestSelectorRejectsUnknownPopulation(t *testing.T) {
	sys := actor.NewSystem()
	sel := spawnSelector(sys, "sel", 1, "pop")
	defer sel.Stop()
	_ = sel.Send(msgSetQuota{Population: "pop", Accept: 5})

	client, server := transport.Pipe()
	_ = sel.Send(&session{
		CheckinRequest: protocol.CheckinRequest{DeviceID: "d", Population: "other"},
		conn:           server,
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
	sel := spawnSelector(sys, "sel", 1, "pop")
	defer sel.Stop()
	_ = sel.Send(msgSetQuota{Population: "other", Accept: 5})

	client, server := transport.Pipe()
	_ = sel.Send(&session{
		CheckinRequest: protocol.CheckinRequest{DeviceID: "d", Population: "pop"},
		conn:           server,
	})
	msg, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.(protocol.CheckinResponse).Accepted {
		t.Fatal("quota for another population must not admit devices")
	}
}

// TestSelectorFairSharesCapacityAcrossPopulations: each pool is bounded by
// its own population's last grant alone. pop-a and pop-b pool up to their
// own demand independently, and a pop-b check-in under quota goes straight
// to its round without steering away a pooled pop-a device.
func TestSelectorFairSharesCapacityAcrossPopulations(t *testing.T) {
	r := newPoolRig(t, 1, "pop-a", "pop-b")
	r.staffedRound("pop-a", 6)
	r.staffedRound("pop-b", 2)
	var pooledA []*poolDevice
	for i := 0; i < 6; i++ {
		pooledA = append(pooledA, r.checkin("pop-a", fmt.Sprintf("a-%d", i)))
	}
	r.checkin("pop-b", "b-0")
	r.checkin("pop-b", "b-1")
	a, b := popStats(t, r.sel, "pop-a"), popStats(t, r.sel, "pop-b")
	if a.Pooled != 6 || b.Pooled != 2 {
		t.Fatalf("each population pools up to its own demand: pop-a %+v pop-b %+v", a, b)
	}
	// pop-b is full; its next check-in is sampled against its own pool,
	// never against pop-a's.
	r.checkin("pop-b", "b-2")
	r.untouched(pooledA...)

	r.send(msgSetQuota{Population: "pop-b", Accept: 4, Owner: r.round})
	r.checkin("pop-b", "b-3")
	r.clock.until(t, "pop-b's batches", func() bool { r.mu.Lock(); defer r.mu.Unlock(); return len(r.batches) == 2 })
	r.mu.Lock()
	batches, last := fmt.Sprint(r.batches), fmt.Sprint(r.batches[1])
	r.mu.Unlock()
	if last != "[b-3]" {
		t.Fatalf("the check-in under quota was not handed to its round: %s", batches)
	}
	r.untouched(pooledA...)
	if st := popStats(t, r.sel, "pop-a"); st.Pooled != 6 || st.Rejected != 0 {
		t.Fatalf("pop-b's round took pooled pop-a devices: %+v", st)
	}
	if total, _ := QuerySelectorStats(r.sel, ""); total.Pooled != 6 || total.QuotaConsumed != 8+3 {
		t.Fatalf("%+v", total)
	}
}

func TestSelectorDeregisterSteersParkedDevices(t *testing.T) {
	r := newPoolRig(t, 1, "pop")
	r.staffedRound("pop", 2)
	d0, d1 := r.checkin("pop", "d-0"), r.checkin("pop", "d-1")
	if st := popStats(t, r.sel, "pop"); st.Pooled != 2 {
		t.Fatalf("pooled=%d, want 2", st.Pooled)
	}

	r.send(msgDeregisterPopulation{Name: "pop"})
	r.steered(d0, d1)

	// Later check-ins are unknown-population rejections.
	r.steered(r.checkin("pop", "d-2"))
	st, err := QuerySelectorStats(r.sel, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.UnknownPopulation != 1 {
		t.Fatal("check-in after deregistration must count as unknown population")
	}
	// The deregistered population's history stays in the totals: counters
	// are monotonic across deregistrations.
	if st.Accepted != 2 || st.QuotaConsumed != 2 {
		t.Fatalf("accepted history lost on deregistration: %+v", st)
	}
	if st.Rejected != 3 {
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
	clock := newWatchedClock()
	sys := actor.NewSystem(clock)
	defer sys.Shutdown()
	sel := spawnSelector(sys, "sel-rate", 1, "pop")
	// A stats query queues behind every message sent before it: once it is
	// answered, those were stamped with the time before the advance.
	advance := func(d time.Duration) {
		popStats(t, sel, "pop")
		clock.Advance(d)
	}
	var mu sync.Mutex
	var got []msgCheckinRate
	sink := sys.Spawn("rate-sink", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		if m, ok := msg.(msgCheckinRate); ok {
			mu.Lock()
			got = append(got, m)
			mu.Unlock()
		}
	}))
	// sample waits for the n-th sample.
	sample := func(n int) msgCheckinRate {
		t.Helper()
		clock.until(t, fmt.Sprint("rate sample ", n), func() bool { mu.Lock(); defer mu.Unlock(); return len(got) >= n })
		mu.Lock()
		defer mu.Unlock()
		return got[n-1]
	}

	for i := 0; i < 6; i++ {
		checkin(sys, sel, "pop", fmt.Sprintf("d-%d", i), nil)
	}
	// Probe inside the minimum window: no sample may be produced.
	_ = sel.Send(msgRateProbe{Population: "pop", To: sink})
	advance(2 * time.Second)
	_ = sel.Send(msgRateProbe{Population: "pop", To: sink})
	if first := sample(1); first.Count != 6 || first.Elapsed != 2*time.Second {
		t.Fatalf("first sample: %+v, want 6 arrivals over 2s", first)
	}
	// The window reset: two more arrivals over one more second.
	checkin(sys, sel, "pop", "d-6", nil)
	checkin(sys, sel, "pop", "d-7", nil)
	advance(time.Second)
	_ = sel.Send(msgRateProbe{Population: "pop", To: sink})
	if second := sample(2); second.Count != 2 || second.Elapsed != time.Second {
		t.Fatalf("second sample: %+v, want 2 arrivals over 1s", second)
	}
}

// TestSelectorReleaseParkedFreesConnections: a finished Coordinator's
// release must steer every pooled device away (closing its connection),
// zero the quota and shut the pool, so no device is parked for a round that
// will never start.
func TestSelectorReleaseParkedFreesConnections(t *testing.T) {
	r := newPoolRig(t, 3, "pop")
	r.staffedRound("pop", 4)
	var pooled []*poolDevice
	for i := 0; i < 4; i++ {
		pooled = append(pooled, r.checkin("pop", fmt.Sprintf("d-%d", i)))
	}
	if st := popStats(t, r.sel, "pop"); st.Pooled != 4 {
		t.Fatalf("pooled=%d, want 4", st.Pooled)
	}
	r.send(msgReleaseParked{Population: "pop"})
	r.steered(pooled...)
	// The pool is shut: the next check-in is steered away, not pooled.
	r.steered(r.checkin("pop", "late"))
	if st := popStats(t, r.sel, "pop"); st.Pooled != 0 || st.QuotaOutstanding != 0 || st.Rejected != 5 {
		t.Fatalf("%+v", st)
	}
}

// TestStaleRevocationKeepsSuccessorQuota: a superseded round revokes its
// quota, and may ask for a top-up, when it is abandoned — possibly after its
// successor's grant already landed (the successor's grant is a function call,
// the abandon a mailbox hop). The late revocation must not strip the
// successor's quota, or the new round starves until its selection window
// expires; the late top-up must not turn the stream back toward the old
// round, or the successor's devices go to a round that is gone.
func TestStaleRevocationKeepsSuccessorQuota(t *testing.T) {
	clock := newWatchedClock()
	sys := actor.NewSystem(clock)
	defer sys.Shutdown()
	sel := spawnSelector(sys, "sel", 1, "pop")
	var mu sync.Mutex
	reached := map[string]string{} // device → the round it was streamed to
	round := func(name string) actor.Ref {
		return sys.Spawn(name, actor.BehaviorFunc(func(_ *actor.Context, msg actor.Message) {
			if devs := admitted(msg); devs != nil {
				mu.Lock()
				for _, d := range devs {
					reached[d.DeviceID] = name
				}
				mu.Unlock()
			}
		}))
	}
	old, next := round("round-old"), round("round-next")

	_ = sel.Send(msgSetQuota{Population: "pop", Accept: 3, Owner: old})
	_ = sel.Send(msgSetQuota{Population: "pop", Accept: 3, Owner: next})
	_ = sel.Send(msgSetQuota{Population: "pop", Owner: old}) // the stale revocation
	if st := popStats(t, sel, "pop"); st.QuotaOutstanding != 3 || !st.quotaConserved() {
		t.Fatalf("stale revocation touched the successor's quota: %+v", st)
	}
	_ = sel.Send(msgQuotaTopUp{Population: "pop", N: 1, To: old}) // the stale top-up
	if st := popStats(t, sel, "pop"); st.QuotaOutstanding != 3 || st.QuotaGranted != 6 || !st.quotaConserved() {
		t.Fatalf("stale top-up touched the successor's quota: %+v", st)
	}
	checkin(sys, sel, "pop", "d-0", nil)
	checkin(sys, sel, "pop", "d-1", nil)
	clock.until(t, "both devices to reach a round", func() bool { mu.Lock(); defer mu.Unlock(); return len(reached) == 2 })
	mu.Lock()
	if reached["d-0"] != "round-next" || reached["d-1"] != "round-next" {
		t.Fatalf("devices reached %v; both belong to round-next", reached)
	}
	mu.Unlock()
	_ = sel.Send(msgSetQuota{Population: "pop", Owner: next})
	if st := popStats(t, sel, "pop"); st.QuotaOutstanding != 0 || st.QuotaRevoked != 4 || !st.quotaConserved() {
		t.Fatalf("the owner's own revocation was ignored: %+v", st)
	}
}
