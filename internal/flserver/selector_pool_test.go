package flserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// poolDevice is the device end of one check-in: what the Selector layer
// answered, and whether it left the connection open.
type poolDevice struct {
	id     string
	mu     sync.Mutex
	resp   *protocol.CheckinResponse
	closed bool
}

func (d *poolDevice) answer() (protocol.CheckinResponse, bool, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.resp == nil {
		return protocol.CheckinResponse{}, false, d.closed
	}
	return *d.resp, true, d.closed
}

// poolRig is one Selector on a virtual clock, a stand-in round actor that
// records every admission it is forwarded as a batch, and the checks after every
// step: the quota ledger of every population balances, pooled devices or not,
// and no population pools more devices than its last grant.
type poolRig struct {
	t       *testing.T
	sys     *actor.System
	sel     actor.Ref
	round   actor.Ref
	pops    []string
	grants  map[string]int // population → its last grant
	clock   *watchedClock
	mu      sync.Mutex
	batches [][]string
}

func newPoolRig(t *testing.T, seed uint64, pops ...string) *poolRig {
	r := &poolRig{t: t, pops: pops, grants: map[string]int{}, clock: newWatchedClock()}
	r.sys = actor.NewSystem(r.clock)
	t.Cleanup(func() { r.sys.Shutdown() })
	r.sel = spawnSelector(r.sys, "sel", seed, pops...)
	r.round = r.sys.Spawn("round", actor.BehaviorFunc(func(_ *actor.Context, msg actor.Message) {
		if devs := admitted(msg); devs != nil {
			ids := make([]string, len(devs))
			for i, d := range devs {
				ids[i] = d.DeviceID
			}
			r.mu.Lock()
			r.batches = append(r.batches, ids)
			r.mu.Unlock()
		}
	}))
	return r
}

// send delivers one message to the Selector and then checks every ledger
// and pool: the stats query queues behind the message, so it sees its effect.
func (r *poolRig) send(msg actor.Message) {
	r.t.Helper()
	if m, ok := msg.(msgSetQuota); ok && m.Accept > 0 {
		r.grants[m.Population] = m.Accept
	}
	if err := r.sel.Send(msg); err != nil {
		r.t.Fatal(err)
	}
	for _, pop := range append([]string{""}, r.pops...) {
		st := popStats(r.t, r.sel, pop)
		if !st.quotaConserved() {
			r.t.Fatalf("after %T the ledger of %q leaks: %+v", msg, pop, st)
		}
		if pop != "" && st.Pooled > r.grants[pop] {
			r.t.Fatalf("after %T %q pools %d devices, more than its last grant of %d", msg, pop, st.Pooled, r.grants[pop])
		}
	}
}

func (r *poolRig) checkin(pop, id string) *poolDevice {
	r.t.Helper()
	client, server := transport.Pipe(r.clock)
	d := &poolDevice{id: id}
	r.clock.Go(func() {
		for {
			msg, err := client.Recv()
			d.mu.Lock()
			if err != nil {
				d.closed = true
				d.mu.Unlock()
				return
			}
			if resp, ok := msg.(protocol.CheckinResponse); ok {
				d.resp = &resp
			}
			d.mu.Unlock()
		}
	})
	r.send(&session{CheckinRequest: protocol.CheckinRequest{DeviceID: id, Population: pop, RuntimeVersion: 3}, conn: server})
	return d
}

// steered waits until every device was answered with a steering-backed
// rejection and its connection closed: nothing is left open.
func (r *poolRig) steered(devs ...*poolDevice) {
	r.t.Helper()
	for _, d := range devs {
		r.clock.until(r.t, d.id+" to be steered away", func() bool {
			resp, answered, closed := d.answer()
			return answered && closed && !resp.Accepted && resp.RetryAfter > 0
		})
	}
}

// untouched asserts the devices are still parked: unanswered, open.
func (r *poolRig) untouched(devs ...*poolDevice) {
	r.t.Helper()
	for _, d := range devs {
		if _, answered, closed := d.answer(); answered || closed {
			r.t.Fatalf("%s was answered or closed while it should still be parked", d.id)
		}
	}
}

// forwarded waits for the round to have received exactly these batches.
func (r *poolRig) forwarded(want ...[]string) {
	r.t.Helper()
	r.clock.until(r.t, fmt.Sprint("the batches ", want), func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return fmt.Sprint(r.batches) == fmt.Sprint(want)
	})
}

// staffedRound runs one round of the population through the Selector the way
// an EdgeRound does — the grant, n devices streamed to its owner, then the
// spent-quota revocation of a staffed round — which leaves the pool open
// with demand n. The n devices are named <pop>/r0…; their batches are
// dropped from the record.
func (r *poolRig) staffedRound(pop string, n int) {
	r.t.Helper()
	r.send(msgSetQuota{Population: pop, Accept: n, Owner: r.round})
	for i := 0; i < n; i++ {
		r.checkin(pop, fmt.Sprintf("%s/r%d", pop, i))
	}
	r.send(msgSetQuota{Population: pop, Owner: r.round})
	r.clock.until(r.t, "the round's devices", func() bool { r.mu.Lock(); defer r.mu.Unlock(); return len(r.batches) == n })
	r.mu.Lock()
	r.batches = nil
	r.mu.Unlock()
	if st := popStats(r.t, r.sel, pop); st.QuotaOutstanding != 0 || st.Pooled != 0 {
		r.t.Fatalf("staffed round left %+v", st)
	}
}

// TestSelectorPool drives the standing pool of continuous selection on the
// Selector actor alone; poolRig.send asserts granted == consumed + revoked +
// outstanding, per population and in total, after every single message.
func TestSelectorPool(t *testing.T) {
	t.Run("shut until a round was staffed", func(t *testing.T) {
		r := newPoolRig(t, 1, "pop")
		r.steered(r.checkin("pop", "never-granted"))
		// A round that sealed short of devices: its revocation takes a slot
		// back, and the pool stays shut.
		r.send(msgSetQuota{Population: "pop", Accept: 2, Owner: r.round})
		r.checkin("pop", "only")
		r.send(msgSetQuota{Population: "pop", Owner: r.round})
		r.steered(r.checkin("pop", "after-starved-round"))
		// While a round still selects, a Selector whose share is spent sends
		// the surplus on: another Selector's share may be waiting for it.
		r.send(msgSetQuota{Population: "pop", Accept: 1, Owner: r.round})
		r.checkin("pop", "fills-the-share")
		r.steered(r.checkin("pop", "surplus-while-selecting"))
		if st := popStats(t, r.sel, "pop"); st.Pooled != 0 || st.QuotaRevoked != 1 {
			t.Fatalf("%+v", st)
		}
	})

	t.Run("fills to demand and no further", func(t *testing.T) {
		r := newPoolRig(t, 1, "pop")
		r.staffedRound("pop", 3)
		var devs []*poolDevice
		for i := 0; i < 8; i++ {
			devs = append(devs, r.checkin("pop", fmt.Sprintf("p%d", i)))
			if st := popStats(t, r.sel, "pop"); st.Pooled != min(i+1, 3) || st.QuotaGranted != 3 {
				t.Fatalf("after %d pooled check-ins: %+v", i+1, st)
			}
		}
		// Every check-in either sits in the pool or was steered away (itself,
		// or as the victim of a reservoir replacement): 3 parked, 5 answered.
		r.clock.until(t, "three parked devices", func() bool {
			parked := 0
			for _, d := range devs {
				if _, answered, _ := d.answer(); !answered {
					parked++
				}
			}
			return parked == 3
		})
		if st := popStats(t, r.sel, "pop"); st.Rejected != 5 {
			t.Fatalf("%+v", st)
		}
	})

	t.Run("grant admits the pool first and in one batch", func(t *testing.T) {
		r := newPoolRig(t, 1, "pop")
		r.staffedRound("pop", 3)
		a, b, c := r.checkin("pop", "a"), r.checkin("pop", "b"), r.checkin("pop", "c")
		// The next round wants 4: the three pooled devices are its first
		// batch, handed over with the grant, before the check-in that arrives
		// after it.
		r.send(msgSetQuota{Population: "pop", Accept: 4, Owner: r.round})
		if st := popStats(t, r.sel, "pop"); st.Pooled != 0 || st.QuotaOutstanding != 1 || st.QuotaConsumed != 6 {
			t.Fatalf("grant did not admit the pool: %+v", st)
		}
		r.forwarded([]string{"a", "b", "c"})
		r.checkin("pop", "d")
		r.forwarded([]string{"a", "b", "c"}, []string{"d"})
		r.untouched(a, b, c) // theirs to answer is the round's Configuration, not the Selector
	})

	t.Run("grant smaller than the pool steers the surplus away", func(t *testing.T) {
		r := newPoolRig(t, 1, "pop")
		r.staffedRound("pop", 3)
		a, b, c := r.checkin("pop", "a"), r.checkin("pop", "b"), r.checkin("pop", "c")
		r.send(msgSetQuota{Population: "pop", Accept: 2, Owner: r.round})
		r.forwarded([]string{"a", "b"})
		r.untouched(a, b)
		r.steered(c)
		if st := popStats(t, r.sel, "pop"); st.Pooled != 0 || st.QuotaOutstanding != 0 {
			t.Fatalf("%+v", st)
		}
	})

	t.Run("top-up is served from the pool", func(t *testing.T) {
		r := newPoolRig(t, 1, "pop")
		r.staffedRound("pop", 2)
		spare := r.checkin("pop", "spare")
		r.send(msgQuotaTopUp{Population: "pop", N: 1, To: r.round})
		r.forwarded([]string{"spare"})
		r.untouched(spare)
		if st := popStats(t, r.sel, "pop"); st.Pooled != 0 || st.QuotaGranted != 3 || st.QuotaConsumed != 3 {
			t.Fatalf("%+v", st)
		}
	})

	for name, release := range map[string]func(r *poolRig){
		"release":    func(r *poolRig) { r.send(msgReleaseParked{Population: "pop"}) },
		"deregister": func(r *poolRig) { r.send(msgDeregisterPopulation{Name: "pop"}) },
		"expiry on a rate probe": func(r *poolRig) {
			r.clock.Advance(999 * time.Millisecond)
			r.send(msgRateProbe{Population: "pop", To: r.round})
			if st := popStats(r.t, r.sel, "pop"); st.Pooled != 2 {
				r.t.Fatalf("pool expired inside its pacing window: %+v", st)
			}
			r.clock.Advance(time.Millisecond)
			r.send(msgRateProbe{Population: "pop", To: r.round})
		},
		"expiry on a check-in": func(r *poolRig) {
			r.clock.Advance(time.Second)
			r.steered(r.checkin("pop", "past-the-window"))
		},
		"expiry on a grant": func(r *poolRig) {
			r.clock.Advance(time.Second)
			r.send(msgSetQuota{Population: "pop", Accept: 2, Owner: r.round})
			if st := popStats(r.t, r.sel, "pop"); st.QuotaConsumed != 2 || st.QuotaOutstanding != 2 {
				r.t.Fatalf("a grant admitted devices pooled longer than the pacing window: %+v", st)
			}
		},
	} {
		t.Run(name+" leaves no connection open", func(t *testing.T) {
			r := newPoolRig(t, 1, "pop")
			r.staffedRound("pop", 2)
			a, b := r.checkin("pop", "a"), r.checkin("pop", "b")
			r.untouched(a, b)
			release(r)
			r.steered(a, b)
			if st, _ := QuerySelectorStats(r.sel, ""); st.Pooled != 0 {
				t.Fatalf("%+v", st)
			}
		})
	}

	t.Run("capacity and fair share count pooled devices", func(t *testing.T) {
		// Nothing is shared across populations: pop-a pools up to its own
		// demand of 5 whatever pop-b does, and pop-b's check-in under quota
		// goes to its round without steering a pooled pop-a device away.
		r := newPoolRig(t, 1, "pop-a", "pop-b")
		r.staffedRound("pop-a", 5)
		var pooled []*poolDevice
		for i := 0; i < 5; i++ {
			pooled = append(pooled, r.checkin("pop-a", fmt.Sprintf("a%d", i)))
		}
		if st := popStats(t, r.sel, "pop-a"); st.Pooled != 5 {
			t.Fatalf("pop-a should pool up to its demand: %+v", st)
		}
		r.send(msgSetQuota{Population: "pop-b", Accept: 2, Owner: r.round})
		r.checkin("pop-b", "b0")
		r.forwarded([]string{"b0"})
		r.untouched(pooled...)
		a, b := popStats(t, r.sel, "pop-a"), popStats(t, r.sel, "pop-b")
		if a.Pooled != 5 || b.Pooled != 0 || a.QuotaConsumed != 5 || b.QuotaConsumed != 1 || a.Rejected != 0 {
			t.Fatalf("pop-a %+v pop-b %+v", a, b)
		}
	})

	t.Run("a stopped round's devices are steered away", func(t *testing.T) {
		// The round the quota names stopped before its revocation landed:
		// the pooled batch its grant admits and the device checking in
		// after it are answered with a steering hint, not closed unanswered,
		// and consume no quota.
		r := newPoolRig(t, 1, "pop")
		r.staffedRound("pop", 2)
		pooled := r.checkin("pop", "pooled")
		r.round.Stop()
		r.send(msgSetQuota{Population: "pop", Accept: 2, Owner: r.round})
		r.steered(pooled, r.checkin("pop", "streamed"))
		if st := popStats(t, r.sel, "pop"); st.QuotaConsumed != 2 || st.QuotaOutstanding != 2 || st.Accepted != 2 {
			t.Fatalf("%+v", st)
		}
	})
}

// TestPoolReservoirIsNotFCFS: a full pool keeps sampling. With demand 1 and
// five check-ins between rounds, first-come-first-served would always staff
// the next round with p0; the reservoir (replace with probability
// pool/poolSeen) gives each a fifth of the rounds.
func TestPoolReservoirIsNotFCFS(t *testing.T) {
	winners := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		r := newPoolRig(t, uint64(trial)+1, "pop")
		r.staffedRound("pop", 1)
		for i := 0; i < 5; i++ {
			r.checkin("pop", fmt.Sprintf("p%d", i))
		}
		r.send(msgSetQuota{Population: "pop", Accept: 1, Owner: r.round})
		r.clock.until(t, "one batch", func() bool { r.mu.Lock(); defer r.mu.Unlock(); return len(r.batches) == 1 })
		winners[r.batches[0][0]]++
		r.sys.Shutdown()
	}
	if len(winners) < 3 || winners["p0"] > 25 {
		t.Fatalf("the pool's reservoir should spread selection, got winners %v", winners)
	}
}

// countingRef forwards to a Selector and counts the top-ups that pass.
type countingRef struct {
	actor.Ref
	mu     sync.Mutex
	topUps int
}

func (c *countingRef) Send(msg actor.Message) error {
	if _, ok := msg.(msgQuotaTopUp); ok {
		c.mu.Lock()
		c.topUps++
		c.mu.Unlock()
	}
	return c.Ref.Send(msg)
}

// TestPooledDeviceThatDiedIsToppedUp: a pooled device whose connection died
// while it waited is admitted by the next grant like the others; the round
// finds out at its Configuration send, counts it lost and asks for exactly
// one replacement, which the next check-in provides — the round seals on its
// reports in milliseconds, not at its SelectionTimeout.
func TestPooledDeviceThatDiedIsToppedUp(t *testing.T) {
	const admit = 3
	r := newPoolRig(t, 1, "pop")
	r.staffedRound("pop", admit)
	sel := &countingRef{Ref: r.sel}

	p := testPlan(t, admit, false)
	p.Server.SelectionTimeout, p.Server.ReportTimeout = time.Minute, time.Minute
	update, err := (&checkpoint.Checkpoint{TaskName: p.ID, Weight: 1, Params: tensor.Vector{1, 2, 3, 4}}).Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	// device checks in and, once configured, reports and reads its ack.
	device := func(id string) transport.Conn {
		client, server := transport.Pipe(r.clock)
		r.clock.Go(func() {
			msg, err := client.Recv()
			if resp, ok := msg.(protocol.CheckinResponse); err == nil && ok && resp.Accepted {
				_ = client.Send(protocol.ReportRequest{DeviceID: id, TaskID: resp.TaskID, Round: resp.Round, Update: update})
				_, _ = client.Recv()
			}
			client.Close()
		})
		r.send(&session{CheckinRequest: protocol.CheckinRequest{DeviceID: id, Population: "pop", RuntimeVersion: 3}, conn: server})
		return client
	}
	device("alive-0")
	client, server := transport.Pipe(r.clock)
	r.send(&session{CheckinRequest: protocol.CheckinRequest{DeviceID: "dead", Population: "pop", RuntimeVersion: 3}, conn: server})
	client.Close() // gave up while pooled
	device("alive-1")
	if st := popStats(t, r.sel, "pop"); st.Pooled != admit {
		t.Fatalf("%+v", st)
	}

	seals := make(chan EdgeSeal, 1)
	start := r.clock.Now()
	startEdgeRound(r.sys, "edge", EdgeRoundConfig{
		Population: "pop", Plan: p, Round: 1, Dim: 4, Target: admit,
		Global: &checkpoint.Checkpoint{TaskName: p.ID, Round: 1, Params: make(tensor.Vector, 4)},
	}, []actor.Ref{sel}, func(s EdgeSeal) { seals <- s })
	// The top-up reaches the Selector; only then does the replacement check in.
	r.clock.until(t, "the top-up", func() bool { return popStats(t, r.sel, "pop").QuotaGranted == 2*admit+1 })
	device("replacement")
	r.clock.until(t, "the seal", func() bool { return len(seals) == 1 })
	if seal := <-seals; seal.Seal.Count != admit || seal.Lost != 1 {
		t.Fatalf("sealed %d reports, %d lost; want %d and 1", seal.Seal.Count, seal.Lost, admit)
	}
	if took := r.clock.Now().Sub(start); took >= p.Server.SelectionTimeout {
		t.Fatalf("round took %v: it waited for a timeout, not for its replacement", took)
	}
	sel.mu.Lock()
	topUps := sel.topUps
	sel.mu.Unlock()
	r.clock.until(t, "the quota to drain", func() bool { st := popStats(t, r.sel, "pop"); return st.QuotaOutstanding == 0 && st.quotaConserved() })
	if st := popStats(t, r.sel, "pop"); topUps != 1 || st.QuotaConsumed != 2*admit+1 || st.QuotaRevoked != 0 {
		t.Fatalf("%d top-ups, ledger %+v", topUps, st)
	}
}
