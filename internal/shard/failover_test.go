package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

const failoverPop = "pop-failover"

// failoverHarness wires one coordinator and one selector shard over the mem
// network with a severable shard→coordinator link and a controllable device
// swarm — the rig for the coordinator-loss, reconnect-then-resume, and
// crash-respawn tests.
type failoverHarness struct {
	t     *testing.T
	net   *transport.MemNetwork
	plan  *plan.Plan
	store storage.Store

	// clock is the one clock of the rig's processes, links and devices.
	clock  *simclock.Virtual
	coord  *CoordinatorProc
	coordL transport.Listener
	shard  *SelectorProc
	shardL transport.Listener

	// linkUp gates the shard's dial; conns records live shard→coordinator
	// connections so a partition can sever them mid-flight.
	linkUp atomic.Bool
	mu     sync.Mutex
	conns  []transport.Conn
}

func newFailoverHarness(t *testing.T, k, maxRounds int) *failoverHarness {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID: failoverPop + "/train", Population: failoverPop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: failoverPop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: k, MinReportFraction: 0.5,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := newClock()
	h := &failoverHarness{t: t, net: transport.NewMemNetwork(clock), plan: p, store: storage.NewMem(), clock: clock}
	h.linkUp.Store(true)
	h.startCoordinator(maxRounds)

	h.shard = NewSelectorProc(SelectorConfig{
		Shard:              0,
		Steering:           pacing.New(time.Second),
		PopulationEstimate: 32,
		Seed:               17,
		Peer:               remote.Options{Clock: clock},
	}, h.dialCoordinator)
	t.Cleanup(h.shard.Close)
	l, err := h.net.Listen("shard-0")
	if err != nil {
		t.Fatal(err)
	}
	h.shardL = l
	t.Cleanup(func() { l.Close() })
	clock.Go(func() { h.shard.Serve(l) })
	return h
}

// linkDown runs the rig until the shard has declared its coordinator link
// dead.
func (h *failoverHarness) linkDown() {
	h.t.Helper()
	until(h.t, h.clock, "shard notices the lost coordinator", func() bool {
		st, err := h.shard.Stats()
		return err == nil && !st.CoordinatorUp
	})
}

// startCoordinator (re)spawns the coordinator process on the same mem
// address and backing store — also the respawn half of the crash test.
func (h *failoverHarness) startCoordinator(maxRounds int) {
	coord, err := NewCoordinatorProc(CoordinatorConfig{
		Population: failoverPop,
		Plans:      []*plan.Plan{h.plan},
		Store:      h.store,
		Steering:   pacing.New(time.Second),
		MaxRounds:  maxRounds,
		MinShards:  1,
		SealGrace:  500 * time.Millisecond,
		TickEvery:  50 * time.Millisecond,
		Clock:      h.clock,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.coord = coord
	h.t.Cleanup(coord.Close)
	l, err := h.net.Listen("coord")
	if err != nil {
		h.t.Fatal(err)
	}
	h.coordL = l
	h.t.Cleanup(func() { l.Close() })
	h.clock.Go(func() { coord.Serve(l) })
}

func (h *failoverHarness) dialCoordinator() (transport.Conn, error) {
	if !h.linkUp.Load() {
		return nil, fmt.Errorf("failover test: link partitioned")
	}
	c, err := h.net.Dial("coord")
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.conns = append(h.conns, c)
	h.mu.Unlock()
	return c, nil
}

// partition severs the shard→coordinator link and keeps it down.
func (h *failoverHarness) partition() {
	h.linkUp.Store(false)
	h.mu.Lock()
	conns := h.conns
	h.conns = nil
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// heal lets the shard's redial loop through again.
func (h *failoverHarness) heal() { h.linkUp.Store(true) }

// crashCoordinator kills the coordinator process (listener included), as a
// process crash would.
func (h *failoverHarness) crashCoordinator() {
	h.coordL.Close()
	h.coord.Close()
	h.partition()
}

// runDevices starts n simulated devices continuously checking in against the
// shard until the harness stops them.
func (h *failoverHarness) runDevices(n int) {
	fed, err := data.Blobs(data.BlobsConfig{
		Users: n, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 5,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	startSwarm(h.t, h.clock, failoverPop, fed, func(int) (transport.Conn, error) { return h.net.Dial("shard-0") })
}

func (h *failoverHarness) waitRounds(want int) {
	h.t.Helper()
	until(h.t, h.clock, fmt.Sprintf("the coordinator to commit %d rounds", want), func() bool {
		st, err := h.coord.Stats()
		return err == nil && st.RoundsCompleted >= want
	})
}

// checkin opens a bare device connection and checks in, returning the conn
// and the answer.
func (h *failoverHarness) checkin(id string) (transport.Conn, protocol.CheckinResponse, error) {
	conn, err := h.net.Dial("shard-0")
	if err != nil {
		return nil, protocol.CheckinResponse{}, err
	}
	if err = conn.Send(protocol.CheckinRequest{DeviceID: id, Population: failoverPop, RuntimeVersion: 3}); err == nil {
		var msg interface{}
		if msg, err = conn.Recv(); err == nil {
			resp, ok := msg.(protocol.CheckinResponse)
			if !ok {
				err = fmt.Errorf("check-in answered with %T", msg)
			}
			return conn, resp, err
		}
	}
	conn.Close()
	return nil, protocol.CheckinResponse{}, err
}

// rawAcceptedCheckin checks a bare device in until the shard accepts it (a
// round must be open) and returns its connection.
func (h *failoverHarness) rawAcceptedCheckin(id string) transport.Conn {
	h.t.Helper()
	var conn transport.Conn
	await(h.t, h.clock, "device "+id+" admitted to a round", func() {
		for {
			c, resp, err := h.checkin(id)
			if err == nil && resp.Accepted {
				conn = c
				return
			}
			if c != nil {
				c.Close()
			}
			actor.Sleep(h.clock, 10*time.Millisecond, nil)
		}
	})
	return conn
}

// TestCoordinatorLossFreesDevices severs the shard's coordinator link
// mid-round: a device already configured into the round must be answered
// (aborted) promptly, and fresh check-ins must be steered away with a
// retry-later hint — never parked on a half-open connection (ISSUE: the
// selector shard reuses pacing.Steering when the link drops).
func TestCoordinatorLossFreesDevices(t *testing.T) {
	h := newFailoverHarness(t, 8, 5)
	h.runDevices(3) // too few to seal K=8: the round stays open

	// A raw device gets admitted into the open round and then sits on its
	// configuration without reporting.
	conn := h.rawAcceptedCheckin("raw-straggler")
	defer conn.Close()

	h.partition()
	lostAt := h.clock.Now()

	// The shard's heartbeat declares the coordinator dead; the edge round is
	// abandoned and must answer the straggler instead of stranding it, well
	// inside the round's report window.
	var msg interface{}
	var err error
	await(t, h.clock, "the straggler's answer", func() { msg, err = conn.Recv() })
	if err == nil {
		if _, ok := msg.(protocol.Abort); !ok {
			t.Fatalf("straggler got %T, want Abort or closed conn", msg)
		}
	}
	if lost := h.clock.Now().Sub(lostAt); lost >= h.plan.Server.ReportTimeout {
		t.Fatalf("device stranded: answered %v after the coordinator loss", lost)
	}

	// Fresh check-ins are steered to retry later, not accepted into a round
	// the shard cannot run and not left unanswered.
	var resp protocol.CheckinResponse
	await(t, h.clock, "a check-in steered away", func() {
		for {
			c, r, err := h.checkin("post-loss")
			if c != nil {
				c.Close()
			}
			// An error races the abandon, an acceptance the still-open
			// round: try again.
			if err == nil && !r.Accepted {
				resp = r
				return
			}
			actor.Sleep(h.clock, 10*time.Millisecond, nil)
		}
	})
	if resp.RetryAfter <= 0 {
		t.Fatalf("steered rejection carries no retry hint: %+v", resp)
	}
}

// TestReconnectThenResume is the regression test for the reconnect path: the
// link drops mid-task, comes back, and the next rounds must commit on the
// resumed link (coordinator re-sends the live round's config on hello).
func TestReconnectThenResume(t *testing.T) {
	h := newFailoverHarness(t, 2, 3)
	h.runDevices(6)

	h.waitRounds(1)
	h.partition()
	// Let the shard declare the link dead before healing.
	h.linkDown()
	h.heal()

	// All 3 rounds commit: the shard redialed, re-announced itself, got the
	// round config again, and resumed shipping seals.
	until(t, h.clock, "the rounds to resume after the reconnect", closed(h.coord.Done()))
	st, err := h.coord.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsCompleted < 3 {
		t.Fatalf("completed %d rounds, want 3", st.RoundsCompleted)
	}
	if st.SealsReceived < 3 {
		t.Fatalf("received %d seals, want >= 3", st.SealsReceived)
	}
}

// TestCoordinatorCrashRespawn kills the coordinator process outright while
// the shard holds live device check-ins, then respawns it on the same
// address and backing store: the shard must reconnect and rounds must resume
// from the committed checkpoint lineage (satellite: lock service + round
// state over the wire under -race).
func TestCoordinatorCrashRespawn(t *testing.T) {
	h := newFailoverHarness(t, 2, 1)
	h.runDevices(6)

	// Round 1 commits, then the coordinator dies.
	until(t, h.clock, "the first coordinator's round", closed(h.coord.Done()))
	first, err := h.store.LatestCheckpoint(h.plan.ID)
	if err != nil {
		t.Fatalf("no checkpoint after round 1: %v", err)
	}
	h.crashCoordinator()

	// Devices keep checking in against the shard throughout the outage; the
	// respawned coordinator picks the lineage up from the shared store.
	h.linkDown()
	h.startCoordinator(1)
	h.heal()

	until(t, h.clock, "the respawned coordinator's round", closed(h.coord.Done()))
	second, err := h.store.LatestCheckpoint(h.plan.ID)
	if err != nil {
		t.Fatal(err)
	}
	if second.Round <= first.Round {
		t.Fatalf("lineage did not advance across the crash: round %d -> %d", first.Round, second.Round)
	}
}
