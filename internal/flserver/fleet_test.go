package flserver

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/transport"
)

func makePlan(t *testing.T, pop string, target int) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID: pop + "/train", Population: pop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: pop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: target, MinReportFraction: 0.7,
		SelectionTimeout: 10 * time.Second, ReportTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFleetThreePopulations is the tentpole end-to-end: ONE fleet process,
// three populations behind one listener and one shared Selector layer, each
// with its own device fleet, over the in-memory transport and over loopback
// sockets; every population reaches its committed-round target
// concurrently, with per-population stats.
func TestFleetThreePopulations(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		tcp                     bool
		devices, target, rounds int
	}{{"mem", false, 9, 3, 2}, {"tcp", true, 6, 2, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			var clock actor.Clock = actor.Wall
			if !tc.tcp {
				clock = newWatchedClock()
			}
			f := NewFleet(FleetConfig{Seed: 1, Clock: clock})
			defer f.Close()
			var dial func() (transport.Conn, error)
			if tc.tcp {
				l, err := transport.ListenTCP("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				go f.Serve(l)
				dial = func() (transport.Conn, error) { return transport.DialTCP(l.Addr()) }
			} else {
				dial = serveFleet(t, clock.(*watchedClock), f)
			}

			pops := []string{"pop-a", "pop-b", "pop-c"}
			stores := make(map[string]storage.Store, len(pops))
			for i, pop := range pops {
				stores[pop] = storage.NewMem()
				if err := f.Register(PopulationSpec{
					Population: pop, Plans: []*plan.Plan{makePlan(t, pop, tc.target)}, Store: stores[pop],
					Steering: pacing.New(time.Second), MaxRounds: tc.rounds,
				}); err != nil {
					t.Fatal(err)
				}
				fed, err := data.Blobs(data.BlobsConfig{Users: tc.devices, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: uint64(31*i + 2)})
				if err != nil {
					t.Fatal(err)
				}
				defer runPopDevices(t, clock, pop, tc.devices, fed, dial).halt()
			}
			var accepted int64
			for _, pop := range pops {
				done, ok := f.Done(pop)
				if !ok {
					t.Fatalf("population %s not registered", pop)
				}
				awaitDone(t, clock, "population "+pop, done)
				st, err := f.PopulationStats(pop)
				if err != nil {
					t.Fatal(err)
				}
				if st.Coordinator.RoundsCompleted < tc.rounds {
					t.Fatalf("population %s committed %d rounds, want ≥ %d", pop, st.Coordinator.RoundsCompleted, tc.rounds)
				}
				if _, err := stores[pop].LatestCheckpoint(pop + "/train"); err != nil {
					t.Fatalf("population %s committed no checkpoint: %v", pop, err)
				}
				accepted += st.Selector.Accepted
			}
			if accepted == 0 {
				t.Fatal("shared selector layer accepted no devices")
			}
		})
	}
}

// serveFleet serves f, which runs on clock, over a fresh mem network on
// that clock, and returns how a device dials it.
func serveFleet(t *testing.T, clock *watchedClock, f *Fleet) func() (transport.Conn, error) {
	t.Helper()
	net := transport.NewMemNetwork(clock)
	l, err := net.Listen("fleet")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	clock.Go(func() { f.Serve(l) })
	return func() (transport.Conn, error) { return net.Dial("fleet") }
}

// runPopDevices starts a device fleet of one population on clock.
func runPopDevices(t *testing.T, clock actor.Clock, pop string, n int, fed *data.Federated, dial func() (transport.Conn, error)) *fleet {
	t.Helper()
	fl := &fleet{t: t, shapes: make(map[string]int)}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-dev-%d", pop, i)
		st, err := device.NewMemStore(pop+"-store", 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range fed.Users[i] {
			st.Add(ex, clock.Now())
		}
		rt := device.NewRuntime(id, 3, nil, uint64(i)+500)
		if err := rt.RegisterStore(st); err != nil {
			t.Fatal(err)
		}
		fl.clients = append(fl.clients, &device.Client{ID: id, Population: pop, Runtime: rt})
	}
	return fl.run(clock, dial)
}

// TestFleetRegisterAtRuntime covers the registry: an unknown population's
// check-in gets a steering-backed "retry later" (not a dropped connection);
// registering it mid-flight makes it train to completion over the
// already-running listener.
func TestFleetRegisterAtRuntime(t *testing.T) {
	clock := newWatchedClock()
	f := NewFleet(FleetConfig{Seed: 3, Clock: clock})
	defer f.Close()
	dial := serveFleet(t, clock, f)

	checkin := func(pop string) protocol.CheckinResponse {
		t.Helper()
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Send(protocol.CheckinRequest{DeviceID: "probe", Population: pop}); err != nil {
			t.Fatal(err)
		}
		msg, err := conn.Recv()
		if err != nil {
			t.Fatalf("check-in for %q must be answered, not dropped: %v", pop, err)
		}
		resp, ok := msg.(protocol.CheckinResponse)
		if !ok {
			t.Fatalf("unexpected reply %T", msg)
		}
		return resp
	}

	// pop-b is not registered: its devices must be steered away.
	if resp := checkin("pop-b"); resp.Accepted || resp.RetryAfter <= 0 {
		t.Fatalf("unknown population must get a steering-backed rejection: %+v", resp)
	}
	if _, err := f.PopulationStats("pop-b"); err == nil {
		t.Fatal("stats for an unregistered population must error")
	}

	// Register two populations at runtime, against the live listener.
	storeA, storeB := storage.NewMem(), storage.NewMem()
	planA, planB := makePlan(t, "pop-a", 3), makePlan(t, "pop-b", 3)
	fedA, _ := data.Blobs(data.BlobsConfig{Users: 8, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 41})
	fedB, _ := data.Blobs(data.BlobsConfig{Users: 8, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 42})
	for _, reg := range []struct {
		pop   string
		p     *plan.Plan
		store storage.Store
	}{{"pop-a", planA, storeA}, {"pop-b", planB, storeB}} {
		if err := f.Register(PopulationSpec{
			Population: reg.pop, Plans: []*plan.Plan{reg.p}, Store: reg.store,
			Steering: pacing.New(time.Second), MaxRounds: 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Register(PopulationSpec{Population: "pop-a", Plans: []*plan.Plan{planA}, Store: storeA}); err == nil {
		t.Fatal("duplicate registration must fail")
	}

	devA := runPopDevices(t, clock, "pop-a", 8, fedA, dial)
	devB := runPopDevices(t, clock, "pop-b", 8, fedB, dial)
	for _, pop := range []string{"pop-a", "pop-b"} {
		done, ok := f.Done(pop)
		if !ok {
			t.Fatalf("population %s not registered", pop)
		}
		clock.until(t, "population "+pop, closed(done))
	}
	devA.halt()
	devB.halt()

	for _, c := range []struct {
		pop   string
		p     *plan.Plan
		store storage.Store
	}{{"pop-a", planA, storeA}, {"pop-b", planB, storeB}} {
		if _, err := c.store.LatestCheckpoint(c.p.ID); err != nil {
			t.Fatalf("%s never committed: %v", c.pop, err)
		}
		st, err := f.PopulationStats(c.pop)
		if err != nil {
			t.Fatal(err)
		}
		if st.Coordinator.RoundsCompleted < 2 {
			t.Fatalf("%s completed %d rounds", c.pop, st.Coordinator.RoundsCompleted)
		}
	}

}

// TestFleetCloseDuringRegistrationChurn must terminate: Close races actor
// spawns (watchers, coordinators, per-round children) and the actor
// system's shutdown must stop them all.
func TestFleetCloseDuringRegistrationChurn(t *testing.T) {
	f := NewFleet(FleetConfig{Seed: 7})
	for i := 0; i < 50; i++ {
		pop := fmt.Sprintf("churn-%d", i%5)
		_ = f.Register(PopulationSpec{
			Population: pop, Plans: []*plan.Plan{makePlan(t, pop, 2)}, Store: storage.NewMem(),
		})
	}
	done := make(chan struct{})
	go func() {
		f.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Fleet.Close hung")
	}
}

// TestFleetStatsPerPopulation asserts the stats API answers for every
// registered population and errors once the fleet is closed.
func TestFleetStatsPerPopulation(t *testing.T) {
	f := NewFleet(FleetConfig{Seed: 4})
	for _, pop := range []string{"x", "y"} {
		if err := f.Register(PopulationSpec{
			Population: pop, Plans: []*plan.Plan{makePlan(t, pop, 2)}, Store: storage.NewMem(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pop := range []string{"x", "y"} {
		if st, err := f.PopulationStats(pop); err != nil || st.Population != pop {
			t.Fatalf("stats for %s: %+v, %v", pop, st, err)
		}
	}
	f.Close()
	if _, err := f.PopulationStats("x"); err == nil {
		t.Fatal("stats on a closed fleet must error, not read as zero progress")
	}
}
