package flserver

import (
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestMultiTenantDevice exercises Sec. 3 Multi-Tenancy: one device hosts
// two FL populations (two apps with separate example stores) behind the
// on-device scheduler, which never runs two training sessions at once. Both
// populations' servers make progress using the shared fleet.
func TestMultiTenantDevice(t *testing.T) {
	makePlan := func(pop string, features int) *plan.Plan {
		p, err := plan.Generate(plan.Config{
			TaskID: pop + "/train", Population: pop,
			Model:     nn.Spec{Kind: nn.KindLogistic, Features: features, Classes: 2, Seed: 1},
			StoreName: pop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
			TargetDevices: 3, MinReportFraction: 0.7,
			SelectionTimeout: 2 * time.Second, ReportTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fedA, _ := data.Blobs(data.BlobsConfig{Users: 8, ExamplesPer: 20, Features: 3, Classes: 2, TestSize: 10, Seed: 41})
	fedB, _ := data.Blobs(data.BlobsConfig{Users: 8, ExamplesPer: 20, Features: 5, Classes: 2, TestSize: 10, Seed: 42})

	clock := newWatchedClock()
	net := transport.NewMemNetwork(clock)
	storeA, storeB := storage.NewMem(), storage.NewMem()
	planA, planB := makePlan("pop-a", 3), makePlan("pop-b", 5)

	startServer := func(pop string, p *plan.Plan, st storage.Store) *Server {
		srv, err := newServer(Config{
			Population: pop, Plans: []*plan.Plan{p}, Store: st,
			Steering: pacing.New(time.Second), MaxRounds: 2, Seed: 43,
		}, clock, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen(pop)
		if err != nil {
			t.Fatal(err)
		}
		clock.Go(func() { srv.Serve(l) })
		t.Cleanup(func() { l.Close(); srv.Close() })
		return srv
	}
	srvA := startServer("pop-a", planA, storeA)
	srvB := startServer("pop-b", planB, storeB)

	// 8 devices, each registered with BOTH populations via one runtime and
	// one scheduler.
	var stop actor.Gate
	for i := 0; i < 8; i++ {
		rt := device.NewRuntime(deviceName(i), 3, nil, uint64(i)+7)
		sa, _ := device.NewMemStore("pop-a-store", 100, 0)
		sb, _ := device.NewMemStore("pop-b-store", 100, 0)
		now := clock.Now()
		for _, ex := range fedA.Users[i] {
			sa.Add(ex, now)
		}
		for _, ex := range fedB.Users[i] {
			sb.Add(ex, now)
		}
		if err := rt.RegisterStore(sa); err != nil {
			t.Fatal(err)
		}
		if err := rt.RegisterStore(sb); err != nil {
			t.Fatal(err)
		}
		sched := device.NewScheduler()
		clientA := &device.Client{ID: deviceName(i), Population: "pop-a", Runtime: rt, Clock: clock}
		clientB := &device.Client{ID: deviceName(i), Population: "pop-b", Runtime: rt, Clock: clock}

		clock.Go(func() {
			for {
				// The periodic job wakes up and enqueues one session per
				// configured population; the scheduler runs them strictly
				// sequentially.
				_ = sched.Enqueue(&device.Job{Population: "pop-a", Run: func() {
					if conn, err := net.Dial("pop-a"); err == nil {
						_, _ = clientA.RunOnce(conn)
					}
				}})
				_ = sched.Enqueue(&device.Job{Population: "pop-b", Run: func() {
					if conn, err := net.Dial("pop-b"); err == nil {
						_, _ = clientB.RunOnce(conn)
					}
				}})
				if _, err := sched.DrainAll(); err != nil {
					t.Error(err)
					return
				}
				if !actor.Sleep(clock, 5*time.Millisecond, &stop) {
					return
				}
			}
		})
	}

	clock.until(t, "both populations to finish", func() bool { return closed(srvA.Done())() && closed(srvB.Done())() })
	stop.Close()

	if _, err := storeA.LatestCheckpoint(planA.ID); err != nil {
		t.Fatalf("pop-a never committed: %v", err)
	}
	if _, err := storeB.LatestCheckpoint(planB.ID); err != nil {
		t.Fatalf("pop-b never committed: %v", err)
	}
}

func deviceName(i int) string {
	return "mt-dev-" + string(rune('a'+i))
}
