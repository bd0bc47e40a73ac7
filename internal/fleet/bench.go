package fleet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/flserver"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/transport"
)

// BenchConfig parametrizes one multi-population run for
// BenchmarkMultiPopulation and `flbench -exp multipop`: N populations
// registered on ONE fleet, driven to committed rounds by a shared
// multi-tenant device fleet (every device runs every population behind its
// on-device Scheduler) through the real round pipeline — check-in, plan
// delivery, on-device training, report, aggregation, commit.
type BenchConfig struct {
	// Populations is N, the number of FL populations sharing the fleet
	// (default 3).
	Populations int
	// Devices is the shared device fleet size (default 9).
	Devices int
	// TargetDevices is K, the reports each round needs (default 3).
	TargetDevices int
	// Rounds is the committed rounds each population must reach
	// (default 2).
	Rounds int
	// TCP moves every message over real loopback sockets instead of the
	// in-memory transport.
	TCP bool
	// NumSelectors sizes the shared Selector layer (default 2).
	NumSelectors int
	Seed         uint64
	// Timeout bounds the whole run (default 2 minutes).
	Timeout time.Duration
}

// BenchStats describes one completed multi-population run.
type BenchStats struct {
	// Rounds maps population name to its committed round count.
	Rounds map[string]int
	// Accepted/Rejected sum the shared selector layer's decisions across
	// all populations.
	Accepted int64
	Rejected int64
	Elapsed  time.Duration
}

// benchPopName names the i-th synthetic population.
func benchPopName(i int) string { return fmt.Sprintf("pop-%c", 'a'+i) }

// RunBenchMultiPop drives cfg.Populations populations to cfg.Rounds
// committed rounds each, concurrently, over one Fleet and one shared
// device fleet. Used by BenchmarkMultiPopulation, `flbench -exp multipop`,
// and the fleet integration tests (mem and TCP).
func RunBenchMultiPop(cfg BenchConfig) (BenchStats, error) {
	var stats BenchStats
	if cfg.Populations <= 0 {
		cfg.Populations = 3
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 9
	}
	if cfg.TargetDevices <= 0 {
		cfg.TargetDevices = 3
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.Devices < cfg.TargetDevices {
		return stats, fmt.Errorf("fleet bench: %d devices cannot satisfy K=%d", cfg.Devices, cfg.TargetDevices)
	}

	f, err := New(Config{NumSelectors: cfg.NumSelectors, Seed: cfg.Seed})
	if err != nil {
		return stats, err
	}
	defer f.Close()

	// One plan + dataset + store per population; all share the fleet.
	type popSetup struct {
		name  string
		plan  *plan.Plan
		fed   *data.Federated
		store storage.Store
	}
	pops := make([]popSetup, cfg.Populations)
	for i := range pops {
		name := benchPopName(i)
		p, err := plan.Generate(plan.Config{
			TaskID: name + "/train", Population: name,
			Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
			StoreName: name + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
			TargetDevices: cfg.TargetDevices, MinReportFraction: 0.7,
			SelectionTimeout: 30 * time.Second, ReportTimeout: time.Minute,
		})
		if err != nil {
			return stats, err
		}
		fed, err := data.Blobs(data.BlobsConfig{
			Users: cfg.Devices, ExamplesPer: 20, Features: 4, Classes: 3,
			TestSize: 10, Seed: cfg.Seed + uint64(i)*31 + 1,
		})
		if err != nil {
			return stats, err
		}
		pops[i] = popSetup{name: name, plan: p, fed: fed, store: storage.NewMem()}
		if err := f.Register(PopulationSpec{
			Population: name,
			Plans:      []*plan.Plan{p},
			Store:      pops[i].store,
			Steering:   pacing.New(time.Second),
			MaxRounds:  cfg.Rounds,
		}); err != nil {
			return stats, err
		}
	}

	// One listener, one address, every population behind it.
	l, dial, err := flserver.Listen(cfg.TCP, transport.NewMemNetwork(), "fleet")
	if err != nil {
		return stats, err
	}
	defer l.Close()
	go f.Serve(l)

	// Shared device fleet: each device hosts EVERY population (one example
	// store per population, one runtime, one on-device Scheduler that runs
	// sessions strictly sequentially) and checks in for all of them over
	// one connection loop.
	stop := make(chan struct{})
	var devices sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Devices; i++ {
		id := fmt.Sprintf("flt-dev-%d", i)
		rt := device.NewRuntime(id, 3, nil, cfg.Seed+uint64(i)+100)
		clients := make([]*flserver.DeviceClient, len(pops))
		for pi, ps := range pops {
			st, err := device.NewMemStore(ps.name+"-store", 1000, 0)
			if err != nil {
				return stats, err
			}
			now := time.Now()
			for _, ex := range ps.fed.Users[i] {
				st.Add(ex, now)
			}
			if err := rt.RegisterStore(st); err != nil {
				return stats, err
			}
			clients[pi] = &flserver.DeviceClient{ID: id, Population: ps.name, Runtime: rt}
		}
		sched := device.NewScheduler()
		devices.Add(1)
		go func() {
			defer devices.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, c := range clients {
					c := c
					_ = sched.Enqueue(&device.Job{Population: c.Population, Run: func() {
						if conn, err := dial(); err == nil {
							_, _ = c.RunOnce(conn)
						}
					}})
				}
				if _, err := sched.DrainAll(); err != nil {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Every population must reach its committed-round target.
	deadline := time.After(cfg.Timeout)
	for _, ps := range pops {
		done, ok := f.Done(ps.name)
		if !ok {
			close(stop)
			devices.Wait()
			return stats, fmt.Errorf("fleet bench: population %s vanished", ps.name)
		}
		select {
		case <-done:
		case <-deadline:
			close(stop)
			devices.Wait()
			return stats, fmt.Errorf("fleet bench: population %s did not finish within %v", ps.name, cfg.Timeout)
		}
	}
	stats.Elapsed = time.Since(start)
	close(stop)
	devices.Wait()

	stats.Rounds = make(map[string]int, len(pops))
	for _, ps := range pops {
		st, err := f.PopulationStats(ps.name)
		if err != nil {
			return stats, err
		}
		stats.Rounds[ps.name] = st.Coordinator.RoundsCompleted
		stats.Accepted += st.Selector.Accepted
		stats.Rejected += st.Selector.Rejected
		if _, err := ps.store.LatestCheckpoint(ps.plan.ID); err != nil {
			return stats, fmt.Errorf("fleet bench: population %s committed no checkpoint: %w", ps.name, err)
		}
	}
	return stats, nil
}
