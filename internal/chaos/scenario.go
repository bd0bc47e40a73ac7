package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/flserver"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
)

// ScenarioConfig drives one chaos scenario: a full deployment of the one
// round engine — sharded (one coordinator, N selector processes) or
// in-process (Shards == 0: one server, one local edge) — plus a device
// swarm, with every shard↔coordinator link (and optionally the device
// links) wrapped in the seeded fault schedule, run to Rounds committed
// rounds and then verified.
type ScenarioConfig struct {
	// Seed makes the whole fault schedule reproducible (see Injector).
	Seed uint64
	// Spec is the fault schedule. Link roles: "shard:<i>" for shard i's
	// coordinator link, "coord" for the coordinator's accepted side of those
	// links, "device" for device↔selector links (only when WrapDevices).
	Spec Spec

	// Shards is the number of selector processes; 0 runs the in-process
	// server, whose only links are the device links (set WrapDevices).
	Shards int
	// Devices is the swarm size (default 3×K).
	Devices int
	// TargetDevices is K, the reports each round wants (default 8).
	TargetDevices int
	// Rounds is how many rounds must commit (default 5).
	Rounds int
	// Features sizes the model (default 4).
	Features int
	// SecAggGroup, when positive, runs the task under Secure Aggregation in
	// groups of that size: with IdenticalDevices and a Reference, SumProbe
	// then checks that every commit is the exact survivor sum — a group
	// that cannot recover its masks must abort, never commit a wrong sum.
	SecAggGroup int

	// IdenticalDevices gives every device the same local data and runtime
	// seed, which makes the committed lineage independent of which subset of
	// devices survives the faults — the property SumProbe needs. Scenario
	// runs used as a fault-free reference should set it too.
	IdenticalDevices bool
	// WrapDevices also wraps the device-facing listeners (role "device").
	WrapDevices bool

	// ReportTimeout bounds each round's report window (default 3s);
	// SealGrace and TickEvery tune the coordinator (defaults 500ms / 50ms).
	ReportTimeout time.Duration
	SealGrace     time.Duration
	TickEvery     time.Duration
	// Peer tunes the shard→coordinator links; the zero value uses fast
	// failure detection (20ms heartbeat, 3 misses) so partitions are
	// noticed within the scenario's timescale.
	Peer remote.Options

	// Reference, when set, is the fault-free lineage SumProbe compares the
	// committed lineage against (run the same config with an empty Spec to
	// produce one; see ScenarioResult.Lineage).
	Reference []*checkpoint.Checkpoint

	// Timeout bounds the whole run (default 2 minutes).
	Timeout time.Duration
}

// ScenarioResult is one completed (or failed) scenario.
type ScenarioResult struct {
	Rounds  int
	Elapsed time.Duration
	Seed    uint64
	// Plan is the injector's rendered fault plan — log it; with the seed it
	// reproduces the schedule exactly.
	Plan string
	// FaultCounts is the per-kind fault totals ("drop=12", sorted).
	FaultCounts []string
	FaultTotal  int64
	// Lineage is the commit-ordered checkpoint lineage.
	Lineage []*checkpoint.Checkpoint
	// Report is the chaos.Verify verdict over every invariant probe.
	Report        Report
	SealsReceived int64
	BytesUpstream int64
	Accepted      int64
}

// fastPeer is the default link tuning for scenarios: fail fast enough that
// a 2s partition is detected and redialed well inside the run.
func fastPeer() remote.Options {
	return remote.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMiss:     3,
		BackoffMin:        5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
	}
}

// RunScenario builds the topology, injects the fault schedule,
// drives it to cfg.Rounds committed rounds, tears everything down, and runs
// the invariant probes. The returned error is an infrastructure failure
// (rounds never committed, setup failed); invariant violations are in
// Result.Report.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	var res ScenarioResult
	if cfg.TargetDevices <= 0 {
		cfg.TargetDevices = 8
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 3 * cfg.TargetDevices
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 5
	}
	if cfg.Features <= 0 {
		cfg.Features = 4
	}
	if cfg.ReportTimeout <= 0 {
		cfg.ReportTimeout = 3 * time.Second
	}
	if cfg.SealGrace <= 0 {
		cfg.SealGrace = 500 * time.Millisecond
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 50 * time.Millisecond
	}
	if cfg.Peer.HeartbeatInterval == 0 && cfg.Peer.HeartbeatMiss == 0 {
		cfg.Peer = fastPeer()
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}

	// The goroutine baseline is captured before anything spawns.
	goroutines := GoroutineProbe(24)
	inj := New(cfg.Seed, cfg.Spec, nil)
	res.Seed = cfg.Seed
	res.Plan = inj.Plan()

	const pop = "pop-chaos"
	p, err := plan.Generate(plan.Config{
		TaskID: pop + "/train", Population: pop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: cfg.Features, Classes: 3, Seed: 1},
		StoreName: pop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: cfg.TargetDevices,
		// Partial rounds are the point: a partitioned shard's reports are
		// allowed to be missing and the survivors still commit.
		MinReportFraction: 0.25,
		SelectionTimeout:  30 * time.Second, ReportTimeout: cfg.ReportTimeout,
		SecureAggregation: cfg.SecAggGroup > 0, SecAggGroupSize: cfg.SecAggGroup,
	})
	if err != nil {
		return res, err
	}

	dataUsers := cfg.Devices
	if cfg.IdenticalDevices {
		dataUsers = 1
	}
	fed, err := data.Blobs(data.BlobsConfig{
		Users: dataUsers, ExamplesPer: 20, Features: cfg.Features, Classes: 3,
		TestSize: 10, Seed: 11,
	})
	if err != nil {
		return res, err
	}

	store := NewWatchStore(storage.NewMem())
	mem := transport.NewMemNetwork()
	// deviceListener opens one device-facing listener, fault-wrapped when
	// the scenario asks for it.
	deviceListener := func(name string) (transport.Listener, func() (transport.Conn, error), error) {
		l, err := mem.Listen(name)
		if err != nil {
			return nil, nil, err
		}
		if cfg.WrapDevices {
			l = inj.WrapListener(RoleDevice, l)
		}
		return l, func() (transport.Conn, error) { return mem.Dial(name) }, nil
	}
	// The topology under test, reduced to what the scenario drives and
	// reads: where devices dial, when the rounds are done, the progress and
	// selector-layer counters, and how to tear it all down.
	var (
		deviceDials []func() (transport.Conn, error)
		done        <-chan struct{}
		progress    func() (shard.CoordStats, error)
		selectors   func() (flserver.SelectorStats, error)
		teardown    []func()
	)
	closeAll := func() {
		for i := len(teardown) - 1; i >= 0; i-- {
			teardown[i]()
		}
		teardown = nil
	}
	defer closeAll()
	if cfg.Shards == 0 {
		srv, err := flserver.New(flserver.Config{
			Population: pop, Plans: []*plan.Plan{p}, Store: store,
			Steering: pacing.New(time.Second), PopulationEstimate: cfg.Devices,
			MaxRounds: cfg.Rounds, Seed: cfg.Seed,
		})
		if err != nil {
			return res, err
		}
		teardown = append(teardown, srv.Close)
		l, dial, err := deviceListener("chaos-server")
		if err != nil {
			return res, err
		}
		teardown = append(teardown, func() { l.Close() })
		go srv.Serve(l)
		deviceDials, done, selectors = append(deviceDials, dial), srv.Done(), srv.SelectorStats
		progress = func() (shard.CoordStats, error) {
			st, err := srv.Stats()
			return shard.CoordStats{RoundsCompleted: st.RoundsCompleted, RoundsFailed: st.RoundsFailed}, err
		}
	} else {
		coord, err := shard.NewCoordinatorProc(shard.CoordinatorConfig{
			Population: pop,
			Plans:      []*plan.Plan{p},
			Store:      store,
			Steering:   pacing.New(time.Second),
			MaxRounds:  cfg.Rounds,
			// MinShards stays 1: rounds must keep settling partial results
			// while a shard is partitioned away, not stall the fleet.
			MinShards: 1,
			SealGrace: cfg.SealGrace,
			TickEvery: cfg.TickEvery,
		})
		if err != nil {
			return res, err
		}
		teardown = append(teardown, coord.Close)
		rawCoordL, err := mem.Listen("chaos-coord")
		if err != nil {
			return res, err
		}
		coordL := inj.WrapListener("coord", rawCoordL)
		teardown = append(teardown, func() { coordL.Close() })
		go coord.Serve(coordL)

		shards := make([]*shard.SelectorProc, cfg.Shards)
		for i := range shards {
			dial := inj.WrapDialer(Role(fmt.Sprintf("shard:%d", i)),
				func() (transport.Conn, error) { return mem.Dial("chaos-coord") })
			sp := shard.NewSelectorProc(shard.SelectorConfig{
				Shard:              uint32(i),
				Steering:           pacing.New(time.Second),
				PopulationEstimate: cfg.Devices,
				Seed:               cfg.Seed + uint64(i)*131,
				Peer:               cfg.Peer,
				RateProbeInterval:  100 * time.Millisecond,
			}, dial)
			shards[i] = sp
			l, dial, err := deviceListener(fmt.Sprintf("chaos-shard-%d", i))
			if err != nil {
				return res, err
			}
			teardown = append(teardown, func() { l.Close() })
			go sp.Serve(l)
			deviceDials = append(deviceDials, dial)
		}
		// Last in, first out: shards close before the coordinator's
		// listener and the coordinator itself.
		teardown = append(teardown, func() {
			for _, sp := range shards {
				if sp != nil {
					sp.Close()
				}
			}
		})
		done, progress = coord.Done(), coord.Stats
		selectors = func() (flserver.SelectorStats, error) {
			var total flserver.SelectorStats
			for _, sp := range shards {
				ss, err := sp.Stats()
				if err != nil {
					return total, err
				}
				total.Add(ss.Selector)
			}
			return total, nil
		}
	}

	// The round poller advances round-addressed windows/resets as commits
	// land and samples counter monotonicity.
	counters := NewCounterWatch(metrics.Default)
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		inj.AdvanceRound(1)
		for {
			select {
			case <-stopPoll:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if ck, err := store.LatestCheckpoint(p.ID); err == nil {
				inj.AdvanceRound(ck.Round + 1)
			}
			counters.Sample()
		}
	}()
	defer func() { close(stopPoll); pollWG.Wait() }()

	// The device swarm. Under IdenticalDevices every device trains the same
	// data with the same runtime seed AND rebuilds its runtime for every
	// check-in — training shuffles examples from the runtime RNG, so only a
	// fresh RNG per participation makes every update the same pure function
	// of the checkpoint. Then any surviving subset's weighted average is
	// that one vector — the property that makes SumProbe decidable.
	makeClient := func(i int) (*device.Client, error) {
		id := fmt.Sprintf("chaos-dev-%d", i)
		seed := cfg.Seed + uint64(i) + 1000
		user := i
		if cfg.IdenticalDevices {
			seed = cfg.Seed + 1000
			user = 0
		}
		return device.NewLocalDataClient(id, pop, pop+"-store", fed.Users[user], seed)
	}
	stopDevices := make(chan struct{})
	var devices sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Devices; i++ {
		client, err := makeClient(i)
		if err != nil {
			return res, err
		}
		idx := i
		dial := deviceDials[i%len(deviceDials)]
		devices.Add(1)
		go func() {
			defer devices.Done()
			for {
				select {
				case <-stopDevices:
					return
				default:
				}
				if conn, err := dial(); err == nil {
					_, _ = client.RunOnce(conn)
					if cfg.IdenticalDevices {
						// Fresh RNG next participation (see above).
						if c, err := makeClient(idx); err == nil {
							client = c
						}
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	stopSwarm := func() error {
		close(stopDevices)
		waited := make(chan struct{})
		go func() { devices.Wait(); close(waited) }()
		select {
		case <-waited:
			return nil
		case <-time.After(30 * time.Second):
			return fmt.Errorf("chaos scenario: device goroutines leaked")
		}
	}

	select {
	case <-done:
	case <-time.After(cfg.Timeout):
		_ = stopSwarm()
		return res, fmt.Errorf("chaos scenario: %d rounds did not commit within %v (seed=%d)\n%s",
			cfg.Rounds, cfg.Timeout, cfg.Seed, res.Plan)
	}
	res.Elapsed = time.Since(start)
	if err := stopSwarm(); err != nil {
		return res, err
	}

	// Stats and the quota ledger are read while the processes are alive.
	cs, err := progress()
	if err != nil {
		return res, err
	}
	res.Rounds = cs.RoundsCompleted
	res.SealsReceived = cs.SealsReceived
	res.BytesUpstream = cs.BytesUpstream
	sel, err := selectors()
	if err != nil {
		return res, err
	}
	res.Accepted = sel.Accepted
	quotaReport := Verify(QuotaProbe(func() (QuotaLedger, error) {
		sel, err := selectors()
		return QuotaLedger{Granted: sel.QuotaGranted, Consumed: sel.QuotaConsumed,
			Revoked: sel.QuotaRevoked, Outstanding: sel.QuotaOutstanding}, err
	}))

	// Teardown, then the quiescence probes.
	closeAll()

	probes := []Probe{
		store.LineageProbe(),
		ConnProbe(inj),
		goroutines,
		counters.Probe(),
	}
	if cfg.Reference != nil {
		probes = append(probes, SumProbe(store.Commits(p.ID), cfg.Reference, 1e-6))
	}
	res.Report = Verify(probes...)
	res.Report.Passed = append(res.Report.Passed, quotaReport.Passed...)
	res.Report.Failures = append(res.Report.Failures, quotaReport.Failures...)

	res.Lineage = store.Commits(p.ID)
	res.FaultCounts = inj.FaultCounts()
	res.FaultTotal = inj.Trace().Total()
	if res.Rounds < cfg.Rounds {
		return res, fmt.Errorf("chaos scenario: committed %d/%d rounds (seed=%d)", res.Rounds, cfg.Rounds, cfg.Seed)
	}
	return res, nil
}
