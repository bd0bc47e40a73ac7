package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/actor"
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
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// ScenarioConfig drives one chaos scenario: a full deployment of the one
// round engine — sharded (one coordinator, N selector processes) or
// in-process (Shards == 0: one fleet, one local edge) — plus a device
// swarm, all on one virtual clock, with every shard↔coordinator and device
// link wrapped in the seeded fault schedule, run to Rounds committed rounds
// and then verified. The processes run their defaults: the plan's windows,
// the coordinator's grace and tick, the links' heartbeat budget and backoff.
type ScenarioConfig struct {
	// Seed makes the whole fault schedule reproducible (see Injector).
	Seed uint64
	// Spec is the fault schedule. Link roles: "shard:<i>" for shard i's
	// coordinator link, "coord" for the coordinator's accepted side of those
	// links, "device" for device↔selector links.
	Spec Spec

	// Shards is the number of selector processes; 0 runs the in-process
	// fleet, whose only links are the device links.
	Shards int
	// TargetDevices is K, the reports each round wants (default 8); the
	// swarm is 3K devices.
	TargetDevices int
	// Rounds is how many rounds must commit (default 5).
	Rounds int
	// SecAggGroup, when positive, runs the task under Secure Aggregation in
	// groups of that size: with a Reference, SumProbe then checks that every
	// commit is the exact survivor sum — a group that cannot recover its
	// masks must abort, never commit a wrong sum.
	SecAggGroup int

	// Reference, when set, is the fault-free lineage SumProbe compares the
	// committed lineage against (run the same config with an empty Spec to
	// produce one; see ScenarioResult.Lineage).
	Reference []*checkpoint.Checkpoint
}

// ScenarioResult is one completed (or failed) scenario.
type ScenarioResult struct {
	Rounds int
	// Elapsed is the virtual time the rounds took.
	Elapsed time.Duration
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
	Accepted      int64
	// LinkDowns and LinkUps count, per shard, how often its coordinator link
	// was declared down and came up.
	LinkDowns, LinkUps []int64
}

// RunScenario builds the topology on a virtual clock, injects the fault
// schedule, runs it until cfg.Rounds rounds have committed or a horizon of
// two report cycles per round has passed, tears everything down, and runs
// the invariant probes. The returned error is an infrastructure failure
// (rounds never committed, setup failed, the rig deadlocked); invariant
// violations are in Result.Report, which is filled whenever the run got as
// far as its teardown.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	var res ScenarioResult
	if cfg.TargetDevices <= 0 {
		cfg.TargetDevices = 8
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 5
	}
	const features = 4
	devices := 3 * cfg.TargetDevices

	clock := simclock.New(time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC))
	start := clock.Now()
	inj := New(cfg.Seed, cfg.Spec, clock)
	res.Plan = inj.Plan()

	const pop = "pop-chaos"
	p, err := plan.Generate(plan.Config{
		TaskID: pop + "/train", Population: pop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: features, Classes: 3, Seed: 1},
		StoreName: pop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: cfg.TargetDevices,
		// Partial rounds are the point: a partitioned shard's reports are
		// allowed to be missing and the survivors still commit.
		MinReportFraction: 0.25,
		SecureAggregation: cfg.SecAggGroup > 0, SecAggGroupSize: cfg.SecAggGroup,
	})
	if err != nil {
		return res, err
	}
	horizon := time.Duration(2*cfg.Rounds) * (p.Server.SelectionTimeout + p.Server.ReportTimeout)

	fed, err := data.Blobs(data.BlobsConfig{
		Users: 1, ExamplesPer: 20, Features: features, Classes: 3,
		TestSize: 10, Seed: 11,
	})
	if err != nil {
		return res, err
	}

	// Commits open the injector's round-addressed windows and resets, and
	// sample counter monotonicity.
	store := NewWatchStore(storage.NewMem())
	counters := NewCounterWatch(metrics.Default)
	inj.AdvanceRound(1)
	store.onCommit = func(c *checkpoint.Checkpoint) {
		inj.AdvanceRound(c.Round + 1)
		counters.Sample()
	}
	mem := transport.NewMemNetwork(clock)
	// The product's default pace steering: a one-minute round cadence.
	steering := pacing.New(time.Minute)
	// deviceListener opens one fault-wrapped device-facing listener.
	deviceListener := func(name string) (transport.Listener, func() (transport.Conn, error), error) {
		l, err := mem.Listen(name)
		if err != nil {
			return nil, nil, err
		}
		return inj.WrapListener(RoleDevice, l), func() (transport.Conn, error) { return mem.Dial(name) }, nil
	}
	// The topology under test, reduced to what the scenario drives and
	// reads: where devices dial, the progress and selector-layer counters,
	// and how to tear it all down.
	var (
		deviceDials []func() (transport.Conn, error)
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
		fleet := flserver.NewFleet(flserver.FleetConfig{SelectorCapacity: -1, Seed: cfg.Seed, Clock: clock})
		teardown = append(teardown, fleet.Close)
		if err := fleet.Register(flserver.PopulationSpec{
			Population: pop, Plans: []*plan.Plan{p}, Store: store,
			Steering: steering, PopulationEstimate: devices, MaxRounds: cfg.Rounds,
		}); err != nil {
			return res, err
		}
		l, dial, err := deviceListener("chaos-server")
		if err != nil {
			return res, err
		}
		teardown = append(teardown, func() { l.Close() })
		clock.Go(func() { fleet.Serve(l) })
		deviceDials = append(deviceDials, dial)
		progress = func() (shard.CoordStats, error) {
			st, err := fleet.PopulationStats(pop)
			return shard.CoordStats{RoundsCompleted: st.Coordinator.RoundsCompleted, RoundsFailed: st.Coordinator.RoundsFailed}, err
		}
		selectors = func() (flserver.SelectorStats, error) {
			st, err := fleet.PopulationStats(pop)
			return st.Selector, err
		}
	} else {
		coord, err := shard.NewCoordinatorProc(shard.CoordinatorConfig{
			Population: pop,
			Plans:      []*plan.Plan{p},
			Store:      store,
			Steering:   steering,
			MaxRounds:  cfg.Rounds,
			// MinShards stays 1: rounds must keep settling partial results
			// while a shard is partitioned away, not stall the fleet.
			MinShards: 1,
			Clock:     clock,
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
		clock.Go(func() { coord.Serve(coordL) })

		shards := make([]*shard.SelectorProc, cfg.Shards)
		res.LinkUps, res.LinkDowns = make([]int64, cfg.Shards), make([]int64, cfg.Shards)
		for i := range shards {
			dial := inj.WrapDialer(Role(fmt.Sprintf("shard:%d", i)),
				func() (transport.Conn, error) { return mem.Dial("chaos-coord") })
			sp := shard.NewSelectorProc(shard.SelectorConfig{
				Shard:              uint32(i),
				Steering:           steering,
				PopulationEstimate: devices,
				Seed:               cfg.Seed + uint64(i)*131,
				Peer: remote.Options{Clock: clock,
					OnUp: func() { atomic.AddInt64(&res.LinkUps[i], 1) }, OnDown: func(error) { atomic.AddInt64(&res.LinkDowns[i], 1) }},
			}, dial)
			shards[i] = sp
			l, dial, err := deviceListener(fmt.Sprintf("chaos-shard-%d", i))
			if err != nil {
				return res, err
			}
			teardown = append(teardown, func() { l.Close() })
			clock.Go(func() { sp.Serve(l) })
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
		progress = coord.Stats
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

	// The device swarm. Every device trains the same data with the same
	// runtime seed AND rebuilds its runtime for every check-in — training
	// shuffles examples from the runtime RNG, so only a fresh RNG per
	// participation makes every update the same pure function of the
	// checkpoint. Then any surviving subset's weighted average is that one
	// vector — the property that makes SumProbe decidable. Between sessions
	// a device rests for its pace-steering hint, and at least the steering's
	// shortest wait.
	newClient := func(id string) (*device.Client, error) {
		c, err := device.NewLocalDataClient(id, pop, pop+"-store", fed.Users[0], cfg.Seed+1000)
		if c != nil {
			c.Clock = clock
		}
		return c, err
	}
	if _, err := newClient("chaos-dev"); err != nil {
		return res, err
	}
	var stop actor.Gate
	var live atomic.Int64
	for i := 0; i < devices; i++ {
		id, dial := fmt.Sprintf("chaos-dev-%d", i), deviceDials[i%len(deviceDials)]
		live.Add(1)
		clock.Go(func() {
			defer live.Add(-1)
			for {
				rest := steering.MinWait
				client, _ := newClient(id)
				if conn, err := dial(); err == nil {
					if out, _ := client.RunOnce(conn); out != nil {
						rest = max(rest, out.RetryAfter)
					}
				}
				if !actor.Sleep(clock, rest, &stop) {
					return
				}
			}
		})
	}

	runErr := clock.Run(horizon, func() bool { return len(store.Commits(p.ID)) >= cfg.Rounds })
	if errors.Is(runErr, simclock.ErrDeadlock) {
		return res, fmt.Errorf("chaos scenario (seed=%d): %w\n%s", cfg.Seed, runErr, res.Plan)
	}
	res.Elapsed = clock.Now().Sub(start)
	stop.Close() // resting devices stop at once, the others after their session
	if err := clock.Run(horizon, func() bool { return live.Load() == 0 }); err != nil {
		// Not a horizon: a stranded session is a bug, whatever Run answered.
		return res, fmt.Errorf("chaos scenario: device sessions never ended: %v", err)
	}

	// Stats and the quota ledger are read while the processes are alive.
	cs, err := progress()
	if err != nil {
		return res, err
	}
	res.Rounds = cs.RoundsCompleted
	res.SealsReceived = cs.SealsReceived
	sel, err := selectors()
	if err != nil {
		return res, err
	}
	res.Accepted = sel.Accepted
	ledger := QuotaLedger{Granted: sel.QuotaGranted, Consumed: sel.QuotaConsumed,
		Revoked: sel.QuotaRevoked, Outstanding: sel.QuotaOutstanding}

	// Teardown, then the probes, once the rig is idle again.
	closeAll()
	clock.Run(0, func() bool { return true }) // settles, and cannot fail
	res.Lineage = store.Commits(p.ID)
	probes := []Probe{
		store.LineageProbe(),
		TeardownProbe(clock, inj),
		counters.Probe(),
		QuotaProbe(ledger, runErr == nil),
	}
	if cfg.Reference != nil && len(res.Lineage) > 0 {
		probes = append(probes, SumProbe(res.Lineage, cfg.Reference, 1e-6))
	}
	res.Report = Verify(probes...)

	res.FaultCounts = inj.FaultCounts()
	res.FaultTotal = inj.Trace().Total()
	if runErr != nil {
		return res, fmt.Errorf("chaos scenario: committed %d/%d rounds (seed=%d): %w", res.Rounds, cfg.Rounds, cfg.Seed, runErr)
	}
	return res, nil
}
