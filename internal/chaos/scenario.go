package chaos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/plan"
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
	rig, err := NewRig(RigConfig{
		Faults: &cfg.Spec, Plan: p, Store: store,
		PopulationEstimate: devices, MaxRounds: cfg.Rounds,
		Shards: cfg.Shards, Seed: cfg.Seed,
	})
	if err != nil {
		return res, err
	}
	defer rig.Close()
	inj := rig.Faults
	inj.AdvanceRound(1)
	res.Plan = inj.Plan()
	res.LinkUps, res.LinkDowns = rig.LinkUps, rig.LinkDowns
	store.onCommit = func(c *checkpoint.Checkpoint) {
		inj.AdvanceRound(c.Round + 1)
		counters.Sample()
	}
	clock := rig.Clock
	start := clock.Now()

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
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("chaos-dev-%d", i)
		rig.Device(i, 0, func(dial func() (transport.Conn, error)) time.Duration {
			rest := rig.Steering.MinWait
			client, _ := newClient(id)
			if conn, err := dial(); err == nil {
				if out, _ := client.RunOnce(conn); out != nil {
					rest = max(rest, out.RetryAfter)
				}
			}
			return rest
		})
	}

	runErr := clock.Run(horizon, func() bool { return len(store.Commits(p.ID)) >= cfg.Rounds })
	if errors.Is(runErr, simclock.ErrDeadlock) {
		return res, fmt.Errorf("chaos scenario (seed=%d): %w\n%s", cfg.Seed, runErr, res.Plan)
	}
	res.Elapsed = clock.Now().Sub(start)
	if err := rig.StopDevices(horizon); err != nil {
		return res, fmt.Errorf("chaos scenario: %v", err)
	}

	// Stats and the quota ledger are read while the processes are alive.
	cs, err := rig.Progress()
	if err != nil {
		return res, err
	}
	res.Rounds = cs.RoundsCompleted
	res.SealsReceived = cs.SealsReceived
	sel, err := rig.Selectors()
	if err != nil {
		return res, err
	}
	res.Accepted = sel.Accepted
	ledger := QuotaLedger{Granted: sel.QuotaGranted, Consumed: sel.QuotaConsumed,
		Revoked: sel.QuotaRevoked, Outstanding: sel.QuotaOutstanding}

	// Teardown, then the probes, once the rig is idle again.
	rig.Close()
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
