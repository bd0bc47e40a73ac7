package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/flserver"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/transport"
)

// BenchShardedConfig parametrizes one sharded-round run for
// BenchmarkShardedRound and `flbench -exp shardtput`: N selector processes
// and one coordinator process, connected over the real peer links (mem or
// TCP), driving a device swarm spread across the shards to committed
// rounds at target K.
type BenchShardedConfig struct {
	// Shards is the number of selector processes (default 3).
	Shards int
	// Devices is the swarm size (default 3×K).
	Devices int
	// TargetDevices is K, the reports each round needs (default 64).
	TargetDevices int
	// Rounds is how many rounds must commit (default 2).
	Rounds int
	// Features sizes the model (default 4; raise it to make the sealed
	// stripes, and the upstream frames, big).
	Features int
	// TCP moves every link — device→shard and shard→coordinator — over
	// real loopback sockets.
	TCP bool
	// ClipNorm, when positive, runs the task under the norm-bound robust
	// policy: every shard clips reports at its own edge and the seals carry
	// the clip counts upstream.
	ClipNorm float64
	Seed     uint64
	// Timeout bounds the whole run (default 2 minutes).
	Timeout time.Duration
}

// BenchShardedStats describes one completed sharded run.
type BenchShardedStats struct {
	Rounds  int
	Elapsed time.Duration
	// SealsReceived / BytesUpstream is the selector→coordinator aggregation
	// traffic: one sealed stripe per shard per round, never raw updates.
	SealsReceived int64
	BytesUpstream int64
	// Accepted sums device check-ins accepted across every shard.
	Accepted int64
	// Clipped totals norm-bound edge clips across every shard and round.
	Clipped int64
	// PerShard is each shard's cumulative contribution.
	PerShard map[uint32]ShardContribution
}

// RunBenchSharded drives a cfg.Shards×1 sharded deployment to cfg.Rounds
// committed rounds. Used by BenchmarkShardedRound, `flbench -exp
// shardtput`, and the sharded integration tests (mem and TCP).
func RunBenchSharded(cfg BenchShardedConfig) (BenchShardedStats, error) {
	var stats BenchShardedStats
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.TargetDevices <= 0 {
		cfg.TargetDevices = 64
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 3 * cfg.TargetDevices
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 2
	}
	if cfg.Features <= 0 {
		cfg.Features = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.Devices < cfg.TargetDevices {
		return stats, fmt.Errorf("shard bench: %d devices cannot satisfy K=%d", cfg.Devices, cfg.TargetDevices)
	}

	const pop = "pop-sharded"
	var robust plan.RobustPolicy
	if cfg.ClipNorm > 0 {
		robust = plan.RobustPolicy{Kind: plan.RobustNormBound, ClipNorm: cfg.ClipNorm}
	}
	p, err := plan.Generate(plan.Config{
		TaskID: pop + "/train", Population: pop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: cfg.Features, Classes: 3, Seed: 1},
		StoreName: pop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: cfg.TargetDevices, MinReportFraction: 0.5,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 20 * time.Second,
		Robust: robust,
	})
	if err != nil {
		return stats, err
	}
	// Generate mirrors the norm bound into the device plan so honest
	// devices pre-clip; that would put every shipped norm exactly at
	// clip×weight and leave the edge's re-clip decision to float noise.
	// The bench measures the server-side enforcement path, so keep the
	// devices honest-but-unclipped: every over-bound report must then be
	// clipped at the edge, deterministically.
	p.Device.ClipNorm = 0
	fed, err := data.Blobs(data.BlobsConfig{
		Users: cfg.Devices, ExamplesPer: 20, Features: cfg.Features, Classes: 3,
		TestSize: 10, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return stats, err
	}

	store := storage.NewMem()
	coord, err := NewCoordinatorProc(CoordinatorConfig{
		Population: pop,
		Plans:      []*plan.Plan{p},
		Store:      store,
		Steering:   pacing.New(time.Second),
		MaxRounds:  cfg.Rounds,
		MinShards:  cfg.Shards,
		SealGrace:  2 * time.Second,
	})
	if err != nil {
		return stats, err
	}
	defer coord.Close()

	// Wire the topology: one coordinator listener the shards dial, one
	// device listener per shard the swarm dials.
	mem := transport.NewMemNetwork()
	coordL, coordDial, err := flserver.Listen(cfg.TCP, mem, "coord")
	if err != nil {
		return stats, err
	}
	defer coordL.Close()
	go coord.Serve(coordL)

	shards := make([]*SelectorProc, cfg.Shards)
	shardDials := make([]func() (transport.Conn, error), cfg.Shards)
	for i := range shards {
		sp := NewSelectorProc(SelectorConfig{
			Shard:              uint32(i),
			Steering:           pacing.New(time.Second),
			PopulationEstimate: cfg.Devices,
			Seed:               cfg.Seed + uint64(i)*131,
			RateProbeInterval:  700 * time.Millisecond,
		}, coordDial)
		shards[i] = sp
		defer sp.Close()
		l, dial, err := flserver.Listen(cfg.TCP, mem, fmt.Sprintf("shard-%d", i))
		if err != nil {
			return stats, err
		}
		defer l.Close()
		go sp.Serve(l)
		shardDials[i] = dial
	}

	// The device swarm, spread across shards: device i homes on shard
	// i%Shards (fldevices' shard-aware dialing does the same round-robin
	// spread over its -addrs list).
	stop := make(chan struct{})
	var devices sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Devices; i++ {
		client, err := flserver.NewLocalDataClient(fmt.Sprintf("shard-dev-%d", i), pop, pop+"-store",
			fed.Users[i], cfg.Seed+uint64(i)+100)
		if err != nil {
			return stats, err
		}
		dial := shardDials[i%cfg.Shards]
		devices.Add(1)
		go func() {
			defer devices.Done()
			// Check-ins repeat quickly: the shard's pace steering rejects the
			// surplus; the coordinator's rate tracker sees the flow.
			client.Loop(dial, stop)
		}()
	}

	select {
	case <-coord.Done():
	case <-time.After(cfg.Timeout):
		close(stop)
		devices.Wait()
		return stats, fmt.Errorf("shard bench: %d rounds did not commit within %v", cfg.Rounds, cfg.Timeout)
	}
	stats.Elapsed = time.Since(start)
	close(stop)
	// Watchdog: a device goroutine that never exits means a connection was
	// accepted but never answered — exactly the bug class the sealed-round
	// linger exists to prevent. Fail loudly instead of hanging the bench.
	waited := make(chan struct{})
	go func() { devices.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		return stats, fmt.Errorf("shard bench: device goroutines leaked after rounds committed")
	}

	cs, err := coord.Stats()
	if err != nil {
		return stats, err
	}
	stats.Rounds = cs.RoundsCompleted
	stats.SealsReceived = cs.SealsReceived
	stats.BytesUpstream = cs.BytesUpstream
	stats.Clipped = cs.Clipped
	stats.PerShard = coord.PerShardStats()
	for _, sp := range shards {
		ss, err := sp.Stats()
		if err != nil {
			return stats, err
		}
		stats.Accepted += ss.Selector.Accepted
	}
	if _, err := store.LatestCheckpoint(p.ID); err != nil {
		return stats, fmt.Errorf("shard bench: no committed checkpoint: %w", err)
	}
	return stats, nil
}
