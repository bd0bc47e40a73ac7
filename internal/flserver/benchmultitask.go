package flserver

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// BenchMultiTaskConfig parametrizes one multi-task run for
// BenchmarkMultiTask and `flbench -exp multitask`: ONE population whose
// TaskSet interleaves a train task with an eval task submitted onto the
// live server (Sec. 7 model-engineer workflow), driven by a shared device
// fleet through the real round pipeline.
type BenchMultiTaskConfig struct {
	// Devices is the device fleet size (default 9).
	Devices int
	// TargetDevices is K per round for both tasks (default 3).
	TargetDevices int
	// TrainRounds is the committed train rounds the run must reach
	// (default 4).
	TrainRounds int
	// EvalEvery is the eval task's cadence in committed train rounds
	// (default 2).
	EvalEvery int
	// TCP moves every message over real loopback sockets instead of the
	// in-memory transport.
	TCP  bool
	Seed uint64
	// Timeout bounds the whole run (default 2 minutes).
	Timeout time.Duration
}

// BenchMultiTaskStats describes one completed multi-task run.
type BenchMultiTaskStats struct {
	// PerTask is every task's lifecycle record at the end of the run.
	PerTask []tasks.Stats
	// RoundsPerSec maps task ID to committed rounds per wall-clock second.
	RoundsPerSec map[string]float64
	Elapsed      time.Duration
}

// RunBenchMultiTask drives one population running an interleaved train +
// eval task set to cfg.TrainRounds committed train rounds. The eval task
// is submitted through the live SubmitTask API after training starts, so
// the harness exercises the full lifecycle path, not just the scheduler.
func RunBenchMultiTask(cfg BenchMultiTaskConfig) (BenchMultiTaskStats, error) {
	var stats BenchMultiTaskStats
	if cfg.Devices <= 0 {
		cfg.Devices = 9
	}
	if cfg.TargetDevices <= 0 {
		cfg.TargetDevices = 3
	}
	if cfg.TrainRounds <= 0 {
		cfg.TrainRounds = 4
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.Devices < cfg.TargetDevices {
		return stats, fmt.Errorf("multitask bench: %d devices cannot satisfy K=%d", cfg.Devices, cfg.TargetDevices)
	}

	const pop = "bench-mt"
	base := plan.Config{
		Population: pop,
		Model:      nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName:  pop + "-store", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: cfg.TargetDevices, MinReportFraction: 0.7,
		SelectionTimeout: 30 * time.Second, ReportTimeout: time.Minute,
	}
	trainCfg := base
	trainCfg.TaskID = pop + "/train"
	trainPlan, err := plan.Generate(trainCfg)
	if err != nil {
		return stats, err
	}
	evalCfg := base
	evalCfg.TaskID = pop + "/eval"
	evalCfg.Type = plan.TaskEval
	evalCfg.BatchSize, evalCfg.Epochs, evalCfg.LearningRate = 0, 0, 0
	evalPlan, err := plan.Generate(evalCfg)
	if err != nil {
		return stats, err
	}

	srv, err := New(Config{
		Population: pop, Plans: []*plan.Plan{trainPlan}, Store: storage.NewMem(),
		Steering: pacing.New(time.Second), Seed: cfg.Seed,
	})
	if err != nil {
		return stats, err
	}
	defer srv.Close()

	l, dial, err := Listen(cfg.TCP, transport.NewMemNetwork(), pop)
	if err != nil {
		return stats, err
	}
	defer l.Close()
	go srv.Serve(l)

	fed, err := data.Blobs(data.BlobsConfig{
		Users: cfg.Devices, ExamplesPer: 20, Features: 4, Classes: 3,
		TestSize: 10, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return stats, err
	}
	stop := make(chan struct{})
	var devices sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Devices; i++ {
		client, err := NewLocalDataClient(fmt.Sprintf("mt-dev-%d", i), pop, pop+"-store", fed.Users[i], cfg.Seed+uint64(i)+100)
		if err != nil {
			return stats, err
		}
		devices.Add(1)
		go func() {
			defer devices.Done()
			client.Loop(dial, stop)
		}()
	}
	defer func() {
		close(stop)
		devices.Wait()
	}()

	// Deploy the eval task onto the live server once training is in
	// flight, then wait for TrainRounds MORE committed train rounds — the
	// cadence window the eval task paces against.
	deadline := time.Now().Add(cfg.Timeout)
	trainRounds := func() (int, error) {
		sts, err := srv.TaskStats()
		if err != nil {
			return 0, err
		}
		for _, st := range sts {
			if st.ID == trainPlan.ID {
				return st.RoundsCommitted, nil
			}
		}
		return 0, fmt.Errorf("multitask bench: train task missing from TaskStats")
	}
	trainAtSubmit := 0
	for {
		if time.Now().After(deadline) {
			return stats, fmt.Errorf("multitask bench: training never started within %v", cfg.Timeout)
		}
		n, err := trainRounds()
		if err != nil {
			return stats, err
		}
		if n >= 1 {
			trainAtSubmit = n
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.SubmitTask(evalPlan, tasks.Policy{EvalEvery: cfg.EvalEvery, EvalOf: trainPlan.ID}); err != nil {
		return stats, err
	}
	for {
		if time.Now().After(deadline) {
			return stats, fmt.Errorf("multitask bench: train task did not commit %d more rounds within %v", cfg.TrainRounds, cfg.Timeout)
		}
		n, err := trainRounds()
		if err != nil {
			return stats, err
		}
		if n >= trainAtSubmit+cfg.TrainRounds {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats.Elapsed = time.Since(start)

	sts, err := srv.TaskStats()
	if err != nil {
		return stats, err
	}
	stats.PerTask = sts
	stats.RoundsPerSec = make(map[string]float64, len(sts))
	for _, st := range sts {
		stats.RoundsPerSec[st.ID] = float64(st.RoundsCommitted) / stats.Elapsed.Seconds()
	}
	var evalSt tasks.Stats
	for _, st := range sts {
		if st.ID == evalPlan.ID {
			evalSt = st
		}
	}
	// The cadence owes roughly TrainRounds/EvalEvery eval rounds; the last
	// one may still be in flight when the train target lands.
	minEval := cfg.TrainRounds/cfg.EvalEvery - 1
	if minEval < 1 {
		minEval = 1
	}
	if evalSt.RoundsCommitted < minEval {
		return stats, fmt.Errorf("multitask bench: eval committed %d rounds, want ≥ %d (train %d, every %d)",
			evalSt.RoundsCommitted, minEval, cfg.TrainRounds, cfg.EvalEvery)
	}
	return stats, nil
}
