package flserver

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// listen opens a listener — on loopback TCP, or on a fresh in-memory network
// — and returns it with a matching dialer.
func listen(tcp bool) (transport.Listener, func() (transport.Conn, error), error) {
	if tcp {
		l, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		addr := l.Addr()
		return l, func() (transport.Conn, error) { return transport.DialTCP(addr) }, nil
	}
	net := transport.NewMemNetwork()
	l, err := net.Listen("bench")
	if err != nil {
		return nil, nil, err
	}
	return l, func() (transport.Conn, error) { return net.Dial("bench") }, nil
}

// benchRoundConfig parametrizes one synthetic round for the round-pipeline
// tests: K devices check in, receive the plan plus a dim-sized global
// checkpoint, and report a dim-sized update, exercising the full
// Configuration fan-out → wire → Reporting ingest pipeline without any
// on-device training.
type benchRoundConfig struct {
	// Devices is K, the number of reports the round needs to commit.
	Devices int
	// Dim is the parameter count of the global checkpoint and of every
	// device update.
	Dim int
	// TCP moves every message over real loopback sockets instead of the
	// in-memory transport.
	TCP bool
	// MixedVersions makes half the fleet run runtime version 1, forcing the
	// server to derive and marshal a lowered plan alongside the current one.
	MixedVersions bool
	// Encoding is the uplink encoding devices report with (the
	// plan.Server.ReportEncoding knob); 0 means full float64.
	Encoding checkpoint.Encoding
	// Secure runs the round under Secure Aggregation (group size
	// min(Devices, 8)), exercising the pooled per-device input path.
	Secure bool
	// DistinctUpdates gives every device its own update (scaled by device
	// index) and weight instead of one shared payload, so the committed
	// checkpoint discriminates mis-aggregation; used by the
	// edge-accumulation equivalence tests.
	DistinctUpdates bool
	// Robust selects the task's robust aggregation policy (the
	// plan.Server.Robust knob). Per-update policies need a float64 or
	// QuantSafe Encoding, exactly as a real plan would.
	Robust plan.RobustPolicy
	// Attackers marks the first N devices as scaled-update adversaries:
	// their reported update is AttackScale × their honest payload. Implies
	// DistinctUpdates so defenses have per-device signal to act on.
	Attackers   int
	AttackScale float64
}

// benchRoundResult describes one completed synthetic round.
type benchRoundResult struct {
	Completed int
	Lost      int
	// PlanMarshals is how many times the round marshaled a plan during
	// Configuration (O(distinct versions), not O(devices)).
	PlanMarshals int64
	Elapsed      time.Duration
	// Committed is the checkpoint the round committed (nil if the plan's
	// apply step failed before storage); equivalence tests compare it
	// against a serial reference fold.
	Committed *checkpoint.Checkpoint
	// Clipped counts updates the norm-bound policy clipped at the edge;
	// RobustRejected carries the round's defense attributions
	// ("deviceID: reason").
	Clipped        int
	RobustRejected []string
}

// runBenchRound drives one round through a real Server (Selectors,
// Coordinator, local edge) and real transport connections: a goroutine per
// device checks in and answers the CheckinResponse with a pre-marshaled
// update. Used by the -race fan-out/ingest, edge-accumulation and robust
// round tests.
func runBenchRound(cfg benchRoundConfig) (benchRoundResult, error) {
	var stats benchRoundResult
	if cfg.Devices <= 0 || cfg.Dim <= 0 {
		return stats, fmt.Errorf("benchround: Devices and Dim must be positive")
	}
	enc := cfg.Encoding
	if enc == 0 {
		enc = checkpoint.EncodingFloat64
	}
	groupSize := 0
	if cfg.Secure {
		groupSize = 8
		if cfg.Devices < groupSize {
			groupSize = cfg.Devices
		}
		if groupSize < 2 {
			return stats, fmt.Errorf("benchround: secure round needs ≥ 2 devices")
		}
	}
	p, err := plan.Generate(plan.Config{
		TaskID:     "bench/roundtput",
		Population: "bench",
		Model:      nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName:  "bench", BatchSize: 10, Epochs: 1, LearningRate: 0.1,
		TargetDevices:     cfg.Devices,
		OverSelectFactor:  1.0,
		MinReportFraction: 0.8,
		SelectionTimeout:  time.Minute,
		ReportTimeout:     5 * time.Minute,
		ReportEncoding:    enc,
		SecureAggregation: cfg.Secure,
		SecAggGroupSize:   groupSize,
		Robust:            cfg.Robust,
		// Fused ops force version-1 devices onto a distinct lowered plan.
		UseFusedOps: cfg.MixedVersions,
	})
	if err != nil {
		return stats, err
	}
	// The round takes its dimension from the stored global checkpoint, so
	// the model spec above stays tiny while the wire payloads scale.
	global := &checkpoint.Checkpoint{TaskName: p.ID, Round: 0, Params: make(tensor.Vector, cfg.Dim)}
	upd := &checkpoint.Checkpoint{TaskName: p.ID, Round: 0, Weight: 1, Params: make(tensor.Vector, cfg.Dim)}
	for i := range upd.Params {
		upd.Params[i] = float64(i%7) * 0.25
	}
	// One shared payload by default; distinct per-device payloads on request.
	updBytes := make([][]byte, cfg.Devices)
	shared, err := upd.Marshal(enc)
	if err != nil {
		return stats, err
	}
	distinct := cfg.DistinctUpdates || cfg.Attackers > 0
	for i := range updBytes {
		if !distinct {
			updBytes[i] = shared
			continue
		}
		u := &checkpoint.Checkpoint{TaskName: p.ID, Round: 0, Weight: float64(1 + i%3),
			Params: make(tensor.Vector, cfg.Dim)}
		for j := range u.Params {
			u.Params[j] = float64(i+1) * (float64(j%7)*0.25 - 0.5)
		}
		if i < cfg.Attackers {
			u.Params.Scale(cfg.AttackScale)
		}
		if updBytes[i], err = u.Marshal(enc); err != nil {
			return stats, err
		}
	}

	store := storage.NewMem()
	if err := store.PutCheckpoint(global); err != nil {
		return stats, err
	}
	outcomes := make(chan roundOutcome, 1)
	srv, err := newServer(Config{
		Population: "bench", Plans: []*plan.Plan{p}, Store: store,
		Steering: pacing.New(time.Second), PopulationEstimate: cfg.Devices, MaxRounds: 1,
	}, nil, func(out roundOutcome) {
		select {
		case outcomes <- out:
		default: // only the first round is measured
		}
	})
	if err != nil {
		return stats, err
	}
	defer srv.Close()

	if cfg.TCP {
		// Both ends of every connection live in this process: 2K sockets
		// plus headroom for the listener, test harness, and runtime.
		if err := ensureFDLimit(2*uint64(cfg.Devices) + 64); err != nil {
			return stats, fmt.Errorf("benchround: %w", err)
		}
	}
	l, dial, err := listen(cfg.TCP)
	if err != nil {
		return stats, err
	}
	defer l.Close()
	go srv.Serve(l)

	// One goroutine per device: check in (again, while a Selector has no
	// quota for it yet), await the CheckinResponse, report the pre-marshaled
	// update, read the ack.
	stop := make(chan struct{})
	device := func(i int) {
		id := fmt.Sprintf("bench-%d", i)
		version := 3
		if cfg.MixedVersions && i%2 == 1 {
			version = 1
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := dial()
			if err != nil {
				return
			}
			_ = conn.Send(protocol.CheckinRequest{DeviceID: id, Population: "bench", RuntimeVersion: version})
			msg, err := conn.Recv()
			if resp, ok := msg.(protocol.CheckinResponse); err == nil && ok && resp.Accepted {
				_ = conn.Send(protocol.ReportRequest{
					DeviceID: id,
					TaskID:   resp.TaskID,
					Round:    resp.Round,
					Update:   updBytes[i],
					Metrics:  map[string]float64{"train_loss": 0.5},
				})
				_, _ = conn.Recv()
				conn.Close()
				return
			}
			conn.Close()
			time.Sleep(time.Millisecond)
		}
	}
	marshalsBefore := obsPlanMarshals.Value()
	start := time.Now()
	var devices sync.WaitGroup
	devices.Add(cfg.Devices)
	for i := 0; i < cfg.Devices; i++ {
		go func(i int) {
			defer devices.Done()
			device(i)
		}(i)
	}
	defer func() {
		close(stop)
		devices.Wait()
	}()

	select {
	case out := <-outcomes:
		stats.Elapsed = time.Since(start)
		stats.PlanMarshals = obsPlanMarshals.Value() - marshalsBefore
		if out.Committed == nil {
			return stats, fmt.Errorf("benchround: round failed: %s", out.FailReason)
		}
		stats.Completed = out.Completed
		stats.Lost = out.Lost
		stats.Committed = out.Committed
		stats.Clipped = out.Clipped
		stats.RobustRejected = out.RobustRejected
	case <-time.After(5 * time.Minute):
		return stats, fmt.Errorf("benchround: round timed out")
	}
	return stats, nil
}
