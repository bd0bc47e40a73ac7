// Package sim is the discrete-event simulation harness behind the paper's
// operational figures (Figs. 5–9, Table 1). It wires the population model
// (diurnal availability, drop-out, device speed), the FL plan's round
// parameters (goal counts, over-selection, timeouts, straggler cap), pace
// steering, and the device session log, then runs simulated days in
// milliseconds. Model training is optional: the operational figures depend
// on protocol dynamics, not on gradient values, so by default rounds move
// synthetic checkpoints; the convergence experiments use fedavg.Trainer
// directly instead.
package sim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/population"
	"repro/internal/simclock"
	"repro/internal/tensor"
)

// Config configures one simulation run.
type Config struct {
	Population population.Config
	Plan       *plan.Plan
	// Duration is the simulated wall-clock span (e.g. 72h for Fig. 6).
	Duration time.Duration
	// Start is the simulated start time.
	Start time.Time
	// PerExampleCost is the median device's training cost per example.
	PerExampleCost time.Duration
	// ExamplesPerDevice is the local dataset size used for timing and
	// update weights.
	ExamplesPerDevice int
	// RoundPause separates a round's commit from the next selection phase
	// (0 = back-to-back; the Selector pipelining of Sec. 4.3 is modelled by
	// starting selection in parallel with reporting when Pipelining is on).
	RoundPause time.Duration
	// Pipelining runs the next round's selection during the current round's
	// reporting phase (Sec. 4.3).
	Pipelining bool
	// AdaptiveWindow implements the Sec. 11 future-work item: instead of a
	// statically configured reporting window, the server tunes the window
	// to the observed distribution of device reporting times (1.1 × P90,
	// clamped to [SelectionTimeout, ReportTimeout]), cutting the time spent
	// waiting for stragglers and increasing round frequency.
	AdaptiveWindow bool
	// SampleEvery is the cadence of the availability/participation sampler
	// (default 1h).
	SampleEvery time.Duration
	Seed        uint64
}

// RoundStats records one attempted round.
type RoundStats struct {
	Round     int64
	Start     time.Time
	End       time.Time
	Succeeded bool
	Selected  int
	Completed int
	Aborted   int
	Dropped   int // lost to drop-out / eligibility change
	Late      int // reported after the window closed ('#')
	// RunTime is the selection-to-commit duration.
	RunTime time.Duration
	// ParticipationTimes are per-device times from acceptance to the end of
	// their involvement (capped by the server, Fig. 8).
	ParticipationTimes []time.Duration
}

// Sample is one sampler observation (Fig. 6 top panel).
type Sample struct {
	T time.Time
	// Available is the expected fraction of the fleet that is eligible.
	Available float64
	// Participating is the number of devices inside an active round.
	Participating int
	// Waiting approximates devices connected but not selected.
	Waiting int
	// CompletionRate is rounds committed in the last sample window.
	CompletionRate int
	// FailureRate is rounds abandoned in the last sample window.
	FailureRate int
}

// Results aggregates everything the experiments need.
type Results struct {
	Rounds  []RoundStats
	Samples []Sample
	// Metrics counts what Table 1 and Fig. 9 read, under the names /metrics
	// serves: metrics.SessionShapes by shape, and metrics.NetTxBytes and
	// metrics.NetRxBytes for the server's download and upload traffic.
	Metrics *metrics.Registry
	// RunTimeSummary and ParticipationSummary are the Fig. 8 distributions.
	RunTimeSummary       metrics.Snapshot
	ParticipationSummary metrics.Snapshot
	// FinalRound is the last committed round number.
	FinalRound int64
}

// CompletedRounds counts successful rounds.
func (r *Results) CompletedRounds() int {
	n := 0
	for _, rs := range r.Rounds {
		if rs.Succeeded {
			n++
		}
	}
	return n
}

// sim is the running state.
type sim struct {
	cfg   Config
	clock *simclock.Virtual
	pop   *population.Model
	rng   *tensor.RNG

	reg     *metrics.Registry
	tx, rx  *metrics.Counter
	shapes  map[string]*metrics.Counter // reg's session-shape counters, resolved once each
	runSum  *metrics.Summary
	partSum *metrics.Summary
	rounds  []RoundStats
	samples []Sample
	round   int64

	participating       int
	completedThisSample int
	failedThisSample    int

	// finishP90 tracks the distribution of device reporting times for the
	// adaptive window.
	finishP90 *metrics.Quantile

	planWire int
	ckptWire int
	updWire  int
}

// Run executes the simulation and returns its results.
func Run(cfg Config) (*Results, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("sim: Plan is required")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration")
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.PerExampleCost == 0 {
		cfg.PerExampleCost = 200 * time.Millisecond
	}
	if cfg.ExamplesPerDevice == 0 {
		cfg.ExamplesPerDevice = 100
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = time.Hour
	}
	pop, err := population.New(cfg.Population)
	if err != nil {
		return nil, err
	}

	// Wire sizes for the Fig. 9 traffic asymmetry: plan + checkpoint go
	// down, an update comes up, each in the encoding the plan resolves.
	m, err := cfg.Plan.Device.Model.Build()
	if err != nil {
		return nil, err
	}
	dim := m.NumParams()
	ck := &checkpoint.Checkpoint{TaskName: cfg.Plan.ID, Params: make(tensor.Vector, dim)}

	p90, err := metrics.NewQuantile(0.9)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	s := &sim{
		cfg:       cfg,
		clock:     simclock.New(cfg.Start),
		pop:       pop,
		rng:       tensor.NewRNG(cfg.Seed),
		reg:       reg,
		tx:        reg.Counter(metrics.NetTxBytes),
		rx:        reg.Counter(metrics.NetRxBytes),
		shapes:    make(map[string]*metrics.Counter),
		runSum:    metrics.NewSummary(),
		partSum:   metrics.NewSummary(),
		finishP90: p90,
		planWire:  cfg.Plan.WireSize(),
		ckptWire:  ck.WireSize(cfg.Plan.DownlinkEncoding()),
		updWire:   ck.WireSize(cfg.Plan.UplinkEncoding()),
	}

	end := cfg.Start.Add(cfg.Duration)
	s.clock.AfterFunc(0, func() { s.startRound(end) })
	s.clock.AfterFunc(cfg.SampleEvery, func() { s.sample(end) })
	s.clock.Advance(cfg.Duration)

	return &Results{
		Rounds:               s.rounds,
		Samples:              s.samples,
		Metrics:              s.reg,
		RunTimeSummary:       s.runSum.Snapshot(),
		ParticipationSummary: s.partSum.Snapshot(),
		FinalRound:           s.round,
	}, nil
}

// sample records the Fig. 6 style observation and reschedules itself.
func (s *sim) sample(end time.Time) {
	now := s.clock.Now()
	avail := s.pop.Availability(now)
	// Waiting devices: the connected-but-not-selected pool. Pace steering
	// keeps the connected pool proportional to availability.
	connected := int(0.25 * avail * float64(len(s.pop.Devices)))
	waiting := connected - s.participating
	if waiting < 0 {
		waiting = 0
	}
	s.samples = append(s.samples, Sample{
		T:              now,
		Available:      avail,
		Participating:  s.participating,
		Waiting:        waiting,
		CompletionRate: s.completedThisSample,
		FailureRate:    s.failedThisSample,
	})
	s.completedThisSample, s.failedThisSample = 0, 0
	if now.Add(s.cfg.SampleEvery).Before(end) {
		s.clock.AfterFunc(s.cfg.SampleEvery, func() { s.sample(end) })
	}
}

// deviceRun is one selected device's simulated fate.
type deviceRun struct {
	dev      *population.Device
	dropped  bool
	dropAt   time.Duration // offset from round start when it dropped
	finishAt time.Duration // offset when its report would arrive
}

// startRound simulates one complete round attempt, then schedules the next.
func (s *sim) startRound(end time.Time) {
	now := s.clock.Now()
	if !now.Before(end) {
		return
	}
	sp := s.cfg.Plan.Server
	target := sp.SelectTarget()

	// Selection phase: sample available devices. The selection window
	// bounds how long we wait for the goal count; with a large fleet the
	// pool fills instantly, with a small one availability limits it.
	selected := s.pop.Sample(target, now, s.rng)
	selDur := time.Duration(float64(sp.SelectionTimeout) * 0.1)
	if len(selected) < target {
		selDur = sp.SelectionTimeout
	}

	if len(selected) < sp.MinReports() {
		// Abandoned round: not enough devices checked in.
		s.failedThisSample++
		s.rounds = append(s.rounds, RoundStats{
			Round: s.round, Start: now, End: now.Add(selDur),
			Succeeded: false, Selected: len(selected),
		})
		s.clock.AfterFunc(selDur+s.retryPause(), func() { s.startRound(end) })
		return
	}

	// Configuration + Reporting: compute each device's fate.
	runs := make([]deviceRun, len(selected))
	for i, dev := range selected {
		r := deviceRun{dev: dev}
		trainTime := s.pop.TrainDuration(dev, s.cfg.ExamplesPerDevice, s.cfg.PerExampleCost)
		// Network overhead: download + upload latencies folded into a small
		// constant plus jitter.
		netTime := time.Duration((1 + s.rng.Float64()) * float64(5*time.Second))
		r.finishAt = trainTime + netTime
		if s.rng.Float64() < s.pop.DropoutProb(dev, now) {
			r.dropped = true
			// Drop-out happens somewhere inside the device's run.
			r.dropAt = time.Duration(s.rng.Float64() * float64(r.finishAt))
		}
		runs[i] = r
	}

	// The round commits when the K-th successful report arrives (or the
	// window closes). Sort successful finishers by finish time.
	finish := make([]time.Duration, 0, len(runs))
	for _, r := range runs {
		if !r.dropped {
			finish = append(finish, r.finishAt)
			s.finishP90.Add(r.finishAt.Seconds())
		}
	}
	sort.Slice(finish, func(i, j int) bool { return finish[i] < finish[j] })

	window := sp.ReportTimeout
	if s.cfg.AdaptiveWindow && s.finishP90.Count() >= 50 {
		adaptive := time.Duration(1.1 * s.finishP90.Value() * float64(time.Second))
		if adaptive < sp.SelectionTimeout {
			adaptive = sp.SelectionTimeout
		}
		if adaptive < window {
			window = adaptive
		}
	}
	var commitAt time.Duration
	completed := 0
	switch {
	case len(finish) >= sp.TargetDevices && finish[sp.TargetDevices-1] <= window:
		commitAt = finish[sp.TargetDevices-1]
		completed = sp.TargetDevices
	default:
		// Window closes; count reports that made it.
		for _, f := range finish {
			if f <= window {
				completed++
			}
		}
		commitAt = window
	}

	succeeded := completed >= sp.MinReports()
	stats := RoundStats{
		Round: s.round, Start: now, Succeeded: succeeded,
		Selected: len(runs), Completed: 0,
	}

	// Classify every selected device and log its session shape.
	reported := 0
	for _, r := range runs {
		s.tx.Add(int64(s.planWire + s.ckptWire))
		session := &device.Session{}
		session.Log(device.StateCheckin)
		session.Log(device.StateDownloadedPlan)
		session.Log(device.StateTrainStarted)
		part := r.finishAt
		switch {
		case r.dropped:
			session.Log(device.StateInterrupted)
			stats.Dropped++
			part = r.dropAt
		case r.finishAt <= commitAt && reported < completed:
			session.Log(device.StateTrainCompleted)
			session.Log(device.StateUploadStarted)
			session.Log(device.StateUploadDone)
			s.rx.Add(int64(s.updWire))
			stats.Completed++
			reported++
		case r.finishAt <= window:
			// Finished inside the window but after the round committed:
			// over-selected, upload rejected.
			session.Log(device.StateTrainCompleted)
			session.Log(device.StateUploadStarted)
			session.Log(device.StateUploadRejected)
			s.rx.Add(int64(s.updWire))
			stats.Aborted++
			part = commitAt
		default:
			// Straggler past the cap: server cut it off ('#' after the
			// window; participation capped, Fig. 8).
			session.Log(device.StateTrainCompleted)
			session.Log(device.StateUploadStarted)
			session.Log(device.StateUploadRejected)
			stats.Late++
			part = window
		}
		if part > sp.ParticipationCap {
			part = sp.ParticipationCap
		}
		shape := session.Shape()
		if s.shapes[shape] == nil {
			s.shapes[shape] = s.reg.Counter(metrics.Label(metrics.SessionShapes, "shape", shape))
		}
		s.shapes[shape].Inc()
		s.partSum.Observe(part.Seconds())
		stats.ParticipationTimes = append(stats.ParticipationTimes, part)
	}

	roundTime := selDur + commitAt
	stats.RunTime = roundTime
	stats.End = now.Add(roundTime)
	if succeeded {
		s.round++
		s.completedThisSample++
		s.runSum.Observe(roundTime.Seconds())
	} else {
		s.failedThisSample++
	}
	s.rounds = append(s.rounds, stats)

	// Track participation for the sampler while the round is in flight.
	s.participating += len(runs)
	s.clock.AfterFunc(roundTime, func() { s.participating -= len(runs) })

	next := roundTime + s.retryPause()
	if s.cfg.Pipelining {
		// Selection for round i+1 overlaps Configuration/Reporting of round
		// i (Sec. 4.3): the effective cadence is max(selection, reporting)
		// instead of their sum.
		next = roundTime - selDur
		if next < selDur {
			next = selDur
		}
		next += s.retryPause()
	}
	s.clock.AfterFunc(next, func() { s.startRound(end) })
}

func (s *sim) retryPause() time.Duration {
	if s.cfg.RoundPause > 0 {
		return s.cfg.RoundPause
	}
	return time.Second
}
