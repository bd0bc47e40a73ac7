package sim

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// FleetConfig sizes the fleet run behind Figs. 5–9, Table 1 and the Sec. 8
// wall-clock analysis: Devices phones, a goal count of Target per round.
type FleetConfig struct {
	Seed                  uint64
	Days, Devices, Target int
	// OverSelect is the plan's OverSelectFactor (0: the plan default, 1.3).
	OverSelect float64
}

// FleetRun is one fleet run: the product's Coordinator, Selector and
// EdgeRound over a MemNetwork, serving device.Sessions whose check-ins,
// training time and drop-outs the population model schedules, all on one
// virtual clock. Every operational figure, and the wall-clock analysis,
// reads the same run.
type FleetRun struct {
	EngineRun
	Days int
	// Samples are taken every SampleEvery.
	Samples []Sample
	// Spans summarizes configured sessions, from configuration to their
	// end, in seconds.
	Spans *metrics.Summary
	// Metrics counts, under the names /metrics serves, the shapes of the
	// configured sessions (metrics.SessionShapes) and the bytes their links
	// carried: plan and checkpoint down (metrics.NetTxBytes), updates up
	// (metrics.NetRxBytes).
	Metrics *metrics.Registry
	// Test is held-out data of the task the devices train.
	Test []nn.Example

	// What the run's devices share.
	clock         actor.Clock
	pop           *population.Model
	users         *data.BlobsGen
	seed          uint64
	end           time.Time
	participating atomic.Int64
}

// SampleEvery is the fleet run's sampling cadence.
const SampleEvery = 10 * time.Minute

// Sample is one observation of the run (Fig. 6).
type Sample struct {
	T time.Time
	// Waiting is the devices the Selectors park (SelectorStats.Pooled);
	// Participating the devices in a configured session.
	Waiting, Participating int
	// Available is the population model's eligible share of the fleet at T.
	Available float64
}

// Every device holds fleetExamples examples of its own, drawn non-IID, and
// trains for perExampleCost per example at median speed.
const (
	fleetExamples  = 20
	perExampleCost = 1500 * time.Millisecond
)

// RunFleet runs cfg.Days of a fleet against the round engine.
func RunFleet(cfg FleetConfig) (*FleetRun, error) {
	if cfg.Days < 1 || cfg.Devices < 1 || cfg.Target < 1 {
		return nil, fmt.Errorf("sim: a fleet run needs at least one day, device and device per round, got %d, %d and %d",
			cfg.Days, cfg.Devices, cfg.Target)
	}
	p, err := plan.Generate(plan.Config{
		TaskID: "gboard/next-word", Population: "gboard",
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 8, Classes: 4, Seed: 1},
		StoreName: "typed", BatchSize: 10, Epochs: 1, LearningRate: 0.1,
		TargetDevices: cfg.Target, OverSelectFactor: cfg.OverSelect, SelectionTimeout: time.Minute,
		ReportTimeout: 2 * time.Minute, MinReportFraction: 0.7,
	})
	if err != nil {
		return nil, err
	}
	pop, err := population.New(population.Config{Size: cfg.Devices, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// Device i holds user i of a non-IID dataset, drawn for each session.
	users, err := data.NewBlobs(data.BlobsConfig{Users: cfg.Devices, ExamplesPer: fleetExamples, Features: 8, Classes: 4,
		TestSize: 600, Skew: 1, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	r, log, err := start(p)
	if err != nil {
		return nil, err
	}
	run := &FleetRun{EngineRun: *r, Days: cfg.Days, Test: users.Test(),
		Spans: metrics.NewSummary(), Metrics: metrics.NewRegistry(), pop: pop, users: users, seed: cfg.Seed}
	// Pace steering is sized by the devices that check in: the fleet's mean
	// eligible share.
	estimate := int(pop.MeanAvailability() * float64(cfg.Devices))
	rig, err := chaos.NewRig(chaos.RigConfig{Plan: p, Store: log, PopulationEstimate: estimate, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	log.clock, run.clock, run.Start = rig.Clock, rig.Clock, rig.Clock.Now()
	run.end = run.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	rng := tensor.NewRNG(cfg.Seed)
	for i := range pop.Devices {
		// The first wake-ups spread over one mean steering wait.
		d := &fleetDevice{FleetRun: run, dev: &pop.Devices[i], id: fmt.Sprintf("gboard-%d", i), rng: rng.Derive(uint64(i)),
			hint: rig.Steering.MeanWait(estimate, p.Server.SelectTarget(), run.Start)}
		rig.Device(i, d.untilEligible(time.Duration(d.rng.Float64()*float64(d.hint))), d.session)
	}
	for t := run.Start.Add(SampleEvery); !t.After(run.end); t = t.Add(SampleEvery) {
		// Run stops short of its horizon only on a failure.
		if err := rig.Clock.Run(SampleEvery, nil); rig.Clock.Now().Before(t) {
			return nil, err
		}
		sel, err := rig.Selectors()
		if err != nil {
			return nil, err
		}
		run.Samples = append(run.Samples, Sample{T: t, Waiting: sel.Pooled,
			Participating: int(run.participating.Load()), Available: pop.Availability(t)})
	}
	// The rounds in flight settle once the devices stop checking in.
	if err := rig.StopDevices(time.Hour); err != nil {
		return nil, err
	}
	run.settle(log)
	return run, nil
}

// fleetDevice is one phone: a product device.Client per session, checking
// in whenever the population model finds it eligible at a wake-up.
type fleetDevice struct {
	*FleetRun
	dev *population.Device
	id  string
	rng *tensor.RNG // the device's own: sessions run concurrently
	// hint is the last pace-steering hint the device was given: it wakes
	// that often.
	hint time.Duration
}

// session runs one check-in and returns the rest until the device's next.
func (d *fleetDevice) session(dial func() (transport.Conn, error)) time.Duration {
	rt := device.NewRuntime(d.id, 3, nil, d.seed+d.rng.Uint64())
	_ = rt.RegisterStore(userStore{FleetRun: d.FleetRun, user: d.dev.ID})
	client := &device.Client{ID: d.id, Population: d.Plan.Population, Runtime: rt, Clock: d.clock}
	if conn, err := dial(); err == nil {
		out, _ := client.RunOnce(&trainLink{Conn: conn, d: d, elig: rt.Eligibility,
			train: d.pop.TrainDuration(d.dev, fleetExamples, perExampleCost)})
		if out.RetryAfter > 0 {
			d.hint = out.RetryAfter
		}
		if out.Accepted {
			d.Metrics.Counter(metrics.Label(metrics.SessionShapes, "shape", out.SessionShape)).Inc()
		}
	}
	return d.untilEligible(d.hint)
}

// userStore is a fleet device's example store, holding its user's examples:
// they are drawn when training selects them, so a device turned away at
// check-in draws none.
type userStore struct {
	*FleetRun
	user int
}

func (s userStore) Name() string { return s.Plan.Device.Selection.StoreName }
func (s userStore) Count() int   { return fleetExamples }

func (s userStore) Select(plan.SelectionCriteria, time.Time) []nn.Example {
	return s.users.User(s.user)
}

// untilEligible is the rest until the device's next check-in: it wakes
// after first and then every hint, and checks in at the first wake-up at
// which the population model finds it eligible (none past the run's end).
func (d *fleetDevice) untilEligible(first time.Duration) time.Duration {
	now, rest := d.clock.Now(), first
	for d.rng.Float64() >= d.pop.Availability(now.Add(rest)) && now.Add(rest).Before(d.end) {
		rest += d.hint
	}
	return rest
}

// trainLink is a device's end of its link, the way the flserver tests model
// stragglers. Training takes the device's TrainDuration on the clock, cut at
// the report deadline the configuration carries: the report leaves that
// long after the configuration arrived. At the population model's
// DropoutProb the device loses eligibility somewhere inside its training,
// and its runtime ends the session.
type trainLink struct {
	transport.Conn
	d          *fleetDevice
	elig       *device.Eligibility
	train      time.Duration
	configured time.Time
}

// Recv implements transport.Conn.
func (l *trainLink) Recv() (interface{}, error) {
	msg, err := l.Conn.Recv()
	if resp, ok := msg.(protocol.CheckinResponse); ok && resp.Accepted {
		d := l.d
		d.Metrics.Counter(metrics.NetTxBytes).Add(int64(len(resp.Plan) + len(resp.Checkpoint)))
		d.participating.Add(1)
		l.configured, l.train = d.clock.Now(), min(l.train, resp.ReportDeadline)
		if d.rng.Float64() < d.pop.DropoutProb(l.configured) {
			actor.Sleep(d.clock, time.Duration(d.rng.Float64()*float64(l.train)), nil)
			l.elig.Set(device.Conditions{})
		}
	}
	return msg, err
}

// Send implements transport.Conn.
func (l *trainLink) Send(msg interface{}) error {
	r, report := msg.(protocol.ReportRequest)
	if report {
		actor.Sleep(l.d.clock, l.train-l.d.clock.Now().Sub(l.configured), nil)
	}
	err := l.Conn.Send(msg)
	if report && err == nil {
		l.d.Metrics.Counter(metrics.NetRxBytes).Add(int64(len(r.Update)))
	}
	return err
}

// Close implements transport.Conn, ending a configured session's span (a
// session closes its link once, as it ends).
func (l *trainLink) Close() error {
	if !l.configured.IsZero() {
		l.d.participating.Add(-1)
		l.d.Spans.ObserveDuration(l.d.clock.Now().Sub(l.configured))
	}
	return l.Conn.Close()
}
