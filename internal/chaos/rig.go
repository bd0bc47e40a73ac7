package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flserver"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// RigConfig describes one deployment of the round engine in one process:
// sharded (one coordinator, Shards selector processes) or in-process
// (Shards == 0: one fleet, one local edge), on one virtual clock and one
// MemNetwork, serving a single task.
type RigConfig struct {
	// Faults, when set, is the schedule an Injector seeded with Seed wraps
	// every shard↔coordinator and device link in ("shard:<i>", "coord",
	// "device"); nil wraps nothing.
	Faults *Spec

	Plan               *plan.Plan
	Store              storage.Store
	PopulationEstimate int
	// MaxRounds stops scheduling after that many commits (0: never).
	MaxRounds int
	Shards    int
	Seed      uint64
}

// Rig is a running deployment plus the device swarm that dials it. Every
// goroutine of it starts on the rig's clock, so Run can tell when the rig is
// idle and jump to its next timer.
type Rig struct {
	Clock  *simclock.Virtual
	Faults *Injector
	// Steering is the product's default pace steering, a one-minute round
	// cadence, which the rig's processes steer their devices with.
	Steering *pacing.Steering
	// LinkUps and LinkDowns count, per shard, how often its coordinator link
	// came up and was declared down.
	LinkUps, LinkDowns []int64
	// Progress reads the coordinator's round counts, TaskStats its task
	// records (auto-pause notes among them), Selectors the sum of the
	// selector layer's stats.
	Progress  func() (shard.CoordStats, error)
	TaskStats func() ([]tasks.Stats, error)
	Selectors func() (flserver.SelectorStats, error)

	dials    []func() (transport.Conn, error)
	teardown []func()

	// The swarm: each resting device is one armed timer, so a device costs
	// the rig nothing between its sessions.
	mu      sync.Mutex
	stopped bool
	resting map[int]simclock.Timer
	live    atomic.Int64
}

// NewRig builds and serves the topology. Close tears it down.
func NewRig(cfg RigConfig) (*Rig, error) {
	r := &Rig{Clock: simclock.New(time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)), Steering: pacing.New(time.Minute),
		resting: make(map[int]simclock.Timer)}
	if cfg.Faults != nil {
		r.Faults = New(cfg.Seed, *cfg.Faults, r.Clock)
	}
	if err := r.serve(cfg); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *Rig) serve(cfg RigConfig) error {
	clock, inj, pop := r.Clock, r.Faults, cfg.Plan.Population
	mem := transport.NewMemNetwork(clock)
	// deviceListener opens one fault-wrapped device-facing listener.
	deviceListener := func(name string) (transport.Listener, error) {
		l, err := mem.Listen(name)
		if err != nil {
			return nil, err
		}
		r.teardown = append(r.teardown, func() { l.Close() })
		r.dials = append(r.dials, func() (transport.Conn, error) { return mem.Dial(name) })
		return inj.WrapListener(RoleDevice, l), nil
	}
	if cfg.Shards == 0 {
		fleet := flserver.NewFleet(flserver.FleetConfig{Seed: cfg.Seed, Clock: clock})
		r.teardown = append(r.teardown, fleet.Close)
		if err := fleet.Register(flserver.PopulationSpec{
			Population: pop, Plans: []*plan.Plan{cfg.Plan}, Store: cfg.Store,
			Steering: r.Steering, PopulationEstimate: cfg.PopulationEstimate, MaxRounds: cfg.MaxRounds,
		}); err != nil {
			return err
		}
		l, err := deviceListener(pop + "-server")
		if err != nil {
			return err
		}
		clock.Go(func() { fleet.Serve(l) })
		r.Progress = func() (shard.CoordStats, error) {
			st, err := fleet.PopulationStats(pop)
			c := st.Coordinator
			return shard.CoordStats{RoundsCompleted: c.RoundsCompleted, RoundsFailed: c.RoundsFailed,
				CurrentRound: c.CurrentRound, Clipped: c.Clipped}, err
		}
		r.TaskStats = func() ([]tasks.Stats, error) { return fleet.TaskStats(pop) }
		r.Selectors = func() (flserver.SelectorStats, error) {
			st, err := fleet.PopulationStats(pop)
			return st.Selector, err
		}
		return nil
	}
	coord, err := shard.NewCoordinatorProc(shard.CoordinatorConfig{
		Population: pop,
		Plans:      []*plan.Plan{cfg.Plan},
		Store:      cfg.Store,
		Steering:   r.Steering,
		MaxRounds:  cfg.MaxRounds,
		// A round opens once every shard is up, so its shares are cut for the
		// whole topology; one that loses a shard mid-round settles without it.
		MinShards: cfg.Shards,
		Clock:     clock,
	})
	if err != nil {
		return err
	}
	r.teardown = append(r.teardown, coord.Close)
	rawCoordL, err := mem.Listen(pop + "-coord")
	if err != nil {
		return err
	}
	coordL := inj.WrapListener("coord", rawCoordL)
	r.teardown = append(r.teardown, func() { coordL.Close() })
	clock.Go(func() { coord.Serve(coordL) })

	shards := make([]*shard.SelectorProc, cfg.Shards)
	r.LinkUps, r.LinkDowns = make([]int64, cfg.Shards), make([]int64, cfg.Shards)
	for i := range shards {
		dial := inj.WrapDialer(Role(fmt.Sprintf("shard:%d", i)),
			func() (transport.Conn, error) { return mem.Dial(pop + "-coord") })
		sp := shard.NewSelectorProc(shard.SelectorConfig{
			Shard:              uint32(i),
			Steering:           r.Steering,
			PopulationEstimate: cfg.PopulationEstimate,
			Seed:               cfg.Seed + uint64(i)*131,
			Peer: remote.Options{Clock: clock,
				OnUp: func() { atomic.AddInt64(&r.LinkUps[i], 1) }, OnDown: func(error) { atomic.AddInt64(&r.LinkDowns[i], 1) }},
		}, dial)
		shards[i] = sp
		l, err := deviceListener(fmt.Sprintf("%s-shard-%d", pop, i))
		if err != nil {
			return err
		}
		clock.Go(func() { sp.Serve(l) })
	}
	// Last in, first out: shards close before the coordinator's listener and
	// the coordinator itself.
	r.teardown = append(r.teardown, func() {
		for _, sp := range shards {
			sp.Close()
		}
	})
	r.Progress, r.TaskStats = coord.Stats, coord.TaskStats
	r.Selectors = func() (flserver.SelectorStats, error) {
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
	return nil
}

// Device adds device i to the swarm: session runs, on a goroutine of the
// rig, once first has passed and again each time the rest it returned has
// passed, until StopDevices. Device i dials the rig's i-th device listener,
// round-robin.
func (r *Rig) Device(i int, first time.Duration, session func(dial func() (transport.Conn, error)) (rest time.Duration)) {
	dial := r.dials[i%len(r.dials)]
	r.live.Add(1)
	var run func()
	rest := func(d time.Duration) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.stopped {
			r.live.Add(-1)
			return
		}
		r.resting[i] = r.Clock.AfterFunc(d, run)
	}
	run = func() { rest(session(dial)) }
	rest(first)
}

// StopDevices ends the swarm: resting devices stop at once, the others after
// their session. An error means a session never ended.
func (r *Rig) StopDevices(horizon time.Duration) error {
	r.mu.Lock()
	r.stopped = true
	for i, t := range r.resting {
		if t.Stop() {
			r.live.Add(-1)
		}
		delete(r.resting, i)
	}
	r.mu.Unlock()
	if err := r.Clock.Run(horizon, func() bool { return r.live.Load() == 0 }); err != nil {
		// Not a horizon: a stranded session is a bug, whatever Run answered.
		return fmt.Errorf("device sessions never ended: %v", err)
	}
	return nil
}

// Close tears the topology down and lets the rig settle.
func (r *Rig) Close() {
	for i := len(r.teardown) - 1; i >= 0; i-- {
		r.teardown[i]()
	}
	r.teardown = nil
	r.Clock.Run(0, func() bool { return true }) // settles, and cannot fail
}
