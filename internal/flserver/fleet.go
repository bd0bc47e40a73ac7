package flserver

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/attest"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// FleetConfig configures the shared, population-independent part of a
// Fleet: its device tier. Each population's pool on a Selector is bounded
// by that population's last grant, not by a knob.
type FleetConfig struct {
	// Verifier enables attestation checks when non-nil (shared by every
	// population — attestation is a property of the device platform).
	Verifier *attest.Verifier
	Seed     uint64
	// Clock is the one clock the process runs on: its selection and report
	// windows, pace-steering hints and retry backoffs (nil: the wall clock).
	Clock actor.Clock
}

// PopulationSpec configures one FL population served by a Fleet.
type PopulationSpec struct {
	// Population is the globally unique FL population name.
	Population string
	// Plans seeds the population's task set with default-policy tasks —
	// sugar for Fleet.SubmitTask after Register. May be empty when every
	// task arrives via SubmitTask or is restored from a previously
	// persisted task set in Store.
	Plans []*plan.Plan
	Store storage.Store
	// Steering paces this population's devices (default: one-minute cadence).
	Steering *pacing.Steering
	// PopulationEstimate feeds pace steering (default 1000).
	PopulationEstimate int
	// MaxRounds stops the population after that many committed rounds
	// (0 = forever).
	MaxRounds int
}

// PopulationStats bundles one population's coordinator and selector-layer
// progress.
type PopulationStats struct {
	Population  string
	Coordinator CoordinatorStats
	Selector    SelectorStats
}

// numSelectors sizes a fleet's shared Selector layer.
const numSelectors = 2

// Fleet is the multi-population device-facing gateway of Sec. 4.2: ONE
// process whose shared Selector layer accepts connections for many FL
// populations at once ("Selectors accept connections for many FL
// populations, while Coordinators are one per population"). Check-ins are
// routed by CheckinRequest.Population; each registered population is one
// popHost over its LocalEdge on the DeviceTier, its Coordinator registered
// in the one shared locking service so that respawns after a crash can
// never yield two live Coordinators for the same population; and
// populations are registered at runtime, so plans can be added to a running
// fleet without restarting it.
type Fleet struct {
	sys  *actor.System
	lock *actor.LockService
	tier *DeviceTier

	mu     sync.Mutex
	pops   map[string]*popHost
	closed bool
}

// NewFleet builds a Fleet with an empty population registry and spawns its
// shared Selector layer. Populations are added with Register.
func NewFleet(cfg FleetConfig) *Fleet {
	f := &Fleet{pops: make(map[string]*popHost)}
	f.sys, f.lock = newProcess(cfg.Clock)
	// Check-ins for unknown populations and malformed first messages are
	// answered at a one-minute cadence.
	f.tier = NewDeviceTier(f.sys, "", numSelectors, cfg.Verifier, pacing.New(time.Minute), cfg.Seed)
	return f
}

// Register adds a population to the running fleet: its steering is
// installed on every Selector and its Coordinator spawned under the shared
// lock service. Safe to call while Serve is accepting connections — plans
// can be deployed without restarting the fleet.
func (f *Fleet) Register(spec PopulationSpec) error {
	_, err := f.register(spec, nil)
	return err
}

// register is Register with the round hook tests inject: every settled
// round is reported to onOutcome.
func (f *Fleet) register(spec PopulationSpec, onOutcome func(roundOutcome)) (*popHost, error) {
	var edges []Edge
	h, err := newPopHost(f.sys, CoordinatorParams{
		Population: spec.Population, Lock: f.lock, Store: spec.Store,
		Steering: spec.Steering, PopulationEstimate: spec.PopulationEstimate,
		MaxRounds: spec.MaxRounds, onOutcome: onOutcome,
	}, spec.Plans, func() []Edge { return edges })
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	switch _, dup := f.pops[spec.Population]; {
	case f.closed:
		err = fmt.Errorf("flserver: fleet closed")
	case dup:
		err = fmt.Errorf("flserver: population %q already registered", spec.Population)
	default:
		f.pops[spec.Population] = h
	}
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	edge, err := f.tier.Register(SelectorPopulation{
		Name: spec.Population, Steering: h.p.Steering, PopulationEstimate: h.p.PopulationEstimate,
	})
	if err != nil {
		f.mu.Lock()
		delete(f.pops, spec.Population)
		f.mu.Unlock()
		return nil, fmt.Errorf("flserver: register %q on selector: %w", spec.Population, err)
	}
	edges = []Edge{edge}
	h.start()
	return h, nil
}

// host looks a registered population up.
func (f *Fleet) host(population string) (*popHost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.pops[population]
	if !ok {
		return nil, fmt.Errorf("flserver: population %q not registered", population)
	}
	return h, nil
}

// taskOp routes one lifecycle mutation to a population's Coordinator, whose
// mailbox serializes it with round scheduling.
func (f *Fleet) taskOp(population string, m msgTaskOp) error {
	h, err := f.host(population)
	if err != nil {
		return err
	}
	return taskOpRequest(h, m)
}

// SubmitTask deploys a new FL task (plan + scheduling policy) onto a live
// registered population — no restart, no effect on the round in flight
// (Sec. 7 model-engineer workflow).
func (f *Fleet) SubmitTask(population string, p *plan.Plan, pol tasks.Policy) error {
	return f.taskOp(population, msgTaskOp{Op: taskOpSubmit, Plan: p, Policy: pol})
}

// PauseTask stops scheduling a population's task; an in-flight round
// completes normally and the task keeps its stats and checkpoints.
func (f *Fleet) PauseTask(population, id string) error {
	return f.taskOp(population, msgTaskOp{Op: taskOpPause, ID: id})
}

// ResumeTask reactivates a population's paused task.
func (f *Fleet) ResumeTask(population, id string) error {
	return f.taskOp(population, msgTaskOp{Op: taskOpResume, ID: id})
}

// RetireTask permanently stops scheduling a population's task. A round
// already in flight completes (and is recorded) rather than being aborted.
func (f *Fleet) RetireTask(population, id string) error {
	return f.taskOp(population, msgTaskOp{Op: taskOpRetire, ID: id})
}

// TaskStats reports every task of a population — state, policy, rounds
// committed/failed, cumulative devices, last round time — in submission
// order.
func (f *Fleet) TaskStats(population string) ([]tasks.Stats, error) {
	h, err := f.host(population)
	if err != nil {
		return nil, err
	}
	return QueryTaskStats(h)
}

// Done returns the channel closed when a population reaches its MaxRounds.
func (f *Fleet) Done(population string) (<-chan struct{}, bool) {
	h, err := f.host(population)
	if err != nil {
		return nil, false
	}
	return h.p.Done, true
}

// PopulationStats reports one population's coordinator progress and its
// slice of the selector layer. The error is non-nil when the population is
// unknown or its Coordinator dead/unresponsive — callers cannot mistake a
// dead population for zero progress.
func (f *Fleet) PopulationStats(population string) (PopulationStats, error) {
	h, err := f.host(population)
	if err != nil {
		return PopulationStats{}, err
	}
	coord, err := QueryCoordinatorStats(h)
	if err != nil {
		return PopulationStats{}, err
	}
	sel, err := f.tier.Stats(population)
	if err != nil {
		return PopulationStats{}, err
	}
	return PopulationStats{Population: population, Coordinator: coord, Selector: sel}, nil
}

// Serve accepts device connections from l until l closes, routing each
// connection's first message through the shared CheckinRouter accept path
// (Selectors route check-ins by population; malformed first messages get a
// protocol-level rejection with a pace-steering hint).
func (f *Fleet) Serve(l transport.Listener) { f.tier.Serve(l) }

// Close stops every population's Coordinator, the Selector layer, and the
// actor system, then waits for in-flight connection handlers.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	for _, h := range f.pops {
		h.Stop()
	}
	f.mu.Unlock()
	f.tier.Close()
}
