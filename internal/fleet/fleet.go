// Package fleet implements the multi-population device-facing gateway of
// Sec. 4.2: ONE process whose shared Selector layer accepts connections
// for many FL populations at once. Check-ins are routed by
// CheckinRequest.Population; each population gets exactly one Coordinator,
// registered in one shared locking service so that respawns after a crash
// can never yield two live Coordinators for the same population; and
// populations are registered and deregistered at runtime, so plans can be
// added to a running fleet without restarting it.
//
// The Fleet composes the same actors as internal/flserver — Selector,
// Coordinator, local edge — through that package's exported entry points. flserver.Server remains the single-population special case;
// Fleet is the shared layer the paper describes ("Selectors accept
// connections for many FL populations, while Coordinators are one per
// population").
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/attest"
	"repro/internal/flserver"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// Config configures the shared, population-independent part of a Fleet:
// the Selector layer and the connection edge.
type Config struct {
	// NumSelectors sizes the shared Selector layer (default 2).
	NumSelectors int
	// SelectorCapacity bounds the parked devices per Selector across ALL
	// populations; under load the pool is fair-shared, weighted by each
	// Coordinator's quota demand. 0 picks the default of 1024; a negative
	// value makes the pool unbounded.
	SelectorCapacity int
	// Verifier enables attestation checks when non-nil (shared by every
	// population — attestation is a property of the device platform).
	Verifier *attest.Verifier
	// DefaultSteering answers check-ins for unknown populations and
	// malformed first messages (default: one-minute cadence).
	DefaultSteering *pacing.Steering
	// DefaultPopulationEstimate feeds steering when a population spec does
	// not provide its own estimate (default 1000).
	DefaultPopulationEstimate int
	Seed                      uint64
	// Now overrides the wall clock (tests).
	Now func() time.Time
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
	// Steering paces this population's devices (default: the fleet's
	// DefaultSteering).
	Steering *pacing.Steering
	// PopulationEstimate feeds pace steering.
	PopulationEstimate int
	// MaxRounds stops the population after that many committed rounds
	// (0 = forever).
	MaxRounds int
}

// PopulationStats bundles one population's coordinator and selector-layer
// progress.
type PopulationStats struct {
	Population  string
	Coordinator flserver.CoordinatorStats
	Selector    flserver.SelectorStats
}

// popEntry is the registry record for one registered population.
type popEntry struct {
	spec PopulationSpec
	// tasks is the population's task registry and edge its local edge over
	// the shared Selectors; both outlive any one Coordinator (crash
	// respawns reuse them).
	tasks *tasks.TaskSet
	edge  *flserver.LocalEdge
	coord actor.Ref
	done  chan struct{}
}

// Fleet is one device-facing process serving N FL populations over a
// shared Selector layer, one shared lock service, and one supervision
// scheme.
type Fleet struct {
	cfg       Config
	sys       *actor.System
	lock      *actor.LockService
	selectors []actor.Ref
	router    *flserver.CheckinRouter

	// regMu serializes Register/Deregister end to end (including the
	// selector installs and the coordinator stop-wait): without it, a
	// Deregister's teardown tail could wipe the selector state a
	// concurrent re-Register of the same name just installed.
	regMu sync.Mutex
	mu    sync.Mutex
	pops  map[string]*popEntry

	closed atomic.Bool
}

// New builds a Fleet with an empty population registry and spawns its
// shared Selector layer. Populations are added with Register.
func New(cfg Config) (*Fleet, error) {
	if cfg.NumSelectors <= 0 {
		cfg.NumSelectors = 2
	}
	switch {
	case cfg.SelectorCapacity == 0:
		cfg.SelectorCapacity = 1024
	case cfg.SelectorCapacity < 0:
		cfg.SelectorCapacity = 0 // unbounded
	}
	if cfg.DefaultSteering == nil {
		cfg.DefaultSteering = pacing.New(time.Minute)
	}
	if cfg.DefaultPopulationEstimate <= 0 {
		cfg.DefaultPopulationEstimate = 1000
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	f := &Fleet{
		cfg:  cfg,
		sys:  actor.NewSystem(),
		lock: actor.NewLockService(),
		pops: make(map[string]*popEntry),
	}
	for i := 0; i < cfg.NumSelectors; i++ {
		sel := f.sys.Spawn(fmt.Sprintf("selector-%d", i),
			flserver.NewSelector(cfg.Verifier, cfg.DefaultSteering, cfg.SelectorCapacity, cfg.Seed+uint64(i), cfg.Now))
		f.selectors = append(f.selectors, sel)
	}
	f.router = flserver.NewCheckinRouter(f.selectors,
		flserver.NewHinter(cfg.DefaultSteering, cfg.DefaultPopulationEstimate, cfg.Seed+7919, cfg.Now))
	return f, nil
}

// Register adds a population to the running fleet: its steering is
// installed on every Selector and its Coordinator spawned under the shared
// lock service. Safe to call while Serve is accepting connections — plans
// can be deployed without restarting the fleet.
func (f *Fleet) Register(spec PopulationSpec) error {
	f.regMu.Lock()
	defer f.regMu.Unlock()
	if spec.Population == "" || spec.Store == nil {
		return fmt.Errorf("fleet: Population and Store are required")
	}
	ts, err := tasks.New(spec.Population, spec.Store, f.cfg.Now)
	if err != nil {
		return err
	}
	// Seed validates every plan, checks the population match, and rejects
	// duplicate task IDs (they would silently share a checkpoint lineage).
	if err := ts.Seed(spec.Plans); err != nil {
		return err
	}
	if spec.Steering == nil {
		spec.Steering = f.cfg.DefaultSteering
	}
	if spec.PopulationEstimate <= 0 {
		spec.PopulationEstimate = f.cfg.DefaultPopulationEstimate
	}
	ts.SetPopulationEstimate(spec.PopulationEstimate)

	entry := &popEntry{spec: spec, tasks: ts, done: make(chan struct{}),
		edge: flserver.NewLocalEdge(f.sys, f.selectors, spec.Population)}
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		return fmt.Errorf("fleet: closed")
	}
	if _, dup := f.pops[spec.Population]; dup {
		f.mu.Unlock()
		return fmt.Errorf("fleet: population %q already registered", spec.Population)
	}
	f.pops[spec.Population] = entry
	f.mu.Unlock()

	for i, sel := range f.selectors {
		if err := flserver.RegisterSelectorPopulation(sel, flserver.SelectorPopulation{
			Name:               spec.Population,
			Steering:           spec.Steering,
			PopulationEstimate: spec.PopulationEstimate,
		}); err != nil {
			// Roll the registration back everywhere it already landed, so
			// no Selector keeps ghost state for a population the registry
			// does not know.
			for _, prev := range f.selectors[:i] {
				_ = flserver.DeregisterSelectorPopulation(prev, spec.Population)
			}
			f.mu.Lock()
			delete(f.pops, spec.Population)
			f.mu.Unlock()
			return fmt.Errorf("fleet: register %q on selector: %w", spec.Population, err)
		}
	}
	f.spawnCoordinator(entry)
	return nil
}

// deregisterStopTimeout bounds how long Deregister waits for a
// Coordinator's clean stop before forcing it.
const deregisterStopTimeout = 5 * time.Second

// Deregister removes a population from the running fleet: its Coordinator
// abandons any in-flight round, releases the population lock and stops;
// parked devices are steered away; later check-ins get the
// unknown-population rejection. Deregister returns only after the
// Coordinator has actually stopped, so a Register of the same name right
// after cannot lose the lock race against the outgoing owner and strand
// the re-registered population without a Coordinator.
func (f *Fleet) Deregister(population string) error {
	f.regMu.Lock()
	defer f.regMu.Unlock()
	f.mu.Lock()
	entry, ok := f.pops[population]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("fleet: population %q not registered", population)
	}
	delete(f.pops, population)
	coord := entry.coord
	f.mu.Unlock()

	if coord != nil {
		_ = flserver.StopCoordinator(coord)
		deadline := time.Now().Add(deregisterStopTimeout)
		for !coord.Stopped() {
			if time.Now().After(deadline) {
				// A wedged mailbox must not hold the population name
				// hostage: hard-stop. The lock still frees — Acquire treats
				// a stopped owner as absent.
				coord.Stop()
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, sel := range f.selectors {
		_ = flserver.DeregisterSelectorPopulation(sel, population)
	}
	return nil
}

// coordinatorParams wires entry's Coordinator: the shared lock service and
// the population's own store, task set and local edge.
func (f *Fleet) coordinatorParams(entry *popEntry) flserver.CoordinatorParams {
	return flserver.CoordinatorParams{
		Population: entry.spec.Population, Lock: f.lock, Store: entry.spec.Store, Tasks: entry.tasks,
		Steering: entry.spec.Steering, PopulationEstimate: entry.spec.PopulationEstimate,
		Edges: []flserver.Edge{entry.edge}, MaxRounds: entry.spec.MaxRounds, Done: entry.done, Now: f.cfg.Now,
	}
}

// spawnCoordinator starts entry's supervised Coordinator, respawned on
// failure — unless the population has since been deregistered or the fleet
// closed. All watchers share the one lock service, so racing respawns can
// never yield two live Coordinators for one population: the loser's first
// tick fails to acquire the lock and it stops itself.
func (f *Fleet) spawnCoordinator(entry *popEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() || f.pops[entry.spec.Population] != entry {
		return
	}
	entry.coord = flserver.SuperviseCoordinator(f.sys, f.coordinatorParams(entry),
		func() { f.spawnCoordinator(entry) })
}

// onCoordinator runs one task lifecycle call against a population's
// current Coordinator. The mutation is routed through the Coordinator's
// mailbox, so it serializes with round scheduling.
func (f *Fleet) onCoordinator(population string, call func(actor.Ref) error) error {
	coord, ok := f.Coordinator(population)
	if !ok {
		return fmt.Errorf("fleet: population %q not registered (or still starting)", population)
	}
	return call(coord)
}

// SubmitTask deploys a new FL task (plan + scheduling policy) onto a live
// registered population — no restart, no effect on the round in flight.
func (f *Fleet) SubmitTask(population string, p *plan.Plan, pol tasks.Policy) error {
	return f.onCoordinator(population, func(c actor.Ref) error { return flserver.SubmitTask(c, p, pol) })
}

// PauseTask stops scheduling a population's task; an in-flight round
// completes normally and the task keeps its stats and checkpoints.
func (f *Fleet) PauseTask(population, id string) error {
	return f.onCoordinator(population, func(c actor.Ref) error { return flserver.PauseTask(c, id) })
}

// ResumeTask reactivates a population's paused task.
func (f *Fleet) ResumeTask(population, id string) error {
	return f.onCoordinator(population, func(c actor.Ref) error { return flserver.ResumeTask(c, id) })
}

// RetireTask permanently stops scheduling a population's task. A round
// already in flight completes (and is recorded) rather than being aborted.
func (f *Fleet) RetireTask(population, id string) error {
	return f.onCoordinator(population, func(c actor.Ref) error { return flserver.RetireTask(c, id) })
}

// TaskStats reports every task of a population — state, policy, rounds
// committed/failed, cumulative devices, last round time — in submission
// order.
func (f *Fleet) TaskStats(population string) ([]tasks.Stats, error) {
	var sts []tasks.Stats
	err := f.onCoordinator(population, func(c actor.Ref) (err error) {
		sts, err = flserver.QueryTaskStats(c)
		return err
	})
	return sts, err
}

// Populations lists the registered population names, sorted.
func (f *Fleet) Populations() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.pops))
	for name := range f.pops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Coordinator returns the current Coordinator ref for a population
// (tests and supervision checks). ok is false while the population is
// unknown or its Coordinator not yet spawned.
func (f *Fleet) Coordinator(population string) (actor.Ref, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	entry, ok := f.pops[population]
	if !ok || entry.coord == nil {
		return nil, false
	}
	return entry.coord, true
}

// LockOwner returns the live owner of a population's lock, or nil — the
// shared locking service's view of who coordinates the population.
func (f *Fleet) LockOwner(population string) actor.Ref {
	return f.lock.Owner(population)
}

// Done returns the channel closed when a population reaches its MaxRounds.
func (f *Fleet) Done(population string) (<-chan struct{}, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	entry, ok := f.pops[population]
	if !ok {
		return nil, false
	}
	return entry.done, true
}

// PopulationStats reports one population's coordinator progress and its
// slice of the selector layer. The error is non-nil when the population is
// unknown or its Coordinator dead/unresponsive — callers cannot mistake a
// dead population for zero progress.
func (f *Fleet) PopulationStats(population string) (PopulationStats, error) {
	f.mu.Lock()
	entry, ok := f.pops[population]
	var ref actor.Ref
	if ok {
		ref = entry.coord
	}
	f.mu.Unlock()
	if !ok {
		return PopulationStats{}, fmt.Errorf("fleet: population %q not registered", population)
	}
	if ref == nil {
		// Register published the entry but its Coordinator has not spawned
		// yet (racing stats poller).
		return PopulationStats{}, fmt.Errorf("fleet: population %q still starting", population)
	}
	coord, err := flserver.QueryCoordinatorStats(ref)
	if err != nil {
		return PopulationStats{}, err
	}
	sel, err := flserver.SumSelectorStats(f.selectors, population)
	if err != nil {
		return PopulationStats{}, err
	}
	return PopulationStats{Population: population, Coordinator: coord, Selector: sel}, nil
}

// Stats reports every registered population (keyed by name). A population
// whose Coordinator is dead or unresponsive surfaces as an error.
func (f *Fleet) Stats() (map[string]PopulationStats, error) {
	out := make(map[string]PopulationStats)
	for _, name := range f.Populations() {
		st, err := f.PopulationStats(name)
		if err != nil {
			return nil, err
		}
		out[name] = st
	}
	return out, nil
}

// Serve accepts device connections from l until l closes, routing each
// connection's first message through the shared CheckinRouter accept path
// (Selectors route check-ins by population; malformed first messages get a
// protocol-level rejection with a pace-steering hint).
func (f *Fleet) Serve(l transport.Listener) { f.router.Serve(l) }

// Close stops every population's Coordinator, the Selector layer, and the
// actor system, then waits for in-flight connection handlers.
func (f *Fleet) Close() {
	f.closed.Store(true)
	f.mu.Lock()
	refs := append([]actor.Ref{}, f.selectors...)
	for _, entry := range f.pops {
		if entry.coord != nil {
			refs = append(refs, entry.coord)
		}
	}
	f.mu.Unlock()
	f.sys.Shutdown(refs...)
	f.router.Wait()
}
