package flserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/attest"
	"repro/internal/fedavg"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/secagg"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// Config configures a Server for one FL population.
type Config struct {
	Population string
	// Plans seeds the population's task set with one Active, default-policy
	// task per plan — sugar for calling SubmitTask after New. Tasks can be
	// submitted, paused, resumed and retired on the live server at any
	// time; Plans may be empty when every task arrives via SubmitTask (or
	// is restored from a previously persisted task set in Store).
	Plans []*plan.Plan
	Store storage.Store
	// Verifier enables attestation checks when non-nil.
	Verifier *attest.Verifier
	Steering *pacing.Steering
	// PopulationEstimate feeds pace steering.
	PopulationEstimate int
	NumSelectors       int
	// SelectorCapacity bounds the parked devices per Selector (0 =
	// unbounded). Multi-population deployments (internal/fleet) set it to
	// get demand-weighted fair sharing of the parked pool.
	SelectorCapacity int
	// MaxRounds stops after that many committed rounds (0 = forever).
	MaxRounds int
	Seed      uint64
	// Now overrides the wall clock (tests).
	Now func() time.Time
}

// LocalEdge is the in-process Edge: opening a round is a function call that
// starts an EdgeRound on the local actor system over the local Selectors,
// and the seal comes back to the Coordinator by reference — no codec, no
// copy. One LocalEdge serves one population and outlives its Coordinators:
// a respawned Coordinator opening a round supersedes whatever round its
// crashed predecessor left running.
type LocalEdge struct {
	sys        *actor.System
	selectors  []actor.Ref
	population string
	// stripes carries the spare stripe vectors from one round to the next.
	stripes fedavg.Spares
	// churn is injected into the secure groups of every round (tests).
	churn func(n, t int) secagg.Schedule
	cur   actor.Ref
}

// NewLocalEdge returns the local edge for one population served by the
// given Selectors.
func NewLocalEdge(sys *actor.System, selectors []actor.Ref, population string) *LocalEdge {
	return &LocalEdge{sys: sys, selectors: selectors, population: population}
}

// Open implements Edge.
func (e *LocalEdge) Open(cfg *EdgeRoundConfig, coord actor.Ref) error {
	if e.cur != nil {
		AbandonEdgeRound(e.cur, "superseded by a newer round")
	}
	local := *cfg
	local.Stripes, local.churn = &e.stripes, e.churn
	e.cur = StartEdgeRound(e.sys, fmt.Sprintf("edge/%s/r%d", cfg.Plan.ID, cfg.Round), local, e.selectors,
		func(seal EdgeSeal) { _ = DeliverSeal(coord, e, seal) })
	return nil
}

// Finalize implements Edge.
func (e *LocalEdge) Finalize(string, int64) error {
	FinalizeEdgeRound(e.cur)
	return nil
}

// Abort implements Edge.
func (e *LocalEdge) Abort(taskID string, _ int64, reason string) {
	if taskID != "" {
		AbandonEdgeRound(e.cur, reason)
		return
	}
	for _, sel := range e.selectors {
		_ = ReleaseParked(sel, e.population)
	}
}

// ProbeRates implements Edge.
func (e *LocalEdge) ProbeRates(coord actor.Ref) {
	for _, sel := range e.selectors {
		_ = ProbeCheckinRate(sel, e.population, coord)
	}
}

// SuperviseCoordinator spawns a Coordinator for p on sys, watches it, and
// starts it: the Selector layer's supervision duty (Sec. 4.4: "if the
// Coordinator dies, the Selector layer will detect this and respawn it").
// respawn runs when the Coordinator terminates with a failure and decides
// whether to supervise a replacement. The lock service guarantees a single
// live owner even if several watchers race.
func SuperviseCoordinator(sys *actor.System, p CoordinatorParams, respawn func()) actor.Ref {
	coord := sys.Spawn("coordinator/"+p.Population, NewCoordinator(p))
	// Watch before the first tick so even an instant crash is supervised.
	watcher := sys.Spawn("coordinator-watcher/"+p.Population, actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		if t, ok := msg.(actor.Terminated); ok && t.Ref == coord {
			if t.Failure {
				respawn()
			}
			ctx.Stop()
		}
	}))
	sys.Watch(coord, watcher)
	_ = StartCoordinator(coord)
	return coord
}

// Server wires the actor architecture to a transport listener for a single
// FL population: it spawns the Selector layer, the population's local edge
// and the Coordinator, dispatches device check-ins to Selectors, and
// supervises the Coordinator via the lock service (a dead Coordinator is
// detected and respawned exactly once, Sec. 4.4). The multi-population
// equivalent — one shared Selector layer serving many populations — is
// internal/fleet, built from the same actors.
type Server struct {
	cfg    Config
	sys    *actor.System
	lock   *actor.LockService
	router *CheckinRouter
	// tasks is the population's task registry. It outlives any one
	// Coordinator (respawns reuse it); mutations are routed through the
	// live Coordinator's mailbox so they serialize with round scheduling.
	tasks *tasks.TaskSet
	edge  *LocalEdge
	// onOutcome is handed to every Coordinator spawned (benchmarks, tests).
	onOutcome func(roundOutcome)

	selectors []actor.Ref
	mu        sync.Mutex
	coord     actor.Ref
	done      chan struct{}

	closed atomic.Bool
}

// New builds the server and spawns its actors.
func New(cfg Config) (*Server, error) { return newServer(cfg, nil, nil) }

// newServer is New with the round hooks tests and benchmarks inject: every
// settled round is reported to onOutcome, and churn perturbs the secagg
// schedule of every secure group.
func newServer(cfg Config, onOutcome func(roundOutcome), churn func(n, t int) secagg.Schedule) (*Server, error) {
	if cfg.Population == "" || cfg.Store == nil {
		return nil, fmt.Errorf("flserver: Population and Store are required")
	}
	ts, err := tasks.New(cfg.Population, cfg.Store, cfg.Now)
	if err != nil {
		return nil, err
	}
	// Config.Plans is sugar: each plan becomes an Active default-policy
	// task. Seed validates every plan, checks it belongs to this
	// population, and rejects duplicate task IDs (colliding IDs would
	// silently share one checkpoint lineage).
	if err := ts.Seed(cfg.Plans); err != nil {
		return nil, err
	}
	if cfg.NumSelectors <= 0 {
		cfg.NumSelectors = 2
	}
	if cfg.Steering == nil {
		cfg.Steering = pacing.New(time.Minute)
	}
	if cfg.PopulationEstimate <= 0 {
		cfg.PopulationEstimate = 1000
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}

	ts.SetPopulationEstimate(cfg.PopulationEstimate)

	s := &Server{
		cfg:       cfg,
		sys:       actor.NewSystem(),
		lock:      actor.NewLockService(),
		tasks:     ts,
		onOutcome: onOutcome,
		done:      make(chan struct{}),
	}
	pop := SelectorPopulation{
		Name:               cfg.Population,
		Steering:           cfg.Steering,
		PopulationEstimate: cfg.PopulationEstimate,
	}
	for i := 0; i < cfg.NumSelectors; i++ {
		sel := s.sys.Spawn(fmt.Sprintf("selector-%d", i),
			NewSelector(cfg.Verifier, cfg.Steering, cfg.SelectorCapacity, cfg.Seed+uint64(i), cfg.Now, pop))
		s.selectors = append(s.selectors, sel)
	}
	s.router = NewCheckinRouter(s.selectors, NewHinter(cfg.Steering, cfg.PopulationEstimate, cfg.Seed+7919, cfg.Now))
	s.edge = NewLocalEdge(s.sys, s.selectors, cfg.Population)
	s.edge.churn = churn
	s.spawnCoordinator()
	return s, nil
}

// spawnCoordinator starts a supervised Coordinator over the local edge;
// a crashed one is respawned until the server closes.
func (s *Server) spawnCoordinator() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.coord = SuperviseCoordinator(s.sys, CoordinatorParams{
		Population: s.cfg.Population, Lock: s.lock, Store: s.cfg.Store, Tasks: s.tasks,
		Steering: s.cfg.Steering, PopulationEstimate: s.cfg.PopulationEstimate,
		Edges: []Edge{s.edge}, MaxRounds: s.cfg.MaxRounds, Done: s.done, Now: s.cfg.Now,
		onOutcome: s.onOutcome,
	}, func() {
		if !s.closed.Load() {
			s.spawnCoordinator()
		}
	})
}

// Coordinator returns the current coordinator ref (tests).
func (s *Server) Coordinator() actor.Ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord
}

// Done is closed when MaxRounds rounds have committed.
func (s *Server) Done() <-chan struct{} { return s.done }

// Stats queries coordinator progress. The error is non-nil when the
// Coordinator is dead or unresponsive, so callers cannot mistake a dead
// coordinator for zero progress.
func (s *Server) Stats() (CoordinatorStats, error) {
	return QueryCoordinatorStats(s.Coordinator())
}

// SelectorStats sums stats across the selector layer. The error is non-nil
// when any Selector is dead or unresponsive.
func (s *Server) SelectorStats() (SelectorStats, error) {
	return SumSelectorStats(s.selectors, "")
}

// SubmitTask deploys a new FL task — plan plus scheduling policy — onto
// the live population (Sec. 7 model-engineer workflow): no restart, no
// effect on the round in flight. The task is scheduled per its policy from
// the next tick on. Routed through the Coordinator's mailbox so the
// mutation serializes with round scheduling.
func (s *Server) SubmitTask(p *plan.Plan, pol tasks.Policy) error {
	return SubmitTask(s.Coordinator(), p, pol)
}

// PauseTask stops scheduling the task; an in-flight round completes
// normally and the task's stats and checkpoint lineage are kept.
func (s *Server) PauseTask(id string) error { return PauseTask(s.Coordinator(), id) }

// ResumeTask reactivates a paused task.
func (s *Server) ResumeTask(id string) error { return ResumeTask(s.Coordinator(), id) }

// RetireTask permanently stops scheduling the task. A round already in
// flight completes (and is recorded) rather than being aborted.
func (s *Server) RetireTask(id string) error { return RetireTask(s.Coordinator(), id) }

// TaskStats reports every task's lifecycle record — state, policy, rounds
// committed/failed, cumulative devices, last round time — in submission
// order. The error is non-nil when the Coordinator is dead or
// unresponsive.
func (s *Server) TaskStats() ([]tasks.Stats, error) { return QueryTaskStats(s.Coordinator()) }

// Serve accepts device connections from l until l closes, routing each
// connection's first message through the shared CheckinRouter accept path.
func (s *Server) Serve(l transport.Listener) { s.router.Serve(l) }

// Close stops the actor system.
func (s *Server) Close() {
	s.closed.Store(true)
	refs := append([]actor.Ref{}, s.selectors...)
	refs = append(refs, s.Coordinator())
	s.sys.Shutdown(refs...)
	s.router.Wait()
}
