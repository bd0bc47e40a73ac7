package flserver

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/attest"
	"repro/internal/fedavg"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/secagg"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Config configures a Server for one FL population.
type Config struct {
	Population string
	// Plans seeds the population's task set with one Active, default-policy
	// task per plan; it may be empty when the task set is restored from a
	// previously persisted one in Store.
	Plans []*plan.Plan
	Store storage.Store
	// Verifier enables attestation checks when non-nil.
	Verifier *attest.Verifier
	Steering *pacing.Steering
	// PopulationEstimate feeds pace steering.
	PopulationEstimate int
	// MaxRounds stops after that many committed rounds (0 = forever).
	MaxRounds int
	Seed      uint64
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

// Server is the one-population fleet: New builds a Fleet and registers
// cfg's population on it, so a single-population deployment, the
// multi-population gateway and the tests all run the one wiring.
type Server struct {
	fleet *Fleet
	host  *popHost
}

// New builds the server and spawns its actors.
func New(cfg Config) (*Server, error) { return newServer(cfg, nil, nil, nil) }

// newServer is New with what tests and benchmarks inject: the fleet's clock
// and the round hooks (see Fleet.register).
func newServer(cfg Config, clock actor.Clock, onOutcome func(roundOutcome), churn func(n, t int) secagg.Schedule) (*Server, error) {
	// A lone population has nobody to share the parked pool with.
	f := NewFleet(FleetConfig{SelectorCapacity: -1, Verifier: cfg.Verifier, Seed: cfg.Seed, Clock: clock})
	h, err := f.register(PopulationSpec{
		Population: cfg.Population, Plans: cfg.Plans, Store: cfg.Store,
		Steering: cfg.Steering, PopulationEstimate: cfg.PopulationEstimate, MaxRounds: cfg.MaxRounds,
	}, onOutcome, churn)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Server{fleet: f, host: h}, nil
}

// Done is closed when MaxRounds rounds have committed.
func (s *Server) Done() <-chan struct{} { return s.host.p.Done }

// Stats queries coordinator progress. The error is non-nil when the
// Coordinator is dead or unresponsive, so callers cannot mistake a dead
// coordinator for zero progress.
func (s *Server) Stats() (CoordinatorStats, error) { return QueryCoordinatorStats(s.host) }

// SelectorStats sums stats across the selector layer. The error is non-nil
// when any Selector is dead or unresponsive.
func (s *Server) SelectorStats() (SelectorStats, error) {
	return SumSelectorStats(s.fleet.selectors, "")
}

// Serve accepts device connections from l until l closes, routing each
// connection's first message through the shared CheckinRouter accept path.
func (s *Server) Serve(l transport.Listener) { s.fleet.Serve(l) }

// Close stops the actor system.
func (s *Server) Close() { s.fleet.Close() }
