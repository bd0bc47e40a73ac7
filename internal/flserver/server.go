package flserver

import (
	"repro/internal/actor"
	"repro/internal/attest"
	"repro/internal/pacing"
	"repro/internal/plan"
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

// Server is the one-population fleet: New builds a Fleet and registers
// cfg's population on it, so a single-population deployment, the
// multi-population gateway and the tests all run the one wiring.
type Server struct {
	fleet *Fleet
	host  *popHost
}

// New builds the server and spawns its actors.
func New(cfg Config) (*Server, error) { return newServer(cfg, nil, nil) }

// newServer is New with what tests and benchmarks inject: the fleet's clock
// and the round hook (see Fleet.register).
func newServer(cfg Config, clock actor.Clock, onOutcome func(roundOutcome)) (*Server, error) {
	f := NewFleet(FleetConfig{Verifier: cfg.Verifier, Seed: cfg.Seed, Clock: clock})
	h, err := f.register(PopulationSpec{
		Population: cfg.Population, Plans: cfg.Plans, Store: cfg.Store,
		Steering: cfg.Steering, PopulationEstimate: cfg.PopulationEstimate, MaxRounds: cfg.MaxRounds,
	}, onOutcome)
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
	return s.fleet.tier.Stats("")
}

// Serve accepts device connections from l until l closes, routing each
// connection's first message through the shared CheckinRouter accept path.
func (s *Server) Serve(l transport.Listener) { s.fleet.Serve(l) }

// Close stops the actor system.
func (s *Server) Close() { s.fleet.Close() }
