package flserver

import (
	"repro/internal/actor"
	"repro/internal/plan"
	"repro/internal/tasks"
)

// The per-population conveniences the tests drive a Server through; outside
// tests the only callers of the task lifecycle are Fleet's (cmd/flserver's
// -tasks-dir), which these delegate to.

func (s *Server) population() string { return s.host.p.Population }

func (s *Server) SubmitTask(p *plan.Plan, pol tasks.Policy) error {
	return s.fleet.SubmitTask(s.population(), p, pol)
}
func (s *Server) PauseTask(id string) error  { return s.fleet.PauseTask(s.population(), id) }
func (s *Server) ResumeTask(id string) error { return s.fleet.ResumeTask(s.population(), id) }
func (s *Server) RetireTask(id string) error { return s.fleet.RetireTask(s.population(), id) }
func (s *Server) TaskStats() ([]tasks.Stats, error) {
	return s.fleet.TaskStats(s.population())
}

// Coordinator returns the Coordinator's current incarnation.
func (s *Server) Coordinator() actor.Ref { return s.host.coordinator() }

// lockOwner returns the live owner of a population's lock, or nil — the
// shared locking service's view of who coordinates the population.
func (f *Fleet) lockOwner(population string) actor.Ref { return f.lock.Owner(population) }

// coordinator returns a population's current Coordinator incarnation; ok is
// false while the population is unknown or its Coordinator not yet spawned.
func (f *Fleet) coordinator(population string) (actor.Ref, bool) {
	h, err := f.host(population)
	if err != nil {
		return nil, false
	}
	coord := h.coordinator()
	return coord, coord != nil
}

// quotaConserved reports whether the quota ledger balances.
func (s SelectorStats) quotaConserved() bool {
	return s.QuotaGranted == s.QuotaConsumed+s.QuotaRevoked+s.QuotaOutstanding
}
