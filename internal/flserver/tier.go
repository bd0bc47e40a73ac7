package flserver

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/attest"
	"repro/internal/fedavg"
	"repro/internal/pacing"
	"repro/internal/transport"
)

// DeviceTier is one process's device-facing layer (Sec. 4.2): its Selector
// actors, the CheckinRouter in front of them, and one LocalEdge per
// population, registered on every Selector. Where a population's Coordinator
// runs is deployment (Sec. 4.1), not a second program: a Fleet runs them
// beside the tier, and a selector shard runs none and puts its relay (Relay)
// where the Coordinator stands.
type DeviceTier struct {
	sys       *actor.System
	prefix    string // starts the name of every actor the tier spawns
	selectors []actor.Ref
	router    *CheckinRouter

	mu    sync.Mutex
	edges map[string]*LocalEdge
}

// NewDeviceTier spawns n Selectors on sys, named prefix+"selector-<i>";
// check-ins for populations they do not serve, and malformed first messages,
// are answered with defaultSteering.
func NewDeviceTier(sys *actor.System, prefix string, n int, verifier *attest.Verifier, defaultSteering *pacing.Steering, seed uint64) *DeviceTier {
	t := &DeviceTier{sys: sys, prefix: prefix, edges: make(map[string]*LocalEdge)}
	for i := 0; i < n; i++ {
		t.selectors = append(t.selectors, sys.Spawn(fmt.Sprintf("%sselector-%d", prefix, i),
			newSelector(verifier, defaultSteering, seed+uint64(i))))
	}
	t.router = &CheckinRouter{sys: sys, selectors: t.selectors}
	return t
}

// Register returns pop's LocalEdge, first registering the population on
// every Selector if the tier does not serve it yet. A registration that
// fails on one Selector is rolled back everywhere it already landed, so no
// Selector keeps state for a population the tier does not know.
func (t *DeviceTier) Register(pop SelectorPopulation) (*LocalEdge, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.edges[pop.Name]; ok {
		return e, nil
	}
	for i, sel := range t.selectors {
		if err := sel.Send(msgRegisterPopulation{Pop: pop}); err != nil {
			for _, prev := range t.selectors[:i] {
				_ = prev.Send(msgDeregisterPopulation{Name: pop.Name})
			}
			return nil, err
		}
	}
	e := &LocalEdge{tier: t, population: pop.Name, devices: make(chan map[string]*session, 1)}
	t.edges[pop.Name] = e
	return e, nil
}

// Edge returns the LocalEdge of a population the tier serves, or nil.
func (t *DeviceTier) Edge(population string) *LocalEdge {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.edges[population]
}

// Edges lists the tier's LocalEdges.
func (t *DeviceTier) Edges() []*LocalEdge {
	t.mu.Lock()
	defer t.mu.Unlock()
	edges := make([]*LocalEdge, 0, len(t.edges))
	for _, e := range t.edges {
		edges = append(edges, e)
	}
	return edges
}

// Relay spawns the actor that stands where a Coordinator stands for a tier
// whose Coordinator runs in another process: every seal an edge delivers to
// it goes to ship, every check-in rate sample a Selector answers it with to
// rate, both on the actor's goroutine.
func (t *DeviceTier) Relay(name string, ship func(EdgeSeal), rate func(source, population string, count int64, elapsed time.Duration, demand int)) actor.Ref {
	return t.sys.Spawn(t.prefix+name, actor.BehaviorFunc(func(_ *actor.Context, msg actor.Message) {
		switch m := msg.(type) {
		case msgEdgeSeal:
			ship(m.Seal)
		case msgCheckinRate:
			rate(m.Source, m.Population, m.Count, m.Elapsed, m.Demand)
		}
	}))
}

// Serve accepts device connections from l until l closes, routing each
// connection's first message through the CheckinRouter.
func (t *DeviceTier) Serve(l transport.Listener) { t.router.Serve(l) }

// Stats sums one population's Selector counts (or, for "", every
// population's). The error is non-nil when a Selector is dead or
// unresponsive.
func (t *DeviceTier) Stats(population string) (SelectorStats, error) {
	var total SelectorStats
	for _, sel := range t.selectors {
		st, err := QuerySelectorStats(sel, population)
		if err != nil {
			return SelectorStats{}, err
		}
		total.Add(st)
	}
	return total, nil
}

// Close stops the Selectors, then every other actor on the tier's system,
// and waits for them and for every goroutine the tier started.
func (t *DeviceTier) Close() { t.sys.Shutdown(t.selectors...) }

// LocalEdge is one population's Edge on a DeviceTier: opening a round is a
// function call that starts an EdgeRound on the tier's actor system over its
// Selectors, and the seal comes back to the Coordinator (or the relay) by
// reference — no codec, no copy. A LocalEdge outlives the Coordinators it
// serves and runs one round at a time: opening a round supersedes whatever
// round is running (a crashed predecessor's), and Finalize and Abort act
// only on the round they name.
type LocalEdge struct {
	tier       *DeviceTier
	population string
	// spares carries the round vectors — stripes, retained updates — from
	// one round to the next.
	spares fedavg.Spares
	// devices carries a released round's devices map to a later round.
	devices chan map[string]*session

	mu sync.Mutex
	// cur is the round running — task taskID, round round — until it seals
	// or is abandoned.
	cur    actor.Ref
	taskID string
	round  int64
}

// Open implements Edge.
func (e *LocalEdge) Open(cfg *EdgeRoundConfig, coord actor.Ref) error {
	local := *cfg
	local.Spares, local.devices = &e.spares, e.devices
	e.mu.Lock()
	defer e.mu.Unlock()
	e.abandon("superseded by a newer round")
	var ref actor.Ref
	ref = startEdgeRound(e.tier.sys, fmt.Sprintf("%sedge/%s/r%d", e.tier.prefix, cfg.Plan.ID, cfg.Round),
		local, e.tier.selectors, func(seal EdgeSeal) {
			e.mu.Lock()
			if e.cur == ref {
				e.cur = nil
			}
			e.mu.Unlock()
			_ = DeliverSeal(coord, e, seal)
		})
	e.cur, e.taskID, e.round = ref, cfg.Plan.ID, cfg.Round
	return nil
}

// Runs reports whether the edge's running round is (taskID, round).
func (e *LocalEdge) Runs(taskID string, round int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runs(taskID, round)
}

func (e *LocalEdge) runs(taskID string, round int64) bool {
	return e.cur != nil && e.taskID == taskID && e.round == round
}

// Finalize implements Edge.
func (e *LocalEdge) Finalize(taskID string, round int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.runs(taskID, round) {
		_ = e.cur.Send(msgEdgeFinalize{})
	}
	return nil
}

// Abort implements Edge.
func (e *LocalEdge) Abort(taskID string, round int64, reason string) {
	if taskID == "" {
		for _, sel := range e.tier.selectors {
			_ = sel.Send(msgReleaseParked{Population: e.population})
		}
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.runs(taskID, round) {
		e.abandon(reason)
	}
}

// Abandon fails whatever round the edge is running, without a seal, and
// reports whether one was.
func (e *LocalEdge) Abandon(reason string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.abandon(reason)
}

func (e *LocalEdge) abandon(reason string) bool {
	if e.cur == nil {
		return false
	}
	_ = e.cur.Send(msgAbandonRound{Reason: reason})
	e.cur = nil
	return true
}

// ProbeRates implements Edge.
func (e *LocalEdge) ProbeRates(coord actor.Ref) {
	for _, sel := range e.tier.selectors {
		_ = sel.Send(msgRateProbe{Population: e.population, To: coord})
	}
}
