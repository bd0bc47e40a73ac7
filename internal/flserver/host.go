package flserver

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/tasks"
)

// popHost is what one FL population keeps across Coordinator incarnations:
// its task set, its place in the locking service, its defaults, and the
// supervision duty of Sec. 4.4 ("if the Coordinator dies, the Selector layer
// will detect this and respawn it") over whatever edges the host has at that
// moment. Where a population's edges live is deployment (Sec. 4.1: actors
// "may be co-located on the same process or distributed"), not a different
// program: the fleet gateway keeps one host per registered population over a
// LocalEdge, Server is the one-population fleet, and the sharded coordinator
// process is a host whose edges are its shard links.
//
// A popHost is an actor.Ref whose Send reaches the current incarnation, so
// whatever drives a Coordinator through a Ref — QueryTaskStats,
// QueryCoordinatorStats, EdgeUp, DeliverSeal — drives the host unchanged and
// keeps working across a respawn.
type popHost struct {
	sys *actor.System
	// owned marks a host that SuperviseCoordinator built around its own
	// actor system: stopping it shuts that system down.
	owned bool
	// p is what every incarnation is built from; its Edges are asked from
	// edges at each spawn, so a respawn sees links that attached or died since.
	p     CoordinatorParams
	edges func() []Edge

	mu      sync.Mutex
	coord   actor.Ref
	stopped bool
}

// newProcess returns what the population hosts of one OS process share
// (Sec. 4.2): the actor system their actors run on — and with it the
// process's one clock — and the locking service every population's
// Coordinator registers in.
func newProcess(clock actor.Clock) (*actor.System, *actor.LockService) {
	return actor.NewSystem(clock), actor.NewLockService()
}

// newPopHost validates p, fills its defaults and builds the population's
// task set, seeded with one Active default-policy task per plan (Seed checks
// every plan, its population, and rejects duplicate task IDs — they would
// silently share one checkpoint lineage). Nothing runs until start.
func newPopHost(sys *actor.System, p CoordinatorParams, plans []*plan.Plan, edges func() []Edge) (*popHost, error) {
	if p.Population == "" || p.Store == nil {
		return nil, fmt.Errorf("flserver: Population and Store are required")
	}
	if p.Steering == nil {
		p.Steering = pacing.New(time.Minute)
	}
	if p.PopulationEstimate <= 0 {
		p.PopulationEstimate = 1000
	}
	if p.Done == nil {
		p.Done = make(chan struct{})
	}
	ts, err := tasks.New(p.Population, p.Store)
	if err != nil {
		return nil, err
	}
	if err := ts.Seed(plans, sys.Clock().Now()); err != nil {
		return nil, err
	}
	ts.SetPopulationEstimate(p.PopulationEstimate)
	p.Tasks = ts
	return &popHost{sys: sys, p: p, edges: edges}, nil
}

// SuperviseCoordinator hosts one population on an actor system of its own,
// on the given clock (nil: the wall clock), and starts its supervised
// Coordinator over the edges that edges reports — the sharded coordinator
// process, whose edges are links that come and go. p's Lock, Tasks and Edges
// are the host's to fill. Stop on the returned Ref ends supervision and
// shuts the system down.
func SuperviseCoordinator(clock actor.Clock, p CoordinatorParams, plans []*plan.Plan, edges func() []Edge) (actor.Ref, error) {
	sys, lock := newProcess(clock)
	p.Lock = lock
	h, err := newPopHost(sys, p, plans, edges)
	if err != nil {
		return nil, err
	}
	h.owned = true
	h.start()
	return h, nil
}

// start spawns a Coordinator over the host's current edges, watches it, and
// kicks its first tick; a Coordinator that dies of a failure is replaced
// until the host stops. The watch precedes the tick, so even an instant
// crash is supervised, and the lock service keeps a single live owner even
// if several watchers race.
func (h *popHost) start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return
	}
	p := h.p
	p.Edges = h.edges()
	coord := h.sys.Spawn("coordinator/"+p.Population, newCoordinator(p))
	watcher := h.sys.Spawn("coordinator-watcher/"+p.Population, actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		if t, ok := msg.(actor.Terminated); ok && t.Ref == coord {
			if t.Failure {
				h.start()
			}
			ctx.Stop()
		}
	}))
	h.sys.Watch(coord, watcher)
	_ = coord.Send(msgTick{Periodic: true})
	h.coord = coord
}

// coordinator returns the current incarnation.
func (h *popHost) coordinator() actor.Ref {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.coord
}

// Name implements actor.Ref.
func (h *popHost) Name() string { return "coordinator/" + h.p.Population }

// Send implements actor.Ref: msg goes to the current incarnation. The error
// is non-nil when that one is dead, so a stats query cannot mistake a dead
// Coordinator for zero progress.
func (h *popHost) Send(msg actor.Message) error {
	coord := h.coordinator()
	if coord == nil {
		return fmt.Errorf("flserver: population %q still starting", h.p.Population)
	}
	return coord.Send(msg)
}

// Stop implements actor.Ref: supervision ends and the current incarnation
// stops.
func (h *popHost) Stop() {
	h.mu.Lock()
	h.stopped = true
	coord := h.coord
	h.mu.Unlock()
	switch {
	case h.owned:
		h.sys.Shutdown()
	case coord != nil:
		coord.Stop()
	}
}

// Stopped implements actor.Ref.
func (h *popHost) Stopped() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stopped
}
