package flserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/protocol"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// Exported entry points for driving Selector, EdgeRound and Coordinator
// actors from outside the package: the sharded tier (internal/shard) composes
// these same actors across processes and talks to them through the functions
// here, so the actor message types stay private to this package.

// statsTimeout bounds how long a stats query waits for an actor before
// declaring it unresponsive. It is wall time on every clock: it guards the
// caller — an operator, a test — against a dead actor, and no behaviour of
// the system depends on it.
const statsTimeout = 5 * time.Second

// RegisterSelectorPopulation adds a population to a running Selector.
func RegisterSelectorPopulation(sel actor.Ref, pop SelectorPopulation) error {
	return sel.Send(msgRegisterPopulation{Pop: pop})
}

// ReleaseParked steers one population's parked devices away with a
// reconnect hint and zeroes its quota, keeping the population registered.
// The sharded tier uses this when a selector process loses its coordinator
// link: parked devices must be told "retry later", not stranded on open
// connections waiting for a round that cannot start.
func ReleaseParked(sel actor.Ref, population string) error {
	return sel.Send(msgReleaseParked{Population: population})
}

// ProbeCheckinRate asks a Selector for one population's check-in arrivals
// since the last probe; the sample is delivered to `to` (spawn one with
// NewRateForwarder to receive it outside this package).
func ProbeCheckinRate(sel actor.Ref, population string, to actor.Ref) error {
	return sel.Send(msgRateProbe{Population: population, To: to})
}

// rateForwarder converts Selector rate samples into a callback, so code
// outside this package (the sharded selector process, which relays samples
// to its coordinator over the wire) can consume them without seeing the
// private message types.
type rateForwarder struct {
	fn func(source, population string, count int64, elapsed time.Duration, demand int)
}

// NewRateForwarder returns a behavior that invokes fn (on the actor
// goroutine) for every check-in rate sample sent to it; source names the
// Selector that observed the sample.
func NewRateForwarder(fn func(source, population string, count int64, elapsed time.Duration, demand int)) actor.Behavior {
	return &rateForwarder{fn: fn}
}

// Receive implements actor.Behavior.
func (rf *rateForwarder) Receive(ctx *actor.Context, msg actor.Message) {
	if m, ok := msg.(msgCheckinRate); ok {
		rf.fn(m.Source, m.Population, m.Count, m.Elapsed, m.Demand)
	}
}

// ask sends an actor one request carrying a reply channel and waits for
// the answer. The error is non-nil when the actor is stopped or does not
// answer within statsTimeout — callers must not mistake a dead actor for a
// zero-valued answer.
func ask[T any](ref actor.Ref, what string, request func(reply chan T) actor.Message) (T, error) {
	var zero T
	reply := make(chan T, 1)
	if err := ref.Send(request(reply)); err != nil {
		return zero, fmt.Errorf("flserver: %s: %w", what, err)
	}
	select {
	case v := <-reply:
		return v, nil
	case <-time.After(statsTimeout):
		return zero, fmt.Errorf("flserver: %s did not answer %s within %v", ref.Name(), what, statsTimeout)
	}
}

// taskOpRequest routes one lifecycle mutation through the Coordinator's
// mailbox and returns its verdict: the mutation's own error (unknown task,
// duplicate ID, bad transition) or a transport-level one.
func taskOpRequest(coord actor.Ref, m msgTaskOp) error {
	verdict, err := ask(coord, "task op", func(reply chan error) actor.Message {
		m.Reply = reply
		return m
	})
	if err != nil {
		return err
	}
	return verdict
}

// QueryTaskStats asks a Coordinator for every task's lifecycle record, in
// submission order. Routed through the mailbox so the snapshot can never
// interleave with a mid-commit round.
func QueryTaskStats(coord actor.Ref) ([]tasks.Stats, error) {
	return ask(coord, "task stats", func(reply chan []tasks.Stats) actor.Message { return msgTaskStats{Reply: reply} })
}

// QueryCoordinatorStats asks a Coordinator for its round progress.
func QueryCoordinatorStats(coord actor.Ref) (CoordinatorStats, error) {
	return ask(coord, "coordinator stats", func(reply chan CoordinatorStats) actor.Message {
		return msgCoordinatorStats{Reply: reply}
	})
}

// QuerySelectorStats asks one Selector for its counts; population "" sums
// across every population the Selector serves.
func QuerySelectorStats(sel actor.Ref, population string) (SelectorStats, error) {
	return ask(sel, "selector stats", func(reply chan SelectorStats) actor.Message {
		return msgSelectorStats{Population: population, Reply: reply}
	})
}

// SumSelectorStats sums one population's counts (or, for "", every
// population's) across a Selector layer. The error is non-nil when any
// Selector is dead or unresponsive.
func SumSelectorStats(selectors []actor.Ref, population string) (SelectorStats, error) {
	var total SelectorStats
	for _, sel := range selectors {
		st, err := QuerySelectorStats(sel, population)
		if err != nil {
			return SelectorStats{}, err
		}
		total.Add(st)
	}
	return total, nil
}

// CheckinRouter is the device-facing accept path shared by the fleet gateway
// and the selector shards: each connection's first message must be a
// CheckinRequest, dispatched to a Selector round-robin (Selectors are "globally
// distributed, close to devices" in the paper; round-robin stands in for
// geographic affinity). A malformed first message goes to a Selector too,
// which answers it as it answers a check-in it cannot serve: a
// protocol-level rejection with a pace-steering hint, so misconfigured
// devices back off instead of hammering the accept loop.
type CheckinRouter struct {
	clock     actor.Clock
	selectors []actor.Ref
	nextSel   uint64
	// mu orders every handlers.Add before Wait's handlers.Wait: a connection
	// accepted while the owner tears down is closed, not counted.
	mu       sync.Mutex
	waited   bool
	handlers sync.WaitGroup
}

// NewCheckinRouter builds the accept path over a Selector layer, its
// per-connection handlers running on clock.
func NewCheckinRouter(clock actor.Clock, selectors []actor.Ref) *CheckinRouter {
	return &CheckinRouter{clock: clock, selectors: selectors}
}

// Serve accepts device connections from l until l closes.
func (r *CheckinRouter) Serve(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.waited {
			r.mu.Unlock()
			_ = conn.Close()
			return
		}
		r.handlers.Add(1)
		r.mu.Unlock()
		r.clock.Go(func() {
			defer r.handlers.Done()
			r.handleConn(conn)
		})
	}
}

func (r *CheckinRouter) handleConn(conn transport.Conn) {
	msg, err := conn.Recv()
	if err != nil {
		// Nothing decodable arrived; there is no peer to steer.
		_ = conn.Close()
		return
	}
	// The Selector owns the accept/reject decision for the request's
	// population, and the clock and steering a rejection is made with.
	var fwd actor.Message
	if req, ok := msg.(protocol.CheckinRequest); ok {
		fwd = msgCheckin{Req: req, Conn: conn}
	} else {
		fwd = msgRejectConn{Conn: conn, Reason: fmt.Sprintf("protocol error: expected CheckinRequest, got %T", msg)}
	}
	idx := atomic.AddUint64(&r.nextSel, 1) % uint64(len(r.selectors))
	if r.selectors[idx].Send(fwd) != nil {
		_ = conn.Close() // the Selector layer is shutting down
	}
}

// Wait blocks until in-flight connection handlers finish (teardown, after
// the listener closed).
func (r *CheckinRouter) Wait() {
	r.mu.Lock()
	r.waited = true
	r.mu.Unlock()
	r.handlers.Wait()
}
