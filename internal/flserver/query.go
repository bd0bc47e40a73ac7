package flserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/pacing"
	"repro/internal/protocol"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Exported entry points for driving Selector, EdgeRound and Coordinator
// actors from outside the package: the sharded tier (internal/shard) composes
// these same actors across processes and talks to them through the functions
// here, so the actor message types stay private to this package.

// statsTimeout bounds how long a stats query waits for an actor before
// declaring it unresponsive.
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

// Hinter produces pace-steering reconnect hints outside any actor — on the
// connection accept path, where malformed or unroutable first messages are
// answered with a protocol-level rejection rather than a bare close. It
// guards its RNG so concurrent connection handlers can share one instance.
type Hinter struct {
	steering *pacing.Steering
	estimate int
	now      func() time.Time

	mu  sync.Mutex
	rng *tensor.RNG
}

// NewHinter builds a Hinter over the given steering (nil = one-minute
// cadence defaults) and population estimate.
func NewHinter(steering *pacing.Steering, populationEstimate int, seed uint64, now func() time.Time) *Hinter {
	if steering == nil {
		steering = pacing.New(time.Minute)
	}
	if populationEstimate <= 0 {
		populationEstimate = 1000
	}
	if now == nil {
		now = time.Now
	}
	return &Hinter{steering: steering, estimate: populationEstimate, now: now, rng: tensor.NewRNG(seed)}
}

// Hint suggests a reconnect delay for one rejected connection.
func (h *Hinter) Hint(demand int) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.steering.Suggest(h.estimate, demand, h.now(), h.rng)
}

// RejectConn answers a misbehaving or unroutable connection with a
// steering-backed protocol rejection, then closes it, so misconfigured
// devices back off instead of hammering the accept loop.
func (h *Hinter) RejectConn(conn transport.Conn, reason string) {
	_ = conn.Send(protocol.CheckinResponse{Accepted: false, Reason: reason, RetryAfter: h.Hint(1)})
	_ = conn.Close()
}

// CheckinRouter is the device-facing accept path shared by the fleet gateway
// and the selector shards: each connection's first message must be a
// CheckinRequest, dispatched to a Selector round-robin (Selectors are "globally
// distributed, close to devices" in the paper; round-robin stands in for
// geographic affinity). Malformed first messages get a protocol-level
// rejection with a pace-steering hint instead of a dropped connection.
type CheckinRouter struct {
	selectors []actor.Ref
	hinter    *Hinter
	nextSel   uint64
	// mu orders every handlers.Add before Wait's handlers.Wait: a connection
	// accepted while the owner tears down is closed, not counted.
	mu       sync.Mutex
	waited   bool
	handlers sync.WaitGroup
}

// NewCheckinRouter builds the accept path over a Selector layer.
func NewCheckinRouter(selectors []actor.Ref, hinter *Hinter) *CheckinRouter {
	return &CheckinRouter{selectors: selectors, hinter: hinter}
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
		go func() {
			defer r.handlers.Done()
			r.handleConn(conn)
		}()
	}
}

func (r *CheckinRouter) handleConn(conn transport.Conn) {
	msg, err := conn.Recv()
	if err != nil {
		// Nothing decodable arrived; there is no peer to steer.
		_ = conn.Close()
		return
	}
	req, ok := msg.(protocol.CheckinRequest)
	if !ok {
		r.hinter.RejectConn(conn, fmt.Sprintf("protocol error: expected CheckinRequest, got %T", msg))
		return
	}
	idx := atomic.AddUint64(&r.nextSel, 1) % uint64(len(r.selectors))
	// The Selector owns the accept/reject decision for the request's
	// population.
	if err := r.selectors[idx].Send(msgCheckin{Req: req, Conn: conn}); err != nil {
		r.hinter.RejectConn(conn, "selector unavailable")
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
