package flserver

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// statsTimeout bounds how long a stats query waits for an actor before
// declaring it unresponsive. It is wall time on every clock: it guards the
// caller — an operator, a test — against a dead actor, and no behaviour of
// the system depends on it.
const statsTimeout = 5 * time.Second

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

// CheckinRouter is the device-facing accept path shared by the fleet gateway
// and the selector shards: each connection's first message must be a
// CheckinRequest, dispatched to a Selector round-robin (Selectors are "globally
// distributed, close to devices" in the paper; round-robin stands in for
// geographic affinity). A malformed first message goes to a Selector too,
// which answers it as it answers a check-in it cannot serve: a
// protocol-level rejection with a pace-steering hint, so misconfigured
// devices back off instead of hammering the accept loop.
type CheckinRouter struct {
	sys       *actor.System // runs the handlers; its Shutdown waits for them
	selectors []actor.Ref
	nextSel   uint64
}

// Serve accepts device connections from l until l closes, or until the
// router's system shuts down: a connection accepted then is closed.
func (r *CheckinRouter) Serve(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if !r.sys.Go(func() { defer r.sys.Done(); r.handleConn(conn) }) {
			_ = conn.Close()
			return
		}
	}
}

// handleConn reads a connection's first message into its session record and
// hands the record, or any other first message to be steered away, to a
// Selector: it owns the accept/reject decision and the steering. A peer gets
// abortGrace to send it, on the conn's deadline, which stays armed until the
// Selector or the round re-arms or lifts it: a peer silent or stalled
// mid-frame holds no goroutine and no fd past the bound.
func (r *CheckinRouter) handleConn(conn transport.Conn) {
	conn.Expire(abortGrace)
	d := &session{conn: conn}
	msg, err := transport.RecvInto(conn, &d.CheckinRequest)
	conn.Release() // a CheckinRequest owns its bytes; a leased frame of another code is refused
	if err != nil {
		// Nothing decodable arrived in time; there is no peer to steer.
		_ = conn.Close()
		return
	}
	var fwd actor.Message = d
	if msg != &d.CheckinRequest {
		fwd = msgRejectConn{Conn: conn, Reason: fmt.Sprintf("protocol error: expected CheckinRequest, got %T", msg)}
	}
	idx := atomic.AddUint64(&r.nextSel, 1) % uint64(len(r.selectors))
	if r.selectors[idx].Send(fwd) != nil {
		_ = conn.Close() // the Selector layer is shutting down
	}
}
