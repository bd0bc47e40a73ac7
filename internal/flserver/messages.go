// Package flserver implements the FL server of Sec. 4: an actor-based
// architecture with Coordinators (one per FL population, registered in a
// shared locking service), Selectors (accept and forward device
// connections), and per-round EdgeRounds that run the device-facing half
// of a round — delegating to ephemeral group Aggregator actors where the
// round needs them — and hand the Coordinator one sealed partial each. All
// round state lives in actor memory; only the fully aggregated result is
// committed to storage.
//
// The actors exchange the message types in this file. Device connections
// are transport.Conn streams; a goroutine per connection turns wire
// messages into actor messages.
package flserver

import (
	"time"

	"repro/internal/actor"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/robust"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// session is one device's connection through the server, from its decoded
// CheckinRequest to its verdict: the one record the CheckinRouter, a Selector
// (which may pool it), the round and the device's own goroutine pass by
// pointer. The round sets resp, buf and reader before that goroutine starts,
// which writes ok before it posts the record back as a *reportDone; the round
// writes reported and lost on its actor.
type session struct {
	protocol.CheckinRequest
	conn               transport.Conn
	resp               *versionResp   // the device's pre-framed configuration
	buf                *robust.Buffer // its group's retention buffer, or nil: stripes
	reader             *reportReader
	ok, reported, lost bool
}

// --- Selector messages (and a check-in's *session) ---

// msgRejectConn is posted by a connection handler whose peer's first message
// was not a check-in: the Selector steers it away.
type msgRejectConn struct {
	Conn   transport.Conn
	Reason string
}

// msgSetQuota tells a Selector how many devices to accept for a population
// on behalf of a round (Sec. 4.2), and so where to send them: every device
// accepted under a grant goes to its Owner as msgDevices, the pooled ones at
// once in one batch, later ones as they check in. A grant replaces whatever
// quota remained; Accept 0 revokes it when the round is staffed (nothing is
// left to revoke: it tells the Selector this round's selection is over),
// seals or is abandoned.
type msgSetQuota struct {
	Population string
	// Accept is the number of devices the Selector may accept for the round.
	Accept int
	// Owner is the round the quota belongs to. A revocation from any other
	// round is ignored: a superseded round's late revocation must not strip
	// the quota its successor was just granted.
	Owner actor.Ref
}

// msgQuotaTopUp replenishes a Selector's quota after an admitted device
// turned out not to count toward the round — a duplicate check-in of a
// device already configured, or a connection lost before its report. The
// round's effective admit count stays constant, so quota cannot be burned
// down below the seal target by completed devices checking in again while
// the window is still open.
type msgQuotaTopUp struct {
	Population string
	N          int
	// To is the round asking. The Selector serves only its quota's owner
	// (msgSetQuota.Owner): a superseded round's late top-up is ignored.
	To actor.Ref
}

// msgRegisterPopulation adds a population to a Selector at runtime.
type msgRegisterPopulation struct {
	Pop SelectorPopulation
}

// msgDeregisterPopulation removes a population from a Selector: parked
// devices are steered away and later check-ins rejected as unknown.
type msgDeregisterPopulation struct {
	Name string
}

// msgReleaseParked tells a Selector to steer one population's parked
// devices away and shut its pool (LocalEdge.Abort naming no round): no round
// will start for them, and none may sit on a half-open connection.
type msgReleaseParked struct {
	Population string
}

// msgRateProbe asks a Selector for one population's check-in arrivals since
// the last probe; the sample returns to To as msgCheckinRate. The
// Coordinator probes every scheduling tick and feeds the observed rates
// into the TaskSet's live population estimate (DESIGN.md §2a).
type msgRateProbe struct {
	Population string
	To         actor.Ref
}

// msgCheckinRate is one Selector's arrival sample for a population: Count
// check-ins observed over Elapsed, while steering hints were computed for
// per-selector demand Demand. A Selector only emits a sample once its
// window is long enough to carry signal.
type msgCheckinRate struct {
	// Source names the Selector (or, relayed by a shard, "shard-N/selector")
	// that observed the sample; the Coordinator keeps the latest per source.
	Source     string
	Population string
	Count      int64
	Elapsed    time.Duration
	Demand     int
}

// msgSelectorStats asks a Selector for its current counts; Population ""
// sums across every population the Selector serves.
type msgSelectorStats struct {
	Population string
	Reply      chan SelectorStats
}

// SelectorStats reports a Selector's connection counts and its quota
// ledger. The ledger is conserved: every quota slot a Coordinator grants is
// eventually consumed by an accepted device, revoked at seal/abandon/release,
// or still outstanding — QuotaGranted == QuotaConsumed + QuotaRevoked +
// QuotaOutstanding at every quiescent point. chaos.Verify asserts this after
// every fault scenario: a violation means a revoke/top-up cycle under churn
// double-counted or leaked a slot.
type SelectorStats struct {
	// Pooled counts devices in the standing pool of continuous selection:
	// checked in, unanswered, outside the ledger until a grant admits them.
	// It is the only set of connections a Selector parks.
	Pooled   int
	Accepted int64
	Rejected int64
	// UnknownPopulation counts check-ins rejected because no registered
	// population matched (only reported on the all-population totals).
	UnknownPopulation int64
	// Quota ledger (slots, cumulative).
	QuotaGranted     int64
	QuotaConsumed    int64
	QuotaRevoked     int64
	QuotaOutstanding int64
}

// Add folds another stats sample into s (summing across Selectors).
func (s *SelectorStats) Add(o SelectorStats) {
	s.Pooled += o.Pooled
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.UnknownPopulation += o.UnknownPopulation
	s.QuotaGranted += o.QuotaGranted
	s.QuotaConsumed += o.QuotaConsumed
	s.QuotaRevoked += o.QuotaRevoked
	s.QuotaOutstanding += o.QuotaOutstanding
}

// --- EdgeRound messages ---

// msgDevices delivers a pooled batch a Selector accepted under the round's
// quota; a device accepted at its check-in arrives as its own *session.
type msgDevices struct {
	Devices []*session
}

// msgSelectionTimeout fires when the plan's selection window closes: an
// EdgeRound still short of its minimum seals what it holds.
type msgSelectionTimeout struct{}

// reportDone is a configured session its goroutine posts back to the round
// after the O(dim) work already happened at the edge (a fold into a stripe, or
// a decode into a spare vector a group's buffer retains): only accounting
// crosses the mailbox. ok false is a device lost to the round: a rejected
// report (abort, malformed or mismatched update) or a connection that died.
type reportDone session

// msgFinalizeGroup tells an Aggregator to reduce its group and deliver the
// partial aggregate.
type msgFinalizeGroup struct {
	// Assigned lists the device ids configured into this group, in
	// assignment order. Secure groups derive their secagg instance size
	// from it: devices that were configured but never delivered an update
	// (connection died, timed out, aborted) become real dropouts in the
	// protocol's churn schedule rather than silently shrinking the group.
	// Empty means "size the instance by what was delivered" (tests).
	Assigned []string
	// Buf is the group's retention buffer, already closed by the EdgeRound:
	// a secure group's own (delta‖weight vectors), or the round's one
	// buffer for a per-update robust policy (trimmed mean / median /
	// cosine). The Aggregator drains it and runs its reduce.
	Buf *robust.Buffer
}

// msgGroupResult is an Aggregator's partial aggregate for the round.
type msgGroupResult struct {
	From    actor.Ref
	Sum     []float64
	Weight  float64
	Count   int
	Metrics map[string][]float64 // metric name -> per-device values
	// Err reports a finalization failure (e.g. the secagg run aborted).
	// The group's model updates are lost, but Count and Metrics still
	// describe the reports that never depended on the secure path.
	Err string
	// Blamed lists devices the secagg run excluded or rejected with an
	// attributed reason ("deviceID: reason") — poisoned share dealers,
	// forged unmask responders. Populated on success and on abort.
	Blamed []string
	// Phases maps secagg phase name (advertise, share, commit, unmask) to
	// the wall time this group spent in it, for the round tracer. Nil for
	// insecure groups (a robust reduce reports its cost under
	// "robust_reduce").
	Phases map[string]time.Duration
	// RobustRejected lists devices the round's robust policy rejected or
	// attributed, each as "deviceID: reason" — the defense-hit counterpart
	// of Blamed.
	RobustRejected []string
}

// --- Coordinator messages ---

// msgTick drives the Coordinator's scheduling. Periodic marks the
// self-re-arming timer tick of a Coordinator built with a tick period.
type msgTick struct{ Periodic bool }

// msgCrash makes a Coordinator panic (failure-injection tests).
type msgCrash struct{}

// msgAbandonRound tells an EdgeRound to fail its round immediately (the
// round was superseded, the coordinator link lost): held devices are aborted and group Aggregators stopped.
type msgAbandonRound struct {
	Reason string
}

// taskOp enumerates task lifecycle mutations.
type taskOp uint8

// Task lifecycle operations.
const (
	taskOpSubmit taskOp = iota + 1
	taskOpPause
	taskOpResume
	taskOpRetire
)

// msgTaskOp is one task lifecycle mutation (Sec. 7 model-engineer
// workflow), routed through the Coordinator's mailbox so it serializes
// with round scheduling: a task can never change state in the middle of a
// scheduling tick, and a retired task's in-flight round completes but is
// never rescheduled.
type msgTaskOp struct {
	Op     taskOp
	Plan   *plan.Plan   // submit
	Policy tasks.Policy // submit
	ID     string       // pause / resume / retire
	Reply  chan error
}

// msgTaskStats asks the Coordinator for its per-task lifecycle records.
type msgTaskStats struct {
	Reply chan []tasks.Stats
}

// msgCoordinatorStats asks for coordinator progress.
type msgCoordinatorStats struct {
	Reply chan CoordinatorStats
}

// CoordinatorStats reports rounds progress for a population.
type CoordinatorStats struct {
	RoundsCompleted int
	RoundsFailed    int
	CurrentRound    int64
	// Clipped totals norm-bound edge clips reported in seals across every
	// round so far.
	Clipped int64
}
