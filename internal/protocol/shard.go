package protocol

import "time"

// Sharded-deployment wire messages (Sec. 4.2–4.3 scaled out across
// processes): a fleet of flselector processes terminates device
// connections and runs the edge decode-and-accumulate stripes; one
// coordinator process owns round state, task sets and pacing. The messages
// below flow on the selector↔coordinator peer links managed by
// internal/remote. Like the device messages, they ride the length-prefixed
// binary codec — see codec.go.

// ShardHello is the first message on a fresh selector→coordinator
// connection: it announces the shard's identity so the coordinator can
// (re)attach round state to the link.
type ShardHello struct {
	// Shard is the stable shard index (0-based).
	Shard uint32
	// Name is a human-readable shard label for logs and stats.
	Name string
}

// Heartbeat keeps a peer link's liveness fresh in both directions. The
// sender picks a sequence number; the receiver echoes it with Ack set.
// Missed echoes mark the peer dead (internal/remote).
type Heartbeat struct {
	Seq uint64
	Ack bool
}

// ActorEnvelope carries a message addressed to a named actor on the peer
// process. Payload is the type code of any other protocol message followed
// by its binary body. No product link sends one: it is the frame of
// remote's frozen Ref (frozen.go), kept for benchmark/ until ROADMAP 14.
type ActorEnvelope struct {
	// Target names the destination actor in the peer's registry.
	Target  string
	Payload []byte
}

// RoundConfig opens a round on a selector shard (coordinator→shard): the
// shard should select Admit devices for the task, serve them the plan and
// checkpoint, and run the device-facing round at its edge. Everything the
// plan itself states — windows, aggregation mode, robust policy, report
// encoding — is read from Plan, which the shard decodes once per round;
// only what the plan cannot know (this shard's share of the round and the
// task policy's runtime floor) rides as fields. Plan and Checkpoint are
// multi-MB payloads marshaled once by the coordinator and fanned out to
// every shard via vectored writes (the segments are aliased, never copied
// into the frame).
type RoundConfig struct {
	Population string
	TaskID     string
	Round      int64
	// Target is the number of device reports this shard should collect.
	Target int
	// Admit is how many devices the shard should select (over-selection,
	// Sec. 2.2); 0 defaults to Target.
	Admit int
	// MinReports is this shard's share of the round's minimum report
	// count: a shard that has configured fewer devices when the plan's
	// SelectionTimeout expires seals what it holds instead of waiting out
	// the report window.
	MinReports int
	// MinRuntime is the task policy's device-runtime floor (0 = none):
	// older devices are rejected rather than served a lowered plan.
	MinRuntime int
	// Estimate is the coordinator's static population estimate, used by the
	// shard's pace steering: the value every source steers with.
	Estimate   int
	Plan       []byte
	Checkpoint []byte
}

// RoundFinalize tells a shard to seal its stripes NOW and ship whatever it
// holds (coordinator→shard, sent when the round's global report window
// closes before every shard met its local target).
type RoundFinalize struct {
	Population string
	TaskID     string
	Round      int64
}

// RoundAbort abandons a round. Coordinator→shard when the round failed
// globally; shard→coordinator when the shard cannot run it.
type RoundAbort struct {
	Population string
	TaskID     string
	Round      int64
	Reason     string
}

// StripeSeal ships a shard's sealed round upstream (shard→coordinator) at
// round finalize: the raw delta sum over every update the shard accepted —
// folded at the edge, or merged from its Secure Aggregation group sums —
// plus the weight/count bookkeeping, loss accounting and metric samples.
// This is the aggregation tree crossing the process boundary — device
// updates never do. Sum is the fedavg.MarshalSumInto wire form and is aliased
// into the frame by the codec, so a multi-MB partial is written straight
// from the seal buffer.
type StripeSeal struct {
	Population string
	TaskID     string
	Round      int64
	Shard      uint32
	// Reports counts device updates folded into Sum; EvalReports counts
	// metrics-only reports; Lost counts devices that vanished mid-round;
	// Aborted counts configured devices the seal told to stop because the
	// shard had enough reports (over-selection, Sec. 2.2).
	Reports     int64
	EvalReports int64
	Lost        int64
	Aborted     int64
	// Clipped counts updates the round's norm-bound policy clipped at this
	// shard's edge before folding.
	Clipped int64
	Weight  float64
	// Sum is the marshaled raw delta sum (fedavg.MarshalSumInto); empty when
	// Reports is zero.
	Sum []byte
	// Metrics are the device-reported metric samples collected by the
	// shard's stripes.
	Metrics map[string][]float64
	// Phases carries the shard's per-phase durations (nanoseconds, keyed
	// by metrics phase name) for this round's edge work, so the coordinator's
	// round trace covers the whole deployment, not just its own process.
	Phases map[string]int64
	// Blamed lists devices Secure Aggregation excluded with attribution,
	// GroupErrors the shard's per-group finalization failures, and
	// RobustRejected the devices a retention policy rejected or attributed
	// — each entry "deviceID: reason" (GroupErrors: free text).
	Blamed         []string
	GroupErrors    []string
	RobustRejected []string
}

// TelemetrySnapshot ships one process's metrics registry export upstream
// (shard→coordinator) on a periodic timer, so the coordinator's /metrics
// surface aggregates the fleet: selector check-in counters, per-shard seal
// latency summaries, secagg blame/dropout counts. Summaries are vectors in
// metrics summaryFields order [count, mean, std, min, max, p50, p90, p99].
type TelemetrySnapshot struct {
	Shard uint32
	// Name is the shard's human-readable label (mirrors ShardHello.Name).
	Name      string
	Counters  map[string]int64
	Gauges    map[string]float64
	Summaries map[string][]float64
}

// CheckinRate reports a shard's observed device check-in rate
// (shard→coordinator), the raw material for cross-shard live population
// estimation (pacing.RateTracker aggregates one sample stream per shard).
type CheckinRate struct {
	Population string
	Shard      uint32
	// Source names the Selector actor within the shard that observed the
	// sample, so a shard running several Selectors contributes one
	// distinguishable sample stream per Selector.
	Source string
	// Count check-ins were observed over Elapsed.
	Count   int64
	Elapsed time.Duration
	// Demand is the shard's current selection demand, used to invert the
	// steering policy's mean wait.
	Demand int64
}
