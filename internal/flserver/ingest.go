package flserver

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/robust"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// roundIngest is the striped edge-accumulation state of one non-secure
// round: GOMAXPROCS mutex-striped partial accumulators that the per-device
// connection readers fold decoded updates into directly. The per-device hot
// loop performs zero O(dim) allocations and zero O(dim) actor-mailbox hops;
// at the window close the stripes are sealed and merged into the round's
// one EdgeSeal (the Sec. 4.3 aggregation tree's first level).
type roundIngest struct {
	stripes []*fedavg.PartialAccumulator
	next    atomic.Uint64
}

// newRoundIngest builds one stripe per processor for dim-sized updates, over
// the edge's spare vectors where it has them (a nil stock allocates).
func newRoundIngest(dim int, spares *fedavg.Spares) *roundIngest {
	ri := &roundIngest{stripes: make([]*fedavg.PartialAccumulator, runtime.GOMAXPROCS(0))}
	for i := range ri.stripes {
		ri.stripes[i] = spares.NewPartial(dim)
	}
	return ri
}

// stripe hands out stripes round-robin, spreading concurrent readers across
// the stripe locks.
func (ri *roundIngest) stripe() *fedavg.PartialAccumulator {
	return ri.stripes[ri.next.Add(1)%uint64(len(ri.stripes))]
}

// close seals every stripe: folds that lost the race against finalization
// get fedavg.ErrPartialClosed instead of silently landing in a merged (or
// abandoned) round.
func (ri *roundIngest) close() {
	for _, s := range ri.stripes {
		s.Close()
	}
}

// respGate bounds concurrent off-goroutine response sends process-wide, so
// a flood of rejections cannot hold unbounded frame buffers in flight.
var respGate = actor.NewQueue[struct{}](256)

// sendThenClose delivers msg to conn on its own goroutine and then closes
// the connection. Every path that answers a device from an actor goroutine
// (EdgeRound rejections and aborts) routes through here: a stalled socket
// blocks one pooled goroutine for at most abortGrace — never an actor, never
// the round.
func sendThenClose(clock actor.Clock, conn transport.Conn, msg interface{}) {
	clock.Go(func() {
		respGate.Push(struct{}{}, clock)
		defer respGate.Pop(clock)
		sendWithGrace(clock, conn, msg)
	})
}

// sendWithGrace attempts one send, bounded by abortGrace, then closes the
// conn regardless — the Close is also what unblocks the Send if the peer
// checked in and then never drained its socket (Conn has no write
// deadline). This runs once per report on the hot path: the timer is
// stopped as soon as the (typical, microsecond) send completes, rather than
// leaving K live timers per round to expire on their own.
func sendWithGrace(clock actor.Clock, conn transport.Conn, msg interface{}) {
	grace := clock.AfterFunc(abortGrace, func() { _ = conn.Close() })
	_ = conn.Send(msg)
	grace.Stop()
	_ = conn.Close()
}

// abortGrace bounds one small frame either way: how long a device gets to
// take delivery of a response (an over-selected device's Abort) and how long
// a new connection gets to send its check-in, before the connection is torn
// down regardless.
const abortGrace = 5 * time.Second

// reportReader is what a per-device connection reader needs to consume one
// report at the edge: it decodes-and-accumulates into the round's stripes,
// or decodes into a spare vector its group's retention buffer keeps.
type reportReader struct {
	self   actor.Ref
	clock  actor.Clock
	taskID string // a report must name the task and round its session was configured for
	round  int64
	dim    int
	// secure rounds retain delta‖weight: the weight rides in the vector's
	// last slot, through the secure sum.
	secure   bool
	evalOnly bool
	ingest   *roundIngest
	// clip, when positive, is the norm-bound policy's L2 bound on each
	// update's per-example average: over-norm updates are folded through
	// checkpoint.Meta.AccumulateParamsScaled instead of AccumulateParams —
	// still two streaming passes over the wire bytes, still zero O(dim)
	// allocation.
	clip float64
	// clipped counts edge clips for the round (the EdgeRound's counter);
	// obsClipped is the task-labeled series, resolved once per round.
	clipped    *atomic.Int64
	obsClipped *metrics.Counter
}

// read blocks for one device's ReportRequest and consumes it at the edge:
// the O(devices × dim) decode work runs on the per-device reader goroutines
// concurrently. With no retention buffer, updates are dequantized straight
// into one of the round's accumulator stripes (zero O(dim) allocation, zero
// O(dim) mailbox hop); buf, the device's group buffer (a secure group's, or
// the round's one under a per-update robust policy), keeps a decoded
// spare vector for its group's reduce. The EdgeRound only ever sees
// fixed-size accounting messages.
//
// req.Update aliases the connection's leased receive buffer: every branch
// releases it once the bytes are dead — folded, decoded or refused — and
// before the ack goes out, so it serves another device's frame meanwhile.
func (r reportReader) read(deviceID string, conn transport.Conn, buf *robust.Buffer) {
	msg, err := conn.Recv()
	req, ok := msg.(protocol.ReportRequest)
	if err != nil || !ok {
		conn.Release() // Close never ends a lease: a refused leased frame would pin its buffer
		_ = conn.Close()
		obsDevicesLost.Inc()
		_ = r.self.Send(msgReportDone{DeviceID: deviceID})
		return
	}
	// Each verdict accounts first (a fixed-size message to the actor), then
	// answers the device from this goroutine — a stalled peer stalls only
	// its own reader, for at most abortGrace.
	reject := func(reason string) {
		conn.Release()
		obsReportsRejected.Inc()
		_ = r.self.Send(msgReportDone{DeviceID: deviceID})
		sendWithGrace(r.clock, conn, protocol.ReportResponse{Accepted: false, Reason: reason})
	}
	// settle maps a fold's outcome to the device's verdict. A fold that lost
	// the race against the closing of the reporting window (the '#' outcome
	// of Table 1) is answered without accounting: the round already settled
	// this device's fate.
	settle := func(err error) {
		conn.Release()
		switch {
		case errors.Is(err, fedavg.ErrPartialClosed):
			obsReportsLate.Inc()
			sendWithGrace(r.clock, conn, protocol.ReportResponse{Accepted: false, Reason: "reporting window closed"})
		case err != nil:
			reject(err.Error())
		default:
			obsReportsOK.Inc()
			_ = r.self.Send(msgReportDone{DeviceID: deviceID, OK: true})
			sendWithGrace(r.clock, conn, protocol.ReportResponse{Accepted: true})
		}
	}
	if req.TaskID != r.taskID || req.Round != r.round {
		reject(fmt.Sprintf("report for %s round %d, configured for %s round %d", req.TaskID, req.Round, r.taskID, r.round))
		return
	}
	if req.Aborted {
		reject("device aborted")
		return
	}
	if len(req.Update) == 0 {
		switch {
		case !r.evalOnly:
			// A training task must carry an update.
			reject("missing update")
		case buf != nil:
			settle(buf.AddEval(req.Metrics))
		default:
			settle(r.ingest.stripe().AddEval(req.Metrics))
		}
		return
	}
	meta, err := checkpoint.ParseMeta(req.Update)
	if err != nil {
		reject("bad update: " + err.Error())
		return
	}
	if meta.NumParams != r.dim {
		reject(fmt.Sprintf("update dim %d, want %d", meta.NumParams, r.dim))
		return
	}
	if !fedavg.ValidWeight(meta.Weight) {
		reject("non-positive or non-finite weight")
		return
	}
	if buf != nil {
		// Retention: decode into a spare vector the group's reduce (secagg
		// run, or trimmed mean / median / cosine) consumes at the seal.
		// Acceptance means "buffered" — a later secagg exclusion or
		// defensive trim is the server's business, attributed in the
		// EdgeSeal.
		settle(buf.Add(deviceID, meta.Weight, req.Metrics, func(dst tensor.Vector) error {
			if r.secure {
				dst[r.dim] = meta.Weight
				dst = dst[:r.dim]
			}
			return meta.DecodeParams(req.Update, dst)
		}))
		return
	}
	// Decode-and-accumulate at the edge: the wire bytes are folded
	// (dequantized, for Quant8) straight into a stripe of the round
	// accumulator, under that stripe's lock — no intermediate vector.
	// A norm-bound policy first measures the update's streaming norm; an
	// over-norm update is folded pre-scaled (two passes over the wire
	// bytes, still no intermediate vector).
	fold := func(sum tensor.Vector) error {
		return meta.AccumulateParams(req.Update, sum)
	}
	if r.clip > 0 {
		if scale := robust.ClipScale(meta.ParamNorm(req.Update), meta.Weight, r.clip); scale < 1 {
			fold = func(sum tensor.Vector) error {
				if err := meta.AccumulateParamsScaled(req.Update, sum, scale); err != nil {
					return err
				}
				// Counted inside the fold, under the stripe lock: a seal
				// drains the stripes under the same locks, so its Clipped
				// snapshot can never miss a clip whose fold is already in
				// the sum (clips == clipped folds, exactly).
				r.clipped.Add(1)
				obsRobustClipped.Inc()
				r.obsClipped.Inc()
				return nil
			}
		}
	}
	err = r.ingest.stripe().Accumulate(meta.Weight, req.Metrics, fold)
	if err == nil {
		obsEdgeFolds.Inc()
		obsEdgeFoldBytes.Add(int64(len(req.Update)))
	}
	settle(err)
}
