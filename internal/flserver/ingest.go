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
	"repro/internal/wire"
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

// sendThenClose delivers msg to conn on a goroutine of sys and then closes
// the connection (at once, with sys down). Every path that answers a device
// from an actor goroutine (EdgeRound rejections and aborts) routes through
// here: a stalled socket blocks one pooled goroutine for at most abortGrace —
// never an actor, never the round.
func sendThenClose(sys *actor.System, conn transport.Conn, msg interface{}) {
	if !sys.Go(func() {
		defer sys.Done()
		respGate.Push(struct{}{}, sys.Clock())
		defer respGate.Pop(sys.Clock())
		sendWithGrace(conn, msg)
	}) {
		_ = conn.Close()
	}
}

// sendWithGrace attempts one send, bounded by abortGrace on the conn's
// deadline, then closes the conn regardless.
func sendWithGrace(conn transport.Conn, msg interface{}) {
	conn.Expire(abortGrace)
	_ = conn.Send(msg)
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
	self       actor.Ref
	configured time.Duration // bounds the configuration send and the report's read
	taskID     string        // a report must name the task and round its session was configured for
	round      int64
	dim        int
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

var reportAccepted any = protocol.ReportResponse{Accepted: true} // every report the round takes

// done posts d back to its round with its verdict.
func (r *reportReader) done(d *session, ok bool) {
	d.ok = ok
	_ = r.self.Send((*reportDone)(d))
}

// read blocks for one device's ReportRequest and consumes it at the edge:
// the O(devices × dim) decode work runs on the per-device reader goroutines
// concurrently. With no retention buffer, updates are dequantized straight
// into one of the round's accumulator stripes (zero O(dim) allocation, zero
// O(dim) mailbox hop); d.buf, the device's group buffer (a secure group's, or
// the round's one under a per-update robust policy), keeps a decoded
// spare vector for its group's reduce. The EdgeRound only ever sees
// fixed-size accounting messages.
//
// The report decodes into req, on the reader's stack, which holds the
// session's device ID and the round's task ID: a report that names them
// allocates neither string. req.Update aliases the connection's leased
// receive buffer: it is released once the bytes are dead — folded, decoded
// or refused — and before the ack goes out, so it serves another device's
// frame meanwhile; a metrics map the link decoded goes back to wire's stock,
// its values tallied.
func (r *reportReader) read(d *session) {
	req := protocol.ReportRequest{DeviceID: d.DeviceID, TaskID: r.taskID}
	if msg, err := transport.RecvInto(d.conn, &req); err != nil || msg != &req {
		d.conn.Release() // Close never ends a lease: a refused leased frame would pin its buffer
		_ = d.conn.Close()
		obsDevicesLost.Inc()
		r.done(d, false)
		return
	}
	// The verdict's frame is gone before the ack's are pushed: a reader's
	// stack holds the fold or the send, never both.
	verdict := r.consume(d, &req)
	if req.Metrics != nil && transport.Decodes(d.conn) {
		wire.PutF64Map(req.Metrics)
	}
	sendWithGrace(d.conn, verdict)
}

// consume folds or retains req, releases its lease, accounts for it and
// returns the device's verdict. Each verdict accounts by posting d to the
// actor, which may block; the reader then answers the device from its
// goroutine — a stalled peer stalls only its own reader, for at most
// abortGrace.
func (r *reportReader) consume(d *session, req *protocol.ReportRequest) any {
	reject := func(reason string) any {
		d.conn.Release()
		obsReportsRejected.Inc()
		r.done(d, false)
		return protocol.ReportResponse{Accepted: false, Reason: reason}
	}
	// settle maps a fold's outcome to the device's verdict. A fold that lost
	// the race against the closing of the reporting window (the '#' outcome
	// of Table 1) is answered without accounting: the round already settled
	// this device's fate.
	settle := func(err error) any {
		d.conn.Release()
		switch {
		case errors.Is(err, fedavg.ErrPartialClosed):
			obsReportsLate.Inc()
			return protocol.ReportResponse{Accepted: false, Reason: "reporting window closed"}
		case err != nil:
			return reject(err.Error())
		default:
			obsReportsOK.Inc()
			r.done(d, true)
			return reportAccepted
		}
	}
	if req.TaskID != r.taskID || req.Round != r.round {
		return reject(fmt.Sprintf("report for %s round %d, configured for %s round %d", req.TaskID, req.Round, r.taskID, r.round))
	}
	if req.DeviceID != d.DeviceID {
		return reject(fmt.Sprintf("report from %q on the session of %q", req.DeviceID, d.DeviceID))
	}
	if req.Aborted {
		return reject("device aborted")
	}
	if len(req.Update) == 0 {
		switch {
		case !r.evalOnly:
			// A training task must carry an update.
			return reject("missing update")
		case d.buf != nil:
			return settle(d.buf.AddEval(req.Metrics))
		default:
			return settle(r.ingest.stripe().AddEval(req.Metrics))
		}
	}
	meta, err := checkpoint.ParseMeta(req.Update)
	if err != nil {
		return reject("bad update: " + err.Error())
	}
	if meta.NumParams != r.dim {
		return reject(fmt.Sprintf("update dim %d, want %d", meta.NumParams, r.dim))
	}
	if !fedavg.ValidWeight(meta.Weight) {
		return reject("non-positive or non-finite weight")
	}
	if d.buf != nil {
		// Retention: decode into a spare vector the group's reduce (secagg
		// run, or trimmed mean / median / cosine) consumes at the seal.
		// Acceptance means "buffered" — a later secagg exclusion or
		// defensive trim is the server's business, attributed in the
		// EdgeSeal.
		return settle(d.buf.Add(d.DeviceID, meta.Weight, req.Metrics, func(dst tensor.Vector) error {
			if r.secure {
				dst[r.dim] = meta.Weight
				dst = dst[:r.dim]
			}
			return meta.DecodeParams(req.Update, dst)
		}))
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
	return settle(err)
}
