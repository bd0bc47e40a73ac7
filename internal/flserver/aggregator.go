package flserver

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/actor"
	"repro/internal/fedavg"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/robust"
	"repro/internal/secagg"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Aggregator is the ephemeral per-group aggregation actor (Sec. 4.2) an
// EdgeRound spawns for the two kinds of round whose reports cannot fold
// straight into stripes. Under Secure Aggregation it buffers its group's
// inputs and runs the secagg protocol at finalization, so the group sum is
// produced without the aggregate code path ever handling an unmasked
// individual update. Under a per-update robust policy a single Aggregator
// drains the round's retention buffer and runs the robust reduce.
type Aggregator struct {
	dim    int
	master actor.Ref

	// threshold maps group size n to the secagg Shamir threshold t; nil
	// defaults to the majority n/2 + 1. Set by the EdgeRound from the plan
	// before spawn (same-package field injection).
	threshold func(n int) int
	// finalizeTimeout bounds the async secagg run; 0 defaults to
	// plan.ServerPlan's 2-minute fallback. A run that exceeds it is
	// abandoned with an attributed group error instead of stalling the
	// round.
	finalizeTimeout time.Duration
	// churn, when set (tests, simulation), injects additional mid-protocol
	// churn into the group's secagg schedule on top of the real losses.
	churn func(n, t int) secagg.Schedule
	// robustPolicy is the task's robust aggregation policy; the group that
	// receives the round's retention buffer (msgFinalizeGroup.Robust) runs
	// its reduce at finalization. Injected by the EdgeRound before spawn,
	// like threshold, along with the task-labeled defense counters.
	robustPolicy                    plan.RobustPolicy
	obsRejectedTask, obsTrimmedTask *metrics.Counter

	// sum, weight, count are the group's raw sums (addSum): the secagg run's
	// decoded aggregate or the robust reduce's pre-scaled one, handed to the
	// EdgeRound as they are.
	sum     tensor.Vector
	weight  float64
	count   int
	metrics map[string][]float64
	// evalCount counts metrics-only reports (evaluation tasks).
	evalCount int

	// secure-mode buffer: device inputs awaiting the secagg run, keyed by
	// 1-based secagg participant id; secDevice maps those ids back to
	// device identity for blame attribution.
	secInputs map[int][]float64
	secDevice map[int]string
	secNext   int
	// secBufs are the pool's pointers to the buffers behind secInputs.
	secBufs []*tensor.Vector
	// secBlamed carries the secagg run's attributed exclusions into the
	// group result.
	secBlamed []string
	// robustRejected carries the robust reduce's defense attributions
	// ("deviceID: reason") into the group result.
	robustRejected []string
	// secPhases carries the secagg run's per-phase wall times into the
	// group result for the round tracer.
	secPhases map[string]time.Duration
	// finalizing is set once msgFinalizeGroup arrives; the actor may stay
	// alive awaiting msgSecAggDone and must reject any late adds. done is
	// set once the group result has been reported, so a late secagg result
	// racing the finalization watchdog cannot double-report.
	finalizing bool
	done       bool
	// watchdog is the armed finalization deadline, stopped in finish: left
	// to expire it would keep every finished group's actor — and its
	// mailbox — reachable for a full finalizeTimeout.
	watchdog actor.Timer
}

// NewAggregator returns the behavior for a group aggregator reporting to
// master (its EdgeRound).
func NewAggregator(dim int, master actor.Ref) *Aggregator {
	return &Aggregator{
		dim:       dim,
		master:    master,
		metrics:   make(map[string][]float64),
		secInputs: make(map[int][]float64),
		secDevice: make(map[int]string),
		secNext:   1,
	}
}

// msgAddUpdate delivers one device's report to its secure group Aggregator,
// straight from the device's connection reader (the EdgeRound hop is
// skipped; secagg needs the per-device vectors buffered).
type msgAddUpdate struct {
	DeviceID string
	// Input is a pre-validated pooled delta‖weight buffer of length dim+1
	// decoded at the edge; the Aggregator owns it from here and returns it
	// to the pool once the secagg run has consumed it. Nil marks a
	// metrics-only report (evaluation task).
	Input   *tensor.Vector
	Metrics map[string]float64
	// Conn, when set, is the device's connection awaiting the
	// ReportResponse; the Aggregator answers it off the actor goroutine.
	Conn transport.Conn
}

// msgSecAggDone posts the result of an async secagg run back to the group
// Aggregator that launched it.
type msgSecAggDone struct {
	Sum       []float64
	Survivors int
	// Blamed lists devices the run excluded with attribution
	// ("deviceID: reason"); populated on success and on abort.
	Blamed []string
	// Phases is the run's per-phase wall time (secagg.Result.Phases).
	Phases map[string]time.Duration
	Err    error
}

// msgSecAggTimeout fires when a group's secagg finalization exceeds its
// deadline; the group reports an attributed failure instead of stalling
// the round.
type msgSecAggTimeout struct{}

// secaggSlots bounds concurrent secagg finalizations process-wide: each run
// saturates the cores with its own worker pools, so admitting more than
// GOMAXPROCS at once only multiplies transient partial-vector memory
// (O(workers × dim) per run) without adding throughput.
var secaggSlots = actor.NewQueue[struct{}](runtime.GOMAXPROCS(0))

// Receive implements actor.Behavior.
func (a *Aggregator) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case msgAddUpdate:
		a.onAdd(ctx, m)
	case msgFinalizeGroup:
		a.onFinalize(ctx, m)
	case msgSecAggDone:
		a.onSecAggDone(ctx, m)
	case msgSecAggTimeout:
		a.onSecAggTimeout(ctx)
	}
}

func (a *Aggregator) onAdd(ctx *actor.Context, m msgAddUpdate) {
	// resolve reports the verdict: to the device (off the actor goroutine —
	// a stalled socket must never block the group) and to the EdgeRound for
	// round accounting.
	resolve := func(ok bool, reason string) {
		if ok {
			obsReportsOK.Inc()
		} else {
			obsReportsRejected.Inc()
		}
		if m.Conn != nil {
			sendThenClose(ctx.System.Clock(), m.Conn, protocol.ReportResponse{Accepted: ok, Reason: reason})
		}
		_ = a.master.Send(msgReportDone{DeviceID: m.DeviceID, OK: ok})
	}
	if a.finalizing {
		if m.Input != nil {
			updateBufPool.Put(m.Input)
		}
		resolve(false, "reporting window closed")
		return
	}
	if m.Input == nil {
		a.evalCount++
	} else {
		// The appended weight element rides through the secure sum so the
		// server learns Σn without individual n's.
		if len(*m.Input) != a.dim+1 {
			updateBufPool.Put(m.Input)
			resolve(false, fmt.Sprintf("update dim %d, want %d", len(*m.Input)-1, a.dim))
			return
		}
		a.secInputs[a.secNext] = *m.Input
		a.secBufs = append(a.secBufs, m.Input)
		a.secDevice[a.secNext] = m.DeviceID
		a.secNext++
	}
	for name, v := range m.Metrics {
		a.metrics[name] = append(a.metrics[name], v)
	}
	resolve(true, "")
}

func (a *Aggregator) onFinalize(ctx *actor.Context, m msgFinalizeGroup) {
	a.finalizing = true
	// Run the round's robust reduce (per-update retention policies): the
	// buffer holds every decoded update of the round, and the policy's
	// order statistic or outlier filter replaces the plain stripe merge.
	// Result vectors never alias the pooled update buffers, so they are
	// released immediately.
	if m.Robust != nil {
		updates, evalCount, metrics := m.Robust.Drain()
		start := time.Now()
		res := robust.Reduce(a.robustPolicy, a.dim, updates)
		reduceTime := time.Since(start)
		robust.Release(updates)
		a.evalCount += evalCount
		for name, vs := range metrics {
			a.metrics[name] = append(a.metrics[name], vs...)
		}
		for _, rej := range res.Rejected {
			a.robustRejected = append(a.robustRejected, rej.Device+": "+rej.Reason)
		}
		sort.Strings(a.robustRejected)
		a.secPhases = map[string]time.Duration{"robust_reduce": reduceTime}
		obsRobustRejected.Add(int64(len(res.Rejected)))
		obsRobustTrimmed.Add(res.Trimmed)
		if a.obsRejectedTask != nil {
			a.obsRejectedTask.Add(int64(len(res.Rejected)))
			a.obsTrimmedTask.Add(res.Trimmed)
		}
		if res.Count > 0 {
			if err := a.addSum(res.Sum, res.Weight, res.Count); err != nil {
				a.finish(ctx, "robust reduce: "+err.Error())
				return
			}
		}
	}
	if len(a.secInputs) > 0 {
		delivered := len(a.secInputs)
		if delivered < 2 {
			// A singleton "group sum" IS the individual update, so a
			// direct-sum fallback would hand the server exactly what Secure
			// Aggregation exists to hide. Refuse and drop the update; the
			// EdgeRound partitions groups so this cannot happen short of a
			// starved round or an adversarial configuration.
			a.finish(ctx, fmt.Sprintf("secagg: group of %d below minimum 2; update dropped", delivered))
			return
		}
		// The instance is sized by the devices assigned to the group, not
		// by what happened to arrive: a configured device whose connection
		// died or timed out is a real protocol dropout, entered into the
		// churn schedule at the share-keys boundary (it checked in —
		// advertised — but never dealt shares, so it is excluded from the
		// mask set and its loss costs nothing at unmask time).
		n := delivered
		var lostNames []string
		if len(m.Assigned) > 0 && len(m.Assigned) > delivered {
			n = len(m.Assigned)
			deliveredNames := make(map[string]bool, delivered)
			for _, name := range a.secDevice {
				deliveredNames[name] = true
			}
			for _, name := range m.Assigned {
				if !deliveredNames[name] {
					lostNames = append(lostNames, name)
				}
			}
		}
		t := n/2 + 1
		if a.threshold != nil {
			t = a.threshold(n)
		}
		if delivered < t {
			// Below-threshold churn: a clean, attributed abort that still
			// carries the group's metrics — never a stall, and never a
			// degraded run that would weaken the privacy threshold.
			a.finish(ctx, fmt.Sprintf("secagg: only %d of %d group devices delivered (< threshold %d); lost: %s",
				delivered, n, t, strings.Join(lostNames, ", ")))
			return
		}
		sched := secagg.Schedule{}
		if a.churn != nil {
			sched = a.churn(n, t)
		}
		inputs := a.secInputs
		for id := delivered + 1; id <= n; id++ {
			// Lost devices participate up to the phase where their loss
			// signal places them: present at check-in, gone before dealing
			// shares. Their nil input is never read.
			inputs[id] = nil
			sched.DropShareKeys = append(sched.DropShareKeys, id)
		}
		cfg := secagg.Config{N: n, T: t, VectorLen: a.dim + 1}
		secDevice, bufs := a.secDevice, a.secBufs
		a.secInputs, a.secBufs = nil, nil
		self := ctx.Self
		if a.finalizeTimeout > 0 {
			a.watchdog = ctx.After(a.finalizeTimeout, msgSecAggTimeout{})
		}
		// Run the protocol off the actor goroutine so multiple group
		// Aggregators finalize concurrently; the result comes back as a
		// message and the actor stays alive until it lands.
		clock := ctx.System.Clock()
		clock.Go(func() {
			// Receive's panic isolation does not cover this goroutine;
			// convert a protocol panic into a failed finalization so it
			// costs the group, not the process.
			defer func() {
				if r := recover(); r != nil {
					_ = self.Send(msgSecAggDone{Err: fmt.Errorf("secagg panic: %v", r)})
				}
			}()
			secaggSlots.Push(struct{}{}, clock)
			defer secaggSlots.Pop(clock)
			res, err := secagg.RunSchedule(cfg, inputs, sched)
			// The protocol consumed the inputs (Encode copies them into
			// field elements); hand the buffers back so the next round's
			// readers reuse them instead of allocating O(group × dim).
			for _, b := range bufs {
				updateBufPool.Put(b)
			}
			done := msgSecAggDone{Err: err}
			if res != nil {
				done.Sum = res.Sum
				done.Survivors = len(res.Survivors)
				done.Phases = res.Phases
				for id, why := range res.Blamed {
					name := secDevice[id]
					if name == "" {
						name = fmt.Sprintf("participant-%d", id)
					}
					done.Blamed = append(done.Blamed, name+": "+why)
				}
				sort.Strings(done.Blamed)
			}
			_ = self.Send(done)
		})
		return
	}
	a.finish(ctx, "")
}

func (a *Aggregator) onSecAggDone(ctx *actor.Context, m msgSecAggDone) {
	if a.done {
		return
	}
	a.secBlamed = m.Blamed
	a.secPhases = m.Phases
	if m.Err != nil {
		a.finish(ctx, m.Err.Error())
		return
	}
	if err := a.addSum(m.Sum[:a.dim], m.Sum[a.dim], m.Survivors); err != nil {
		a.finish(ctx, err.Error())
		return
	}
	a.finish(ctx, "")
}

func (a *Aggregator) onSecAggTimeout(ctx *actor.Context) {
	if a.done || !a.finalizing {
		return
	}
	a.finish(ctx, fmt.Sprintf("secagg: finalization exceeded %v; group abandoned", a.finalizeTimeout))
}

// addSum folds an already-summed (delta, weight, count) triple into the
// group's raw sums. The first vector is adopted, not copied: both producers
// hand over a vector nothing else holds.
func (a *Aggregator) addSum(sum tensor.Vector, weight float64, count int) error {
	if len(sum) != a.dim || !fedavg.ValidWeight(weight) || count <= 0 {
		return fmt.Errorf("group sum of dim %d (want %d), weight %v, count %d", len(sum), a.dim, weight, count)
	}
	if a.sum == nil {
		a.sum = sum
	} else {
		a.sum.Axpy(1, sum)
	}
	a.weight += weight
	a.count += count
	return nil
}

// finish reports the group partial — the raw sum exactly as accumulated,
// never an average scaled back up — and stops the actor. On a finalization
// error the model updates are gone, but eval-only counts and metrics never
// went through the secure path — report them rather than swallowing, and
// surface the error to the EdgeRound.
func (a *Aggregator) finish(ctx *actor.Context, errStr string) {
	defer ctx.Stop()
	a.done = true
	if a.watchdog != nil {
		a.watchdog.Stop()
	}
	_ = a.master.Send(msgGroupResult{From: ctx.Self, Sum: a.sum, Weight: a.weight, Count: a.count + a.evalCount,
		Metrics: a.metrics, Err: errStr, Blamed: a.secBlamed, Phases: a.secPhases, RobustRejected: a.robustRejected})
}
