package flserver

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/actor"
	"repro/internal/fedavg"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/robust"
	"repro/internal/secagg"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Aggregator is the ephemeral per-group aggregation actor (Sec. 4.2) an
// EdgeRound spawns for the two kinds of round whose reports cannot fold
// straight into stripes. Both retain their reports in a robust.Buffer the
// connection readers fill; at finalization the Aggregator drains it and
// runs its one reducer on its own goroutine: under Secure Aggregation the
// secagg protocol, so the group sum is produced without the aggregate code
// path ever handling an unmasked individual update, and under a per-update
// robust policy the robust reduce over the round's one buffer.
type Aggregator struct {
	dim    int
	master actor.Ref

	// threshold maps group size n to the secagg Shamir threshold t; nil
	// defaults to the majority n/2 + 1. Set by the EdgeRound from the plan
	// before spawn (same-package field injection).
	threshold func(n int) int
	// link, when set (this package's tests), wraps each participant's link
	// in the group's secagg run.
	link func(id int, c transport.Conn) transport.Conn
	// robustPolicy is the task's robust aggregation policy: a per-update
	// policy makes this group the round's robust reducer, otherwise it is a
	// secure group (plan.Validate refuses the two together). Injected by
	// the EdgeRound before spawn, like threshold, along with the
	// task-labeled defense counters.
	robustPolicy                    plan.RobustPolicy
	obsRejectedTask, obsTrimmedTask *metrics.Counter
	spares                          *fedavg.Spares // lends a secure group its sum (EdgeRoundConfig.Spares)
}

// newAggregator returns the behavior for a group aggregator reporting to
// master (its EdgeRound).
func newAggregator(dim int, master actor.Ref) *Aggregator {
	return &Aggregator{dim: dim, master: master}
}

// Receive implements actor.Behavior. The one message an Aggregator acts on
// is msgFinalizeGroup: it drains the group's buffer, reduces it, reports
// the group partial and stops. Each group has its own actor goroutine, so
// groups still finalize concurrently; the round's deadline (ReportTimeout +
// SealGrace at the Coordinator) bounds the whole round, this step included.
func (a *Aggregator) Receive(ctx *actor.Context, msg actor.Message) {
	m, ok := msg.(msgFinalizeGroup)
	if !ok {
		return
	}
	defer ctx.Stop()
	res := msgGroupResult{From: ctx.Self}
	if m.Buf != nil {
		updates, evalCount, metrics := m.Buf.Drain()
		res.Count, res.Metrics = evalCount, metrics
		res.Err = a.reduce(ctx.System.Clock(), &res, updates, m.Assigned)
		// Neither reducer's result aliases the update vectors, so they go
		// back to the edge's stock for the next round's readers at once.
		m.Buf.Release(updates)
	}
	_ = a.master.Send(res)
}

// reduce runs the group's reducer over its drained updates and records the
// raw sum — never an average scaled back up — in res. It returns the
// group's finalization error: the model updates are then gone, but eval-only
// counts and metrics never depended on the reducer and are still reported.
// A panic in either reducer becomes that group's error, not the process's.
func (a *Aggregator) reduce(clock actor.Clock, res *msgGroupResult, updates []robust.Update, assigned []string) (errStr string) {
	defer func() {
		if r := recover(); r != nil {
			errStr = fmt.Sprintf("group reduce panic: %v", r)
		}
	}()
	if a.robustPolicy.PerUpdate() {
		return a.robustReduce(res, updates)
	}
	if len(updates) == 0 {
		return ""
	}
	return a.secureReduce(clock, res, updates, assigned)
}

// robustReduce runs the round's per-update retention policy: the buffer
// holds every decoded update of the round, and the policy's order statistic
// or outlier filter replaces the plain stripe merge.
func (a *Aggregator) robustReduce(res *msgGroupResult, updates []robust.Update) string {
	start := time.Now()
	out := robust.Reduce(a.robustPolicy, a.dim, updates)
	res.Phases = map[string]time.Duration{"robust_reduce": time.Since(start)}
	for _, rej := range out.Rejected {
		res.RobustRejected = append(res.RobustRejected, rej.Device+": "+rej.Reason)
	}
	sort.Strings(res.RobustRejected)
	obsRobustRejected.Add(int64(len(out.Rejected)))
	obsRobustTrimmed.Add(out.Trimmed)
	if a.obsRejectedTask != nil {
		a.obsRejectedTask.Add(int64(len(out.Rejected)))
		a.obsTrimmedTask.Add(out.Trimmed)
	}
	if out.Count == 0 {
		return ""
	}
	if err := a.setSum(res, out.Sum, out.Weight, out.Count); err != "" {
		return "robust reduce: " + err
	}
	return ""
}

// secureReduce runs the secagg protocol over the group's inputs, each the
// delta with its weight in the last slot: the weight rides through the
// secure sum so the server learns Σn without individual n's. Participant i
// is the group's i-th retained report. The run's links wait on clock.
func (a *Aggregator) secureReduce(clock actor.Clock, res *msgGroupResult, updates []robust.Update, assigned []string) string {
	delivered := len(updates)
	if delivered < 2 {
		// A singleton "group sum" IS the individual update, so a
		// direct-sum fallback would hand the server exactly what Secure
		// Aggregation exists to hide. Refuse and drop the update; the
		// EdgeRound partitions groups so this cannot happen short of a
		// starved round or an adversarial configuration.
		return fmt.Sprintf("secagg: group of %d below minimum 2; update dropped", delivered)
	}
	// The instance is sized by the devices assigned to the group, not by
	// what happened to arrive: a configured device whose connection died or
	// timed out is a real protocol dropout, which enters the run with no
	// input: it advertises but never deals shares, so it is excluded from
	// the mask set and its loss costs nothing at unmask time.
	n := delivered
	var lostNames []string
	if len(assigned) > delivered {
		n = len(assigned)
		deliveredNames := make(map[string]bool, delivered)
		for _, u := range updates {
			deliveredNames[u.Device] = true
		}
		for _, name := range assigned {
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
		// carries the group's metrics — never a stall, and never a degraded
		// run that would weaken the privacy threshold.
		return fmt.Sprintf("secagg: only %d of %d group devices delivered (< threshold %d); lost: %s",
			delivered, n, t, strings.Join(lostNames, ", "))
	}
	inputs := make(map[int][]float64, n)
	for i, u := range updates {
		inputs[i+1] = u.Delta
	}
	for id := delivered + 1; id <= n; id++ {
		inputs[id] = nil
	}
	sum := a.spares.Take(a.dim + 1)
	out, err := secagg.Run(secagg.Config{N: n, T: t, VectorLen: a.dim + 1}, inputs, a.link, sum, clock)
	if out != nil {
		res.Phases = out.Phases
		for id, why := range out.Blamed {
			name := fmt.Sprintf("participant-%d", id)
			if id <= delivered {
				name = updates[id-1].Device
			}
			res.Blamed = append(res.Blamed, name+": "+why)
		}
		sort.Strings(res.Blamed)
	}
	if err != nil {
		a.spares.Put(sum)
		return err.Error()
	}
	if err := a.setSum(res, sum[:a.dim], sum[a.dim], len(out.Survivors)); err != "" {
		a.spares.Put(sum)
		return err
	}
	res.Spares = a.spares
	return ""
}

// setSum records a reducer's (delta, weight, count) triple as the group's
// raw sum, adopting the vector: both reducers hand over one nothing else
// holds — a secure group's is on loan from the edge's stock (res.Spares).
func (a *Aggregator) setSum(res *msgGroupResult, sum tensor.Vector, weight float64, count int) string {
	if len(sum) != a.dim || !fedavg.ValidWeight(weight) || count <= 0 {
		return fmt.Sprintf("group sum of dim %d (want %d), weight %v, count %d", len(sum), a.dim, weight, count)
	}
	res.Sum, res.Weight = sum, weight
	res.Count += count
	return ""
}
