package flserver

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/metrics"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
)

// Edge is one device-facing edge of a population's aggregation tree as its
// Coordinator sees it: something that can run the device half of a round
// and hand back one EdgeSeal. The in-process server wires one local edge (a
// function call that starts an EdgeRound on the local actor system); the
// sharded deployment wires one edge per connected selector process (frames
// on a peer link). The Coordinator cannot tell them apart. All methods are
// called on the Coordinator's actor goroutine and must not block.
type Edge interface {
	// Open starts the round on this edge; its seal must come back to coord
	// through DeliverSeal. An error means the edge did not take the round.
	Open(cfg *EdgeRoundConfig, coord actor.Ref) error
	// Finalize orders the edge to seal the round now and ship what it holds.
	Finalize(taskID string, round int64) error
	// Abort abandons the matching in-flight round. With an empty taskID no
	// further round will start: the edge steers the population's parked
	// devices away instead.
	Abort(taskID string, round int64, reason string)
	// ProbeRates asks the edge's Selectors for their check-in arrivals; the
	// samples come back to coord as rate messages. Edges that push samples
	// on their own cadence (remote shards) do nothing.
	ProbeRates(coord actor.Ref)
}

// Edge-to-Coordinator messages, delivered through the exported functions
// below so edge hosts outside this package never see them.
type (
	msgEdgeUp   struct{ Edge Edge }
	msgEdgeDown struct{ Edge Edge }
	msgEdgeSeal struct {
		Edge Edge
		Seal EdgeSeal
	}
	msgRoundDeadline struct{ r *round }
)

// EdgeUp attaches an edge to a running Coordinator (a selector shard
// connected). Re-announcing an attached edge is a no-op.
func EdgeUp(coord actor.Ref, e Edge) error { return coord.Send(msgEdgeUp{Edge: e}) }

// EdgeDown detaches an edge (its link died); a round waiting on its seal
// settles without it.
func EdgeDown(coord actor.Ref, e Edge) error { return coord.Send(msgEdgeDown{Edge: e}) }

// DeliverSeal hands an edge's sealed round to the Coordinator. An edge that
// cannot run a round it was sent (an undecodable plan, say) delivers an
// empty seal for it, so the round settles without waiting on that edge.
func DeliverSeal(coord actor.Ref, e Edge, seal EdgeSeal) error {
	return coord.Send(msgEdgeSeal{Edge: e, Seal: seal})
}

// DeliverRate relays one check-in rate sample observed at an edge.
func DeliverRate(coord actor.Ref, source, population string, count int64, elapsed time.Duration, demand int) error {
	return coord.Send(msgCheckinRate{Source: source, Population: population, Count: count, Elapsed: elapsed, Demand: demand})
}

// CoordinatorParams wires one population's Coordinator.
type CoordinatorParams struct {
	Population string
	Lock       *actor.LockService
	Store      storage.Store
	// Tasks is the population's task registry. It is owned by the popHost
	// that spawns the Coordinator and survives this actor's crash and respawn.
	Tasks *tasks.TaskSet
	// Steering and PopulationEstimate enable live population estimation
	// from observed check-in rates (nil Steering disables it).
	Steering           *pacing.Steering
	PopulationEstimate int
	// Edges are attached from the start (the host's edge set when this
	// incarnation was spawned); remote edges attach and detach at runtime via
	// EdgeUp/EdgeDown.
	Edges []Edge
	// MinEdges is how many attached edges a round needs to start
	// (default 1).
	MinEdges int
	// SealGrace is the extra wait, past the round's ReportTimeout, for
	// straggler seals before the round settles with what arrived
	// (default 2s).
	SealGrace time.Duration
	// TickEvery, when positive, re-arms a periodic scheduling tick, so a
	// Coordinator that lost the race for its population's lock keeps
	// standing by and takes over when the owner dies. Without one nothing
	// would ever wake the loser again, so it stops itself instead — the
	// fleet's respawn races rely on exactly one contender surviving.
	TickEvery time.Duration
	// MaxRounds stops scheduling after that many committed rounds
	// (0 = run forever); Done, if non-nil, is closed when it is reached.
	MaxRounds int
	Done      chan struct{}
	// onOutcome, when set, observes every settled round (benchmarks and
	// tests; same-package injection). Committed's Params are recycled once
	// the task's next commit supersedes it: a hook that keeps them clones.
	onOutcome func(roundOutcome)
}

// roundOutcome is the Coordinator's record of one settled round.
type roundOutcome struct {
	// Committed is the checkpoint the round committed; nil when it failed.
	Committed  *checkpoint.Checkpoint
	FailReason string
	Completed  int
	Lost       int
	Aborted    int
	Clipped    int
	// GroupErrors, BlamedDevices and RobustRejected merge the edges'
	// attributions (see EdgeSeal).
	GroupErrors, BlamedDevices, RobustRejected []string
}

// round is the Coordinator's state for the round in flight.
type round struct {
	cfg      *EdgeRoundConfig
	evalOnly bool
	acc      *fedavg.Accumulator
	metrics  map[string][]float64
	reports  int
	out      roundOutcome
	// pending holds the edges that still owe a seal.
	pending map[Edge]bool
	// finalizing is set once Finalize went out to stragglers. deadline is
	// the armed straggler timer, stopped when the round settles: its
	// closure pins the round — its global and its accumulator — and a server
	// settling tens of rounds a second must not hold each for a full
	// ReportTimeout.
	finalizing bool
	deadline   actor.Timer
	// opened is the instant the round opened on the Coordinator's clock, the
	// trace's Start. started anchors the trace's spans, in wall time like
	// every span: a trace says how long the round took, whatever clock drove
	// it. phases max-merges the per-edge lifecycle spans carried by the seals
	// (the fleet-wide cost of a phase is its slowest edge's).
	opened  time.Time
	started time.Time
	phases  map[string]int64
}

// Coordinator is the top-level actor for one FL population (Sec. 4.2): it
// holds the population's lock, schedules FL tasks, builds each round's one
// EdgeRoundConfig and fans it out to its edges, merges the seals they send
// back, and makes the round's single commit to persistent storage. It is
// the only round engine: the in-process server is the one-local-edge case
// of the sharded deployment.
//
// Task scheduling is pulled from the population's TaskSet every tick
// (Sec. 7.1: the service "chooses among them using a dynamic strategy"):
// due eval tasks first, then weighted round-robin over active train tasks.
// Lifecycle mutations (submit / pause / resume / retire) arrive as mailbox
// messages, so they serialize with scheduling — a retired task's in-flight
// round completes and is recorded, but the task never reschedules.
type Coordinator struct {
	CoordinatorParams
	rates *pacing.RateTracker

	acquired  bool
	edges     []Edge
	global    map[string]*checkpoint.Checkpoint // per task lineage
	cur       *round
	completed int
	failed    int
	clipped   int64
	// drained records that MaxRounds was reached and the edges told to
	// release this population's parked devices.
	drained bool
	// gateRetry marks a pending backoff tick (see retryLater).
	gateRetry bool
}

// retryDelay is the backoff before re-ticking a Coordinator that could not
// start a round for a reason only time fixes: a task whose checkpoint
// failed to load (an eval task whose base has not committed yet, a
// transient storage error), a MinDevices gate waiting on fresh rate
// samples, edges that refused the round.
const retryDelay = time.Second

// newCoordinator returns the behavior for a population coordinator driving
// rounds for the tasks registered in p.Tasks.
func newCoordinator(p CoordinatorParams) *Coordinator {
	if p.MinEdges <= 0 {
		p.MinEdges = 1
	}
	if p.SealGrace <= 0 {
		p.SealGrace = 2 * time.Second
	}
	c := &Coordinator{
		CoordinatorParams: p,
		edges:             slices.Clone(p.Edges),
		global:            make(map[string]*checkpoint.Checkpoint),
	}
	if p.Steering != nil {
		c.rates = pacing.NewRateTracker(p.Steering, p.PopulationEstimate)
	}
	return c
}

// Receive implements actor.Behavior.
func (c *Coordinator) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case msgTick:
		if m.Periodic && c.TickEvery > 0 {
			ctx.After(c.TickEvery, msgTick{Periodic: true})
		}
		c.onTick(ctx)
	case msgEdgeUp:
		c.onEdgeUp(ctx, m.Edge)
	case msgEdgeDown:
		c.edges = slices.DeleteFunc(c.edges, func(e Edge) bool { return e == m.Edge })
		// The edge's devices (and its seal) are lost to this round —
		// Sec. 4.4: "only the devices connected to that actor will be
		// lost". The round settles with the remaining edges.
		c.dropPending(ctx, m.Edge)
	case msgEdgeSeal:
		c.onSeal(ctx, m.Edge, m.Seal)
	case msgRoundDeadline:
		c.onDeadline(ctx, m.r)
	case msgCheckinRate:
		if c.rates != nil {
			c.Tasks.SetPopulationEstimate(c.rates.Fold(pacing.RateSample{
				Source: m.Source, Count: m.Count, Elapsed: m.Elapsed, Demand: m.Demand,
			}, ctx.Now()))
		}
	case msgTaskOp:
		c.onTaskOp(ctx, m)
	case msgTaskStats:
		m.Reply <- c.Tasks.Stats()
	case msgCoordinatorStats:
		round := int64(0)
		if c.cur != nil {
			round = c.cur.cfg.Round
		} else if id, ok := c.Tasks.PrimaryID(); ok {
			if g, ok := c.global[id]; ok {
				round = g.Round
			} else if st, ok := c.Tasks.StatsFor(id); ok {
				round = st.LastRound
			}
		}
		m.Reply <- CoordinatorStats{RoundsCompleted: c.completed, RoundsFailed: c.failed,
			CurrentRound: round, Clipped: c.clipped}
	case msgCrash:
		panic("coordinator crash injected")
	}
}

// onTaskOp applies one lifecycle mutation. Running on the actor goroutine
// means the mutation can never interleave with a scheduling tick; a
// successful mutation is followed by a tick so a task submitted or resumed
// on an idle population schedules immediately instead of waiting for the
// next round to complete.
func (c *Coordinator) onTaskOp(ctx *actor.Context, m msgTaskOp) {
	var err error
	switch m.Op {
	case taskOpSubmit:
		err = c.Tasks.Submit(m.Plan, m.Policy, ctx.Now())
	case taskOpPause:
		err = c.Tasks.Pause(m.ID)
	case taskOpResume:
		err = c.Tasks.Resume(m.ID)
	case taskOpRetire:
		err = c.Tasks.Retire(m.ID)
	default:
		err = fmt.Errorf("flserver: unknown task op %d", m.Op)
	}
	m.Reply <- err
	if err == nil {
		c.onTick(ctx)
	}
}

// retryLater arms one backoff tick: nothing else is guaranteed to tick an
// idle Coordinator (ticks come from round outcomes, task ops and edges
// attaching), so a tick that could not start a round for a reason only
// time fixes re-checks itself.
func (c *Coordinator) retryLater(ctx *actor.Context) {
	if c.gateRetry {
		return
	}
	c.gateRetry = true
	ctx.After(retryDelay, msgTick{})
}

// noteFailed records a round that failed before or after it opened.
func (c *Coordinator) noteFailed(taskID string) {
	c.failed++
	c.Tasks.NoteFailed(taskID)
}

func (c *Coordinator) onTick(ctx *actor.Context) {
	// Registration in the shared locking service: only the single owner of
	// the population proceeds. The same service may be served to other
	// processes over their peer links, so remote owners count too.
	if !c.acquired {
		if !c.Lock.Acquire(c.Population, ctx.Self) {
			if c.TickEvery <= 0 {
				ctx.Stop() // someone else owns this population
			}
			return
		}
		c.acquired = true
	}
	// Any tick satisfies a pending backoff; a new one is armed below if its
	// cause still holds.
	c.gateRetry = false
	if c.rates != nil {
		for _, e := range c.edges {
			e.ProbeRates(ctx.Self)
		}
	}
	if c.cur != nil {
		return // round in flight
	}
	if c.MaxRounds > 0 && c.completed >= c.MaxRounds {
		if !c.drained {
			// No further round will start: release the parked devices (and
			// their half-open connections) the edges are holding for us,
			// instead of stranding them until process teardown.
			c.drained = true
			for _, e := range c.edges {
				e.Abort("", 0, "population drained")
			}
			if c.Done != nil {
				select {
				case <-c.Done: // a predecessor that crashed after finishing closed it
				default:
					close(c.Done)
				}
			}
		}
		return
	}
	if len(c.edges) < c.MinEdges {
		return
	}

	t, ok := c.Tasks.Next()
	if !ok {
		// Nothing schedulable: all tasks paused/retired/gated, or none yet.
		// A task gated only by MinDevices may become schedulable as fresh
		// check-in rate samples move the live estimate.
		if c.rates != nil && c.Tasks.GatedByEstimate() {
			c.retryLater(ctx)
		}
		return
	}
	p := t.Plan
	if p.Server.Robust.PerUpdate() && len(c.edges) > 1 {
		// The one composition that depends on the edge count: retention
		// policies (trimmed mean, median, cosine outlier) reduce over every
		// individual update of the round, but each edge ships a merged sum.
		// Pause with an operator-visible reason rather than burning a failed
		// round every tick with no hint in the stats why. Norm bounding
		// distributes (each edge clips at its own ingest) and is allowed.
		c.noteFailed(p.ID)
		_ = c.Tasks.AutoPause(p.ID, fmt.Sprintf(
			"per-update robust policy %s needs every update of the round at one edge, but this population has %d (edges ship merged sums, not individual updates); use the norm_bound policy or serve this population from a single edge",
			p.Server.Robust.Kind, len(c.edges)))
		return
	}

	global, err := c.loadGlobal(t)
	if err != nil {
		// A failed load must not stall the population. The TaskSet rotates
		// its weighted round-robin on every pick, so a permanently broken
		// task costs one failed pick per rotation — it cannot starve the
		// healthy tasks.
		c.noteFailed(p.ID)
		c.retryLater(ctx)
		return
	}

	// The round's totals are split exactly over m = min(edges, K) edges: rank
	// k takes (total + m − 1 − k) / m, which sums to total over the m ranks
	// (Hermite's identity), the first total mod m taking one more. Ranks
	// rotate over the edges' attach order with every round, so the +1 shares
	// move instead of shorting the same edge's devices each round, and an
	// edge ranked past m is not opened: newEdgeRound would lift its zero
	// share to a target of one.
	n, m := len(c.edges), min(len(c.edges), p.Server.TargetDevices)
	cur := &round{
		evalOnly: p.Type == plan.TaskEval,
		metrics:  make(map[string][]float64),
		pending:  make(map[Edge]bool, m),
		opened:   ctx.Now(),
		started:  time.Now(),
		phases:   make(map[string]int64),
	}
	for i, e := range c.edges {
		k := (i + c.completed + c.failed) % n
		if k >= m {
			continue
		}
		share := func(total int) int { return (total + m - 1 - k) / m }
		cfg := &EdgeRoundConfig{
			Population: c.Population,
			Plan:       p,
			Round:      global.Round,
			Global:     global,
			Dim:        len(global.Params),
			Target:     share(p.Server.TargetDevices),
			Admit:      share(p.Server.SelectTarget()),
			MinReports: share(p.Server.MinReports()),
			MinRuntime: t.Policy.MinRuntimeVersion,
			Estimate:   c.PopulationEstimate,
		}
		if k == 0 {
			cur.cfg = cfg // the largest share: what an edge attaching mid-round gets
		}
		if e.Open(cfg, ctx.Self) == nil {
			cur.pending[e] = true
		}
	}
	if len(cur.pending) == 0 {
		c.noteFailed(p.ID)
		c.retryLater(ctx)
		return
	}
	c.cur = cur
	cur.deadline = ctx.After(p.Server.ReportTimeout+c.SealGrace, msgRoundDeadline{r: cur})
}

// loadGlobal fetches the checkpoint the task's next round serves. Train
// tasks (and standalone eval tasks) own a lineage keyed by their own ID: the
// latest committed checkpoint, or a fresh round-0 initialization from the
// model spec when the store has none (one it cannot read fails the round). An
// eval task with a base task (Policy.EvalOf) serves the BASE task's latest
// committed checkpoint read-only — cached under the base ID, never the eval
// ID, so eval rounds cannot perturb or fork the training lineage.
func (c *Coordinator) loadGlobal(t tasks.Task) (*checkpoint.Checkpoint, error) {
	p := t.Plan
	if p.Type == plan.TaskEval && t.Policy.EvalOf != "" {
		if g, ok := c.global[t.Policy.EvalOf]; ok {
			return g, nil
		}
		g, err := c.Store.LatestCheckpoint(t.Policy.EvalOf)
		if err != nil {
			return nil, fmt.Errorf("eval task %q: base task %q has no committed checkpoint: %w", p.ID, t.Policy.EvalOf, err)
		}
		c.global[t.Policy.EvalOf] = g
		return g, nil
	}
	if g, ok := c.global[p.ID]; ok {
		return g, nil
	}
	if g, err := c.Store.LatestCheckpoint(p.ID); err == nil {
		c.global[p.ID] = g
		return g, nil
	} else if !errors.Is(err, storage.ErrNoCheckpoint) {
		return nil, err
	}
	m, err := p.Device.Model.Build()
	if err != nil {
		return nil, err
	}
	params := make(tensor.Vector, m.NumParams())
	m.ReadParams(params)
	g := &checkpoint.Checkpoint{TaskName: p.ID, Round: 0, Params: params}
	c.global[p.ID] = g
	return g, nil
}

func (c *Coordinator) onEdgeUp(ctx *actor.Context, e Edge) {
	if slices.Contains(c.edges, e) {
		// A re-announced hello on an attached edge (peers re-send hellos in
		// case the first was lost): nothing to resume.
		return
	}
	c.edges = append(c.edges, e)
	switch cur := c.cur; {
	case c.drained:
		// The population already finished its rounds; tell the newcomer to
		// steer its devices away rather than park them forever.
		e.Abort("", 0, "population drained")
	case cur == nil:
		c.onTick(ctx)
	case !cur.cfg.Plan.Server.Robust.PerUpdate():
		// Attached mid-round (typically a reconnect): hand it the round's
		// largest share so it runs a fresh edge round for the same global round,
		// and expect its seal (reconnect-then-resume). A retention round is
		// still waiting on its one edge and must not gain a second.
		if e.Open(cur.cfg, ctx.Self) == nil {
			cur.pending[e] = true
		}
	}
}

// dropPending stops waiting for e's seal in the round in flight.
func (c *Coordinator) dropPending(ctx *actor.Context, e Edge) {
	if c.cur != nil && c.cur.pending[e] {
		delete(c.cur.pending, e)
		if len(c.cur.pending) == 0 {
			c.finish(ctx)
		}
	}
}

// onDeadline fires when the round's report window (plus grace) has passed
// and stragglers still owe seals: order them to seal NOW, and when it fires
// again one grace period later, settle regardless.
func (c *Coordinator) onDeadline(ctx *actor.Context, r *round) {
	if c.cur != r {
		return
	}
	if !r.finalizing {
		r.finalizing = true
		for e := range r.pending {
			if e.Finalize(r.cfg.Plan.ID, r.cfg.Round) != nil {
				// The straggler's link is already dead (or its send queue is
				// wedged): it can never deliver a seal, so waiting the grace
				// on it would only stall the fleet. Settle without it.
				delete(r.pending, e)
			}
		}
		if len(r.pending) > 0 {
			r.deadline = ctx.After(c.SealGrace, msgRoundDeadline{r: r})
			return
		}
	}
	c.finish(ctx)
}

// onSeal folds one edge's sealed partial into the round: the aggregation
// tree's top level, merging per-edge sums instead of per-device updates.
func (c *Coordinator) onSeal(ctx *actor.Context, e Edge, seal EdgeSeal) {
	cur := c.cur
	if cur == nil || seal.TaskID != cur.cfg.Plan.ID || seal.Round != cur.cfg.Round || !cur.pending[e] {
		seal.Seal.Spares.Put(seal.Seal.Sum)
		return // late or duplicate seal: the round already settled it
	}
	delete(cur.pending, e)
	for phase, ns := range seal.Phases {
		if ns > cur.phases[phase] {
			cur.phases[phase] = ns
		}
	}
	out := &cur.out
	out.Lost += seal.Lost
	out.Aborted += seal.Aborted
	out.Clipped += int(seal.Clipped)
	c.clipped += seal.Clipped
	out.GroupErrors = append(out.GroupErrors, seal.GroupErrors...)
	out.BlamedDevices = append(out.BlamedDevices, seal.Blamed...)
	out.RobustRejected = append(out.RobustRejected, seal.RobustRejected...)
	for name, vs := range seal.Seal.Metrics {
		cur.metrics[name] = append(cur.metrics[name], vs...)
	}
	// The first edge's sum becomes the round accumulator as it stands (the
	// seal hands its vector over: a local edge's adopted stripe, drained and
	// let go of, or the vector a remote edge's sum was decoded into); later
	// seals are added into it, and commit steps it in place into the next
	// checkpoint's Params. A sum that is neither adopted nor added — this
	// case, or one the accumulator refuses — goes back to its stock.
	var err error
	switch {
	case cur.evalOnly || seal.Seal.Count == 0: // no update sum to fold
		seal.Seal.Spares.Put(seal.Seal.Sum)
	case cur.acc == nil:
		cur.acc, err = fedavg.AccumulatorFromSeal(cur.cfg.Dim, seal.Seal)
	default:
		err = cur.acc.AddSealed(seal.Seal)
	}
	if err == nil {
		cur.reports += seal.Seal.Count + seal.Seal.EvalCount
	} else {
		out.Lost += seal.Seal.Count
	}
	if len(cur.pending) == 0 {
		c.finish(ctx)
	}
}

// finish settles the round in flight — the single commit to persistent
// storage when enough reports survived, a recorded failure otherwise — and
// chains the next tick at once either way ("the current round... will
// fail, but will then be restarted by the Coordinator"; a failed eval round
// re-arms its cadence, so it is retried rather than waiting out another
// EvalEvery train rounds).
func (c *Coordinator) finish(ctx *actor.Context) {
	cur := c.cur
	c.cur = nil
	cur.deadline.Stop()
	p := cur.cfg.Plan
	out := &cur.out
	out.Completed = cur.reports
	newGlobal, commitNanos, err := c.commit(cur)
	if err != nil {
		out.FailReason = err.Error()
		c.noteFailed(p.ID)
		cur.acc.Repay(nil) // the round's vector goes back unless commit repaid it
	} else {
		out.Committed = newGlobal
		// Only train rounds advance a checkpoint lineage. A committed eval
		// round served the base task's unchanged checkpoint; caching it
		// under the eval task's ID would fork the lineage and freeze later
		// eval rounds on a stale model.
		if !cur.evalOnly {
			c.global[p.ID] = newGlobal
			// The store has let go of the superseded model, and so has every
			// edge that sealed (DESIGN.md §5 lever 13): it repays the loan of
			// the vector that replaced it. A straggler edge may still serve it.
			if len(cur.pending) == 0 {
				cur.acc.Repay(cur.cfg.Global.Params)
			}
		}
		c.Tasks.NoteCommitted(p.ID, newGlobal.Round, cur.reports, ctx.Now())
		c.completed++
	}
	c.recordTrace(cur, commitNanos)
	if c.onOutcome != nil {
		c.onOutcome(*out)
	}
	c.onTick(ctx)
}

// commit merges the round's accumulated seals into the next global
// checkpoint and writes it — the single write to persistent storage for the
// round — plus the round's materialized metrics.
func (c *Coordinator) commit(cur *round) (*checkpoint.Checkpoint, int64, error) {
	p := cur.cfg.Plan
	if min := p.Server.MinReports(); cur.reports < min {
		reason := fmt.Sprintf("only %d reports survived aggregation (< min %d)", cur.reports, min)
		if len(cur.out.GroupErrors) > 0 {
			reason += "; group errors: " + strings.Join(cur.out.GroupErrors, "; ")
		}
		return nil, 0, errors.New(reason)
	}
	start := time.Now()
	newGlobal := cur.cfg.Global
	if !cur.evalOnly {
		params, weight, err := cur.acc.Step(cur.cfg.Global.Params)
		if err != nil {
			return nil, 0, fmt.Errorf("step: %w", err)
		}
		newGlobal = &checkpoint.Checkpoint{TaskName: newGlobal.TaskName, Round: newGlobal.Round + 1,
			Weight: weight, Params: params}
		if err := c.Store.PutCheckpoint(newGlobal); err != nil {
			cur.acc.Repay(params) // a store whose put fails keeps nothing of it
			return nil, 0, fmt.Errorf("commit: %w", err)
		}
	}
	mat := &metrics.Materialized{TaskName: p.ID, Round: newGlobal.Round, Stats: map[string]metrics.Snapshot{}}
	for name, vs := range cur.metrics {
		s := metrics.NewSummary()
		for _, v := range vs {
			s.Observe(v)
		}
		mat.Stats[name] = s.Snapshot()
	}
	_ = c.Store.PutMetrics(mat)
	return newGlobal, time.Since(start).Nanoseconds(), nil
}

// recordTrace materializes the settled round's trace through the process
// registry (fl_round_phase_seconds series, committed/failed counters) and
// persists one JSONL record when the store supports metrics.TraceStore: the
// max-merged per-edge lifecycle spans plus the Coordinator's commit span.
func (c *Coordinator) recordTrace(cur *round, commitNanos int64) {
	if commitNanos > 0 {
		cur.phases[metrics.PhaseCommit] = commitNanos
	}
	round := cur.cfg.Round
	if cur.out.Committed != nil {
		round = cur.out.Committed.Round
	}
	ts, _ := c.Store.(metrics.TraceStore)
	_ = metrics.Default.RecordTrace(metrics.RoundTrace{
		Population: c.Population,
		TaskID:     cur.cfg.Plan.ID,
		Round:      round,
		Start:      cur.opened,
		TotalNanos: time.Since(cur.started).Nanoseconds(),
		Phases:     cur.phases,
		Committed:  cur.out.Committed != nil,
		Reports:    cur.reports,
		Lost:       cur.out.Lost,
		Aborted:    cur.out.Aborted,
		Blamed:     len(cur.out.BlamedDevices),
		FailReason: cur.out.FailReason,
	}, ts)
}
