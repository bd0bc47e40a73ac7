// Package shard splits the FL server across processes (Sec. 4.1: actors
// "may be co-located on the same process or distributed across multiple
// data centers"): N selector processes (SelectorProc, the flselector
// binary) terminate device connections and run the edge
// decode-and-accumulate stripes, while one coordinator process
// (CoordinatorProc, flserver -shard-listen) owns round state, task sets,
// pacing, and the lock service. Per round, each shard ships exactly one
// sealed stripe upstream — device updates never cross the
// selector→coordinator wire, only their merged sum does.
package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/flserver"
	"repro/internal/metrics"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/transport"
)

// SelectorConfig configures one selector process (shard).
type SelectorConfig struct {
	// Shard is this process's stable 0-based index.
	Shard uint32
	// Name prefixes the names of the shard's actors and is sent in its
	// ShardHello (default "shard-<N>").
	Name string
	// NumSelectors is how many Selector actors terminate device connections
	// in this process (default 1).
	NumSelectors int
	// SelectorCapacity bounds parked devices per Selector (0 = unbounded).
	SelectorCapacity int
	Steering         *pacing.Steering
	// PopulationEstimate seeds pace steering until RoundConfigs carry the
	// coordinator's live estimate.
	PopulationEstimate int
	Seed               uint64
	// Peer configures the coordinator link: its Hello is overwritten with
	// this shard's ShardHello, and its Clock is the one clock the whole shard
	// process runs on.
	Peer remote.Options
}

const (
	// rateProbeInterval paces check-in rate sampling toward the coordinator.
	rateProbeInterval = time.Second
	// telemetryInterval paces TelemetrySnapshot shipping toward the
	// coordinator, which folds this shard's counters into its aggregated
	// /metrics under a shard="N" label.
	telemetryInterval = 2 * time.Second
	// sealRetryBudget is the total time ship() retries delivering a sealed
	// stripe across coordinator-link drops before counting the round lost.
	// Re-shipping after a reconnect is safe: the coordinator dedups seals
	// per (shard session, round).
	sealRetryBudget = 3 * time.Second
)

// edgeHandle tracks one population's in-flight edge round.
type edgeHandle struct {
	taskID string
	round  int64
	ref    actor.Ref
}

// SelectorProc is one selector process: a device-facing listener feeding
// Selector actors, a managed peer link to the coordinator, and one
// ephemeral EdgeRound actor per (population, round) the coordinator opens.
// Device connections live and die inside this process; what goes upstream
// is a single protocol.StripeSeal per round.
type SelectorProc struct {
	cfg       SelectorConfig
	sys       *actor.System
	selectors []actor.Ref
	router    *flserver.CheckinRouter
	peer      *remote.Peer
	rateFwd   actor.Ref
	// stripes carries spare stripe vectors from one edge round to the next.
	stripes fedavg.Spares

	mu     sync.Mutex
	pops   map[string]bool
	rounds map[string]*edgeHandle // population → in-flight round
	closed bool

	sealsShipped  atomic.Int64
	bytesShipped  atomic.Int64
	roundsDropped atomic.Int64
	roundsOpened  atomic.Int64
	// closing is set by Close; a seal still retrying its delivery gives up.
	closing actor.Gate
	// jitter draws the seal retries' backoff jitter, under mu.
	jitter *rand.Rand
}

// NewSelectorProc builds the shard and starts dialing the coordinator.
func NewSelectorProc(cfg SelectorConfig, dial remote.Dialer) *SelectorProc {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("shard-%d", cfg.Shard)
	}
	if cfg.NumSelectors <= 0 {
		cfg.NumSelectors = 1
	}
	if cfg.Steering == nil {
		cfg.Steering = pacing.New(time.Minute)
	}
	if cfg.PopulationEstimate <= 0 {
		cfg.PopulationEstimate = 1000
	}
	p := &SelectorProc{
		cfg:    cfg,
		sys:    actor.NewSystem(cfg.Peer.Clock),
		pops:   make(map[string]bool),
		rounds: make(map[string]*edgeHandle),
		jitter: rand.New(rand.NewSource(int64(cfg.Seed))),
	}
	for i := 0; i < cfg.NumSelectors; i++ {
		sel := p.sys.Spawn(fmt.Sprintf("%s/selector-%d", cfg.Name, i),
			flserver.NewSelector(nil, cfg.Steering, cfg.SelectorCapacity, cfg.Seed+uint64(i)))
		p.selectors = append(p.selectors, sel)
	}
	p.router = flserver.NewCheckinRouter(p.sys.Clock(), p.selectors)
	p.rateFwd = p.sys.Spawn(cfg.Name+"/rate-fwd", flserver.NewRateForwarder(p.relayRate))

	opts := cfg.Peer
	opts.Hello = protocol.ShardHello{Shard: cfg.Shard, Name: cfg.Name}
	userDown := opts.OnDown
	opts.OnDown = func(err error) {
		p.onCoordinatorDown()
		if userDown != nil {
			userDown(err)
		}
	}
	p.peer = remote.NewPeer("coordinator", func() (transport.Conn, error) {
		conn, err := dial()
		return holdConfigs{conn}, err
	}, p.onPeerMsg, opts)
	p.every("rate-probe", rateProbeInterval, p.probeRates)
	p.every("telemetry", telemetryInterval, p.shipTelemetry)
	return p
}

// every runs fn each interval of the process's clock, on an actor of its
// own that Close stops with the system.
func (p *SelectorProc) every(name string, interval time.Duration, fn func()) {
	type tick struct{}
	ref := p.sys.Spawn(p.cfg.Name+"/"+name, actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		if _, due := msg.(tick); due {
			fn()
		}
		ctx.After(interval, tick{})
	}))
	_ = ref.Send(nil)
}

// Serve accepts device connections from l until l closes.
func (p *SelectorProc) Serve(l transport.Listener) { p.router.Serve(l) }

// holdConfigs holds each RoundConfig's frame for the round it opens: Recv
// returns it as a heldConfig, its loan nil when the frame was not leased.
type holdConfigs struct{ transport.Conn }

type heldConfig struct {
	protocol.RoundConfig
	loan *transport.Loan
}

func (c holdConfigs) Recv() (interface{}, error) {
	msg, err := c.Conn.Recv()
	if m, ok := msg.(protocol.RoundConfig); ok {
		return heldConfig{m, c.Conn.Hold()}, err
	}
	return msg, err
}

// onPeerMsg handles coordinator→shard control messages. It runs on the
// peer's reader goroutine; all work it does is non-blocking actor sends.
func (p *SelectorProc) onPeerMsg(msg interface{}) {
	switch m := msg.(type) {
	case heldConfig:
		if !p.onRoundConfig(m.RoundConfig, m.loan) {
			m.loan.Release()
		}
	case protocol.RoundFinalize:
		if h := p.lookupRound(m.Population, m.TaskID, m.Round); h != nil {
			flserver.FinalizeEdgeRound(h.ref)
		}
	case protocol.RoundAbort:
		p.onRoundAbort(m)
	}
}

// onRoundConfig opens one edge round: register the population on the local
// Selectors on first sight, then spawn the ephemeral EdgeRound actor that
// runs the device-facing half of the round and ships the seal; it reports
// whether the round kept loan. A config this shard cannot decode is refused,
// so the coordinator stops waiting for its seal.
func (p *SelectorProc) onRoundConfig(m protocol.RoundConfig, loan *transport.Loan) bool {
	refuse := func(why string, err error) bool {
		_ = p.peer.Send(protocol.RoundAbort{Population: m.Population, TaskID: m.TaskID,
			Round: m.Round, Reason: why + ": " + err.Error()})
		return false
	}
	meta, err := checkpoint.ParseMeta(m.Checkpoint)
	if err != nil {
		return refuse("bad checkpoint", err)
	}
	pl, err := plan.Unmarshal(m.Plan)
	if err == nil {
		err = pl.Validate()
	}
	if err != nil {
		return refuse("bad plan", err)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	if !p.pops[m.Population] {
		p.pops[m.Population] = true
		est := m.Estimate
		if est <= 0 {
			est = p.cfg.PopulationEstimate
		}
		for _, sel := range p.selectors {
			_ = flserver.RegisterSelectorPopulation(sel, flserver.SelectorPopulation{
				Name: m.Population, Steering: p.cfg.Steering, PopulationEstimate: est,
			})
		}
	}
	if h := p.rounds[m.Population]; h != nil {
		if h.taskID == m.TaskID && h.round == m.Round {
			// Duplicate (coordinator re-sent after a reconnect it noticed
			// before we noticed the drop): the round is already running.
			return false
		}
		// A different round supersedes the old one.
		flserver.AbandonEdgeRound(h.ref, "superseded by a newer round")
	}
	ref := flserver.StartEdgeRound(p.sys,
		fmt.Sprintf("%s/edge/%s/r%d", p.cfg.Name, m.TaskID, m.Round),
		flserver.EdgeRoundConfig{
			Population: m.Population,
			Plan:       pl,
			Round:      m.Round,
			Checkpoint: m.Checkpoint,
			Loan:       loan,
			Dim:        meta.NumParams,
			Target:     m.Target,
			Admit:      m.Admit,
			MinReports: m.MinReports,
			MinRuntime: m.MinRuntime,
			Stripes:    &p.stripes,
		}, p.selectors, p.ship)
	p.rounds[m.Population] = &edgeHandle{taskID: m.TaskID, round: m.Round, ref: ref}
	p.roundsOpened.Add(1)
	return true
}

// onRoundAbort abandons a matching in-flight round; an abort for no
// specific round (the coordinator drained the population) steers the
// population's parked devices away instead.
func (p *SelectorProc) onRoundAbort(m protocol.RoundAbort) {
	if h := p.lookupRound(m.Population, m.TaskID, m.Round); h != nil {
		flserver.AbandonEdgeRound(h.ref, m.Reason)
		p.clearRound(m.Population, m.Round)
		return
	}
	p.mu.Lock()
	known := p.pops[m.Population]
	p.mu.Unlock()
	if known {
		for _, sel := range p.selectors {
			_ = flserver.ReleaseParked(sel, m.Population)
		}
	}
}

// lookupRound returns the in-flight handle matching (population, task,
// round), or nil.
func (p *SelectorProc) lookupRound(population, taskID string, round int64) *edgeHandle {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.rounds[population]
	if h == nil || h.taskID != taskID || h.round != round {
		return nil
	}
	return h
}

// clearRound forgets a finished round (only if it is still the current one).
func (p *SelectorProc) clearRound(population string, round int64) {
	p.mu.Lock()
	if h := p.rounds[population]; h != nil && h.round == round {
		delete(p.rounds, population)
	}
	p.mu.Unlock()
}

// ship sends one sealed stripe upstream, marshaled into a loan, on its own
// goroutine. A transient link drop is retried with jittered backoff within
// sealRetryBudget — the peer redials in the background, and the coordinator
// dedups a seal that arrives twice. Only when the budget runs dry is the
// round counted dropped; the coordinator's straggler timeout then settles it
// without this shard, and its devices count as lost.
func (p *SelectorProc) ship(seal flserver.EdgeSeal) {
	p.clearRound(seal.Population, seal.Round)
	clock := p.sys.Clock()
	clock.Go(func() {
		start := time.Now()
		msg := protocol.StripeSeal{
			Population:  seal.Population,
			TaskID:      seal.TaskID,
			Round:       seal.Round,
			Shard:       p.cfg.Shard,
			Reports:     int64(seal.Seal.Count),
			EvalReports: int64(seal.Seal.EvalCount),
			Lost:        int64(seal.Lost),
			Aborted:     int64(seal.Aborted),
			Clipped:     seal.Clipped,
			Weight:      seal.Seal.Weight,
			Metrics:     seal.Seal.Metrics,
			Phases:      seal.Phases,

			Blamed:         seal.Blamed,
			GroupErrors:    seal.GroupErrors,
			RobustRejected: seal.RobustRejected,
		}
		var loan *transport.Loan
		msg.Sum = fedavg.MarshalSumInto(seal.Seal.Sum, transport.Borrow(&loan))
		defer loan.Release()
		// The wire form is all that leaves this process: the sealed sum's
		// vector serves the next round's stripes.
		p.stripes.Put(seal.Seal.Sum)
		frame := transport.Lend(msg, loan)
		deadline := clock.Now().Add(sealRetryBudget)
		backoff := 25 * time.Millisecond
		for {
			err := p.peer.Send(frame)
			if err == nil {
				break
			}
			p.mu.Lock()
			jitter := time.Duration(p.jitter.Int63n(int64(backoff)))
			p.mu.Unlock()
			if clock.Now().After(deadline) || !actor.Sleep(clock, backoff+jitter, &p.closing) {
				p.roundsDropped.Add(1)
				obsSealsDropped.Inc()
				return
			}
			if backoff < 200*time.Millisecond {
				backoff *= 2
			}
		}
		p.sealsShipped.Add(1)
		p.bytesShipped.Add(sealWireBytes(msg))
		obsSealsShipped.Inc()
		obsSealSeconds.ObserveDuration(time.Since(start))
	})
}

// sealWireBytes is the binary-codec frame size of one StripeSeal — the
// bytes this shard shipped upstream for a round — counted, not encoded.
func sealWireBytes(m protocol.StripeSeal) int64 {
	return 6 + int64(protocol.Size(m)) // u32 length prefix + version + type code
}

// onCoordinatorDown reacts to a lost coordinator link: every in-flight
// round is abandoned (its seal could not be delivered anyway) and every
// population's parked devices are steered away with a pace-steering retry
// hint — a device must never sit on a half-open connection waiting for a
// round the shard cannot start (the coordinator owns round state).
func (p *SelectorProc) onCoordinatorDown() {
	p.mu.Lock()
	for pop, h := range p.rounds {
		flserver.AbandonEdgeRound(h.ref, "coordinator link lost")
		delete(p.rounds, pop)
		p.roundsDropped.Add(1)
	}
	pops := make([]string, 0, len(p.pops))
	for pop := range p.pops {
		pops = append(pops, pop)
	}
	p.mu.Unlock()
	for _, pop := range pops {
		for _, sel := range p.selectors {
			_ = flserver.ReleaseParked(sel, pop)
		}
	}
}

// probeRates asks the local Selectors for observed check-in rates; samples
// relay to the coordinator as protocol.CheckinRate for cross-shard live
// population estimation.
func (p *SelectorProc) probeRates() {
	p.mu.Lock()
	pops := make([]string, 0, len(p.pops))
	for pop := range p.pops {
		pops = append(pops, pop)
	}
	p.mu.Unlock()
	for _, pop := range pops {
		for _, sel := range p.selectors {
			_ = flserver.ProbeCheckinRate(sel, pop, p.rateFwd)
		}
	}
}

// shipTelemetry ships this process's whole metrics registry to the
// coordinator as a protocol.TelemetrySnapshot. Snapshots are advisory like
// rate samples: a send on a down link is simply dropped, and the coordinator
// drops a shard's last snapshot when its link goes.
func (p *SelectorProc) shipTelemetry() {
	if !p.peer.Alive() {
		obsCoordinatorUp.Set(0)
		return
	}
	obsCoordinatorUp.Set(1)
	ex := metrics.Default.Export()
	if err := p.peer.Send(protocol.TelemetrySnapshot{
		Shard:     p.cfg.Shard,
		Name:      p.cfg.Name,
		Counters:  ex.Counters,
		Gauges:    ex.Gauges,
		Summaries: ex.Summaries,
	}); err == nil {
		obsSnapshotsSent.Inc()
	}
}

// relayRate forwards one Selector's rate sample upstream (dropped while
// the link is down — rate samples are advisory).
func (p *SelectorProc) relayRate(source, population string, count int64, elapsed time.Duration, demand int) {
	_ = p.peer.Send(protocol.CheckinRate{
		Population: population,
		Shard:      p.cfg.Shard,
		Source:     source,
		Count:      count,
		Elapsed:    elapsed,
		Demand:     int64(demand),
	})
}

// SelectorProcStats describes one shard's device-facing and upstream
// activity.
type SelectorProcStats struct {
	// Selector sums the local Selector actors' counters.
	Selector flserver.SelectorStats
	// SealsShipped / BytesShipped count sealed stripes (and their wire
	// bytes) delivered upstream; RoundsDropped counts rounds lost to a dead
	// coordinator link; RoundsOpened counts fresh EdgeRound spawns (a
	// re-sent RoundConfig after a reconnect does NOT re-open its round).
	SealsShipped  int64
	BytesShipped  int64
	RoundsDropped int64
	RoundsOpened  int64
	// CoordinatorUp is the link's current liveness.
	CoordinatorUp bool
}

// Stats snapshots the shard. The error is non-nil when a local Selector is
// dead or unresponsive — an explicit failure, never zeros.
func (p *SelectorProc) Stats() (SelectorProcStats, error) {
	sel, err := flserver.SumSelectorStats(p.selectors, "")
	if err != nil {
		return SelectorProcStats{}, err
	}
	return SelectorProcStats{
		Selector:      sel,
		SealsShipped:  p.sealsShipped.Load(),
		BytesShipped:  p.bytesShipped.Load(),
		RoundsDropped: p.roundsDropped.Load(),
		RoundsOpened:  p.roundsOpened.Load(),
		CoordinatorUp: p.peer.Alive(),
	}, nil
}

// Close tears the shard down: in-flight rounds are abandoned, the
// coordinator link closed, and the actor system shut down.
func (p *SelectorProc) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for pop, h := range p.rounds {
		flserver.AbandonEdgeRound(h.ref, "shard shutting down")
		delete(p.rounds, pop)
	}
	p.mu.Unlock()
	p.closing.Close()
	p.peer.Close()
	refs := append([]actor.Ref{p.rateFwd}, p.selectors...)
	p.sys.Shutdown(refs...)
	p.router.Wait()
}
