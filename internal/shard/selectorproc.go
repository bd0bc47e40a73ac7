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
	Steering     *pacing.Steering
	// PopulationEstimate seeds pace steering for a population whose first
	// RoundConfig carries no estimate.
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

// SelectorProc is one selector process: the device tier flserver.Fleet runs
// too — Selectors, router and one LocalEdge per population — with a relay
// standing where the Coordinator stands, and a managed peer link to the
// coordinator. Device connections live and die inside this process; what
// goes upstream is a single protocol.StripeSeal per round. What is the
// shard's own is the link: config decode and refusal, the duplicate-config
// check, the seal's retry loop and telemetry.
type SelectorProc struct {
	cfg  SelectorConfig
	sys  *actor.System
	tier *flserver.DeviceTier
	// relay takes the seals and rate samples the tier would hand a
	// Coordinator beside it and ships them upstream.
	relay actor.Ref
	peer  *remote.Peer

	mu     sync.Mutex
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
	p := &SelectorProc{
		cfg:    cfg,
		sys:    actor.NewSystem(cfg.Peer.Clock),
		jitter: rand.New(rand.NewSource(int64(cfg.Seed))),
	}
	p.tier = flserver.NewDeviceTier(p.sys, cfg.Name+"/", cfg.NumSelectors, nil, cfg.Steering, cfg.Seed)
	p.relay = p.tier.Relay("relay", p.ship, p.relayRate)

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
func (p *SelectorProc) Serve(l transport.Listener) { p.tier.Serve(l) }

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
		kept, refusal := p.onRoundConfig(m.RoundConfig, m.loan)
		if !kept {
			m.loan.Release() // back before the abort that reports it
		}
		if refusal != "" {
			_ = p.peer.Send(protocol.RoundAbort{Population: m.Population, TaskID: m.TaskID, Round: m.Round, Reason: refusal})
		}
	case protocol.RoundFinalize:
		if e := p.tier.Edge(m.Population); e != nil {
			_ = e.Finalize(m.TaskID, m.Round)
		}
	case protocol.RoundAbort:
		// One naming a round abandons it if it runs; one naming none (the
		// coordinator drained the population) steers the pool away.
		if e := p.tier.Edge(m.Population); e != nil {
			e.Abort(m.TaskID, m.Round, m.Reason)
		}
	}
}

// onRoundConfig opens one edge round on the population's LocalEdge,
// registering the population on the tier on first sight; it reports whether
// the round kept loan. A config this shard cannot decode is refused, with
// the reason to send, so the coordinator stops waiting for its seal.
func (p *SelectorProc) onRoundConfig(m protocol.RoundConfig, loan *transport.Loan) (kept bool, refusal string) {
	meta, err := checkpoint.ParseMeta(m.Checkpoint)
	if err != nil {
		return false, "bad checkpoint: " + err.Error()
	}
	pl, err := plan.Unmarshal(m.Plan)
	if err == nil {
		err = pl.Validate()
	}
	if err != nil {
		return false, "bad plan: " + err.Error()
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, ""
	}
	est := m.Estimate
	if est <= 0 {
		est = p.cfg.PopulationEstimate
	}
	edge, err := p.tier.Register(flserver.SelectorPopulation{
		Name: m.Population, Steering: p.cfg.Steering, PopulationEstimate: est,
	})
	if err != nil || edge.Runs(m.TaskID, m.Round) {
		// A tier shutting down takes no round; a duplicate (re-sent after a
		// reconnect the coordinator noticed first) names the one running.
		return false, ""
	}
	_ = edge.Open(&flserver.EdgeRoundConfig{
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
	}, p.relay)
	p.roundsOpened.Add(1)
	return true, ""
}

// ship sends one sealed stripe upstream, marshaled into a loan on a goroutine
// of its own, off the relay's. A link drop is retried with jittered backoff
// within sealRetryBudget — the peer redials in the background, and the
// coordinator dedups a seal that arrives twice. Only when the budget runs dry
// is the round counted dropped; the coordinator's straggler timeout then
// settles it without this shard, and its devices count as lost.
func (p *SelectorProc) ship(seal flserver.EdgeSeal) {
	p.sys.Go(func() {
		defer p.sys.Done()
		clock := p.sys.Clock()
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
		msg.Sum = fedavg.MarshalSumInto(seal.Seal.Sum, transport.Borrow(&loan, clock))
		defer loan.Release()
		// The wire form is all that leaves this process: the sealed sum's
		// vector serves the edge's next round's stripes.
		seal.Seal.Spares.Put(seal.Seal.Sum)
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
	p.mu.Lock() // a config the reader is still dispatching opens first
	defer p.mu.Unlock()
	for _, e := range p.tier.Edges() {
		if e.Abandon("coordinator link lost") {
			p.roundsDropped.Add(1)
		}
		e.Abort("", 0, "coordinator link lost")
	}
}

// probeRates asks the local Selectors for observed check-in rates; samples
// relay to the coordinator as protocol.CheckinRate for cross-shard live
// population estimation.
func (p *SelectorProc) probeRates() {
	for _, e := range p.tier.Edges() {
		e.ProbeRates(p.relay)
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
	sel, err := p.tier.Stats("")
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
	p.mu.Unlock()
	for _, e := range p.tier.Edges() {
		e.Abandon("shard shutting down")
	}
	p.closing.Close()
	p.peer.Close()
	p.tier.Close()
}
