package flserver

import (
	"time"

	"repro/internal/actor"
	"repro/internal/attest"
	"repro/internal/metrics"
	"repro/internal/pacing"
	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// SelectorPopulation configures one population served by a Selector:
// its pace steering and the population-size estimate that feeds it.
type SelectorPopulation struct {
	Name               string
	Steering           *pacing.Steering
	PopulationEstimate int
}

// selPop is one population's slice of a Selector: its quota and the round
// that owns it, its pool, reservoir state and pace steering.
type selPop struct {
	name               string
	steering           *pacing.Steering
	populationEstimate int
	demand             int

	quota int
	// owner is the round the current quota was granted to (see msgSetQuota):
	// every device accepted under the quota is handed straight to it.
	owner    actor.Ref
	accepted int64
	rejected int64
	// Quota ledger: every slot granted is consumed by an accepted device,
	// revoked at seal/abandon/release, or still outstanding in quota —
	// granted == consumed + revoked + quota always (chaos.Verify asserts it
	// across fault scenarios).
	granted  int64
	consumed int64
	revoked  int64

	// pool is continuous selection (Sec. 4.3: "Selector actors running the
	// selection process continuously"): devices that checked in after the
	// round in flight was staffed, held unanswered — at most demand of them,
	// the population's last grant — until the next grant admits them ahead of
	// any later check-in. It is the only set of connections a Selector parks,
	// and demand is its only bound: no population's pool gives way to
	// another's. A pooled device consumes no quota, so the ledger never sees
	// it. The pool is open until poolUntil (onQuota, expirePools). poolSeen counts the
	// check-ins offered to it since the last grant, for the reservoir over a
	// full pool (footnote 1 of the paper: "selection is done by simple
	// reservoir sampling"); pooled is the population's gauge.
	pool      []*session
	poolSeen  int64
	poolUntil time.Time
	pooled    *metrics.Gauge

	// arrivals counts this population's check-ins since rateStart; the
	// Coordinator drains the window via msgRateProbe to maintain a live
	// population estimate from observed check-in rates.
	arrivals  int64
	rateStart time.Time
}

// minRateWindow is the shortest sampling window a Selector will answer a
// rate probe from: ticks arrive in bursts around round boundaries, and a
// near-empty millisecond window would read as "nobody is checking in".
const minRateWindow = 500 * time.Millisecond

// Selector accepts and forwards device connections (Sec. 4.2) for every
// population registered with it: the paper's Selectors are a shared,
// device-facing layer that takes connections for many FL populations and
// routes each check-in by its CheckinRequest.Population. Per population it
// receives quota from the round that asks for it, makes local accept/reject
// decisions, and hands every device it accepts straight to that round;
// between quotas it keeps a standing pool of checked-in devices for the next
// round (selPop.pool); rejected devices — including devices of populations
// this Selector does not (or no longer) serve — get a pace-steering
// reconnect hint rather than a dropped connection.
type Selector struct {
	verifier *attest.Verifier
	// defaultSteering answers check-ins for unregistered populations.
	defaultSteering *pacing.Steering
	// defaultEstimate sizes steering hints when no population state exists.
	defaultEstimate int

	pops map[string]*selPop
	rng  *tensor.RNG

	// unknownRejected counts check-ins for populations this Selector does
	// not serve.
	unknownRejected int64
	// retired keeps deregistered populations' counters and ledgers, so the
	// all-population totals stay monotonic, and conserved, across
	// deregistrations.
	retired SelectorStats
}

// newSelector returns the behavior for a Selector actor. Populations are
// registered at runtime by msgRegisterPopulation (and taken back, should a
// registration fail halfway across the tier, by msgDeregisterPopulation). It
// reads the time off its actor system's clock, once per message.
func newSelector(verifier *attest.Verifier, defaultSteering *pacing.Steering, seed uint64) *Selector {
	return &Selector{
		verifier:        verifier,
		defaultSteering: defaultSteering,
		defaultEstimate: 1000,
		pops:            make(map[string]*selPop),
		rng:             tensor.NewRNG(seed),
	}
}

// Receive implements actor.Behavior.
func (s *Selector) Receive(ctx *actor.Context, msg actor.Message) {
	now := ctx.Now()
	switch m := msg.(type) {
	case *session:
		s.onCheckin(m, now)
	case msgRejectConn:
		s.rejectConn(m.Conn, m.Reason, s.defaultSteering, s.defaultEstimate, 1, now)
	case msgRegisterPopulation:
		s.register(m.Pop, now)
	case msgDeregisterPopulation:
		s.deregister(m.Name, now)
	case msgSetQuota:
		s.onQuota(m, now)
	case msgQuotaTopUp:
		s.onTopUp(m, now)
	case msgRateProbe:
		s.onRateProbe(ctx, m, now)
	case msgReleaseParked:
		s.releaseParked(m.Population, "population idle", now)
	case msgSelectorStats:
		m.Reply <- s.stats(m.Population)
	}
}

// register adds a population to this Selector; the first registration of
// a name stands (DeviceTier.Register sends one).
func (s *Selector) register(cfg SelectorPopulation, now time.Time) {
	if cfg.Name == "" || s.pops[cfg.Name] != nil {
		return
	}
	if cfg.Steering == nil {
		cfg.Steering = s.defaultSteering
	}
	if cfg.PopulationEstimate <= 0 {
		cfg.PopulationEstimate = s.defaultEstimate
	}
	s.pops[cfg.Name] = &selPop{
		name:               cfg.Name,
		steering:           cfg.Steering,
		populationEstimate: cfg.PopulationEstimate,
		demand:             1,
		rateStart:          now,
		pooled:             metrics.Default.Gauge(metrics.Label("fl_selector_pooled", "population", cfg.Name)),
	}
}

// onQuota applies a grant or a revocation. A grant replaces whatever quota
// remained — the old slots are revoked, the new ones granted — and admits
// the pool first, so the new round gets its pooled devices in one batch
// before any later check-in; pooled devices beyond the grant are steered away
// (the next pool is bounded by the new demand). While the round selects, the
// pool stays shut: a device this Selector has no slot for may be the one
// another Selector's unfilled share is waiting for. A revocation that finds
// the quota spent — the round is staffed (EdgeRound.onDevices) or sealed
// full — opens it for one pacing window: whoever checks in next is the next
// round's. One that takes unfilled slots back leaves it shut: gathering
// scarce devices for one attempt is pace steering's job (Sec. 2.3), not a
// held connection's.
func (s *Selector) onQuota(m msgSetQuota, now time.Time) {
	p, ok := s.pops[m.Population]
	if !ok || (m.Accept <= 0 && m.Owner != p.owner) {
		return
	}
	s.expirePools(now)
	p.poolUntil = time.Time{}
	if m.Accept <= 0 && p.quota <= 0 {
		p.poolUntil = now.Add(p.steering.RoundPeriod)
	}
	p.revoked += int64(p.quota)
	p.granted += int64(m.Accept)
	p.quota = m.Accept
	if m.Accept <= 0 {
		return
	}
	p.demand, p.owner = m.Accept, m.Owner
	s.admitPooled(p, now)
	s.steerPool(p, "round is full", now)
	p.poolSeen = 0
}

// admitPooled hands pooled devices to the quota's owner while quota lasts,
// oldest first, in one batch.
func (s *Selector) admitPooled(p *selPop, now time.Time) {
	if n := min(p.quota, len(p.pool)); n > 0 {
		devs := s.takePool(p, n)
		if !s.admit(p, msgDevices{Devices: devs}, n) {
			for _, d := range devs {
				s.reject(p, d.conn, "round is over", now)
			}
		}
	}
}

// admit hands n devices accepted under p's quota, in msg (a check-in's own
// *session or a pooled batch), to the round that owns it: here they enter the
// ledger. A round that has stopped takes none: admit reports false, its
// caller steers them away, and their slots stay outstanding until its
// revocation or the next grant.
func (s *Selector) admit(p *selPop, msg actor.Message, n int) bool {
	if p.owner.Send(msg) != nil {
		return false
	}
	p.quota -= n
	p.accepted += int64(n)
	p.consumed += int64(n)
	obsCheckinAccepted.Add(int64(n))
	return true
}

// takePool removes the n oldest devices from p's pool.
func (s *Selector) takePool(p *selPop, n int) []*session {
	out := append([]*session(nil), p.pool[:n]...)
	p.pool = append(p.pool[:0], p.pool[n:]...)
	p.pooled.Add(-float64(n))
	return out
}

// steerPool empties p's pool, steering every device away.
func (s *Selector) steerPool(p *selPop, reason string, now time.Time) {
	for _, d := range s.takePool(p, len(p.pool)) {
		s.reject(p, d.conn, reason, now)
	}
}

// expirePools steers away every pool whose window has passed, on the
// messages the Selector receives anyway (check-ins, grants, rate probes): a
// pooled device outlives its population's pacing window by no more than the
// gap to the next one, without a timer.
func (s *Selector) expirePools(now time.Time) {
	for _, p := range s.pops {
		if len(p.pool) > 0 && !now.Before(p.poolUntil) {
			s.steerPool(p, "population idle", now)
		}
	}
}

// onRateProbe answers a Coordinator's check-in rate probe with the
// population's arrivals since the previous sample, then resets the window.
// Windows shorter than minRateWindow are left accumulating — a burst of
// probes around a round boundary must not manufacture zero-rate samples.
func (s *Selector) onRateProbe(ctx *actor.Context, m msgRateProbe, now time.Time) {
	p, ok := s.pops[m.Population]
	if !ok || m.To == nil {
		return
	}
	s.expirePools(now)
	elapsed := now.Sub(p.rateStart)
	if elapsed < minRateWindow {
		return
	}
	_ = m.To.Send(msgCheckinRate{
		Source:     ctx.Self.Name(),
		Population: p.name,
		Count:      p.arrivals,
		Elapsed:    elapsed,
		Demand:     p.demand,
	})
	p.arrivals, p.rateStart = 0, now
}

// deregister removes a population: pooled devices are steered away, the
// remaining quota revoked, the counters retired and the population's state
// dropped. Later check-ins hit the unknown-population rejection.
func (s *Selector) deregister(name string, now time.Time) {
	if p, ok := s.pops[name]; ok {
		s.releaseParked(name, "population deregistered", now)
		s.retired.Add(p.stats())
		delete(s.pops, name)
	}
}

// releaseParked steers a population's pooled devices away, zeroes its quota
// and shuts its pool, keeping the population registered: its Coordinator
// finished its rounds, so holding devices (and their connections) would
// strand them.
func (s *Selector) releaseParked(name, reason string, now time.Time) {
	p, ok := s.pops[name]
	if !ok {
		return
	}
	s.steerPool(p, reason, now)
	p.revoked += int64(p.quota)
	p.quota = 0
	p.poolUntil = time.Time{}
}

// reject steers one of p's devices away.
func (s *Selector) reject(p *selPop, conn transport.Conn, reason string, now time.Time) {
	p.rejected++
	s.rejectConn(conn, reason, p.steering, p.populationEstimate, p.demand, now)
}

// rejectConn answers a check-in with a steering-backed rejection and closes
// the connection.
func (s *Selector) rejectConn(conn transport.Conn, reason string, st *pacing.Steering, estimate, demand int, now time.Time) {
	obsCheckinRejected.Inc()
	sendWithGrace(conn, protocol.CheckinResponse{
		Accepted:   false,
		Reason:     reason,
		RetryAfter: st.Suggest(estimate, demand, now, s.rng),
	})
}

func (s *Selector) onCheckin(d *session, now time.Time) {
	obsCheckins.Inc()
	p, ok := s.pops[d.Population]
	if !ok {
		// Unknown population: the device is misconfigured or the population
		// is not (or no longer) registered. Steer it away with a reconnect
		// hint instead of dropping the connection, so misrouted fleets back
		// off rather than hammer the accept loop.
		s.unknownRejected++
		s.rejectConn(d.conn, "unknown population "+d.Population, s.defaultSteering, s.defaultEstimate, 1, now)
		return
	}
	p.arrivals++
	s.expirePools(now)
	if s.verifier != nil {
		if err := s.verifier.Verify(d.DeviceID, d.Population, d.AttestationToken, now); err != nil {
			s.reject(p, d.conn, "attestation failed", now)
			return
		}
	}
	switch {
	case p.quota <= 0:
		s.poolCheckin(p, d, now)
	case !s.admit(p, d, 1):
		s.reject(p, d.conn, "round is over", now)
	}
}

// poolCheckin offers a device that found no quota outstanding to p's pool:
// parked while there is room, reservoir-sampled (probability pool/poolSeen,
// the victim steered away) once it holds demand devices.
func (s *Selector) poolCheckin(p *selPop, d *session, now time.Time) {
	if !now.Before(p.poolUntil) {
		s.reject(p, d.conn, "come back later", now)
		return
	}
	p.poolSeen++
	d.conn.Expire(0) // expirePools, not a deadline, bounds a pooled connection
	switch n := len(p.pool); {
	case n < p.demand:
		p.pool = append(p.pool, d)
		p.pooled.Add(1)
		obsCheckinPooled.Inc()
	case s.rng.Float64() < float64(n)/float64(p.poolSeen):
		i := s.rng.Intn(n)
		victim := p.pool[i]
		p.pool[i] = d
		obsCheckinPooled.Inc()
		s.reject(p, victim.conn, "displaced by reservoir sampling", now)
	default:
		s.reject(p, d.conn, "come back later", now)
	}
}

// onTopUp re-opens quota the owning round handed back (duplicate or lost
// device), so a replacement device flows to it at once from the pool, or as
// soon as one checks in. A top-up from any other round is ignored: a
// superseded round's late top-up must not point the stream back at it.
func (s *Selector) onTopUp(m msgQuotaTopUp, now time.Time) {
	p, ok := s.pops[m.Population]
	if !ok || m.N <= 0 || m.To != p.owner {
		return
	}
	p.quota += m.N
	p.granted += int64(m.N)
	s.admitPooled(p, now)
}

// stats reports one population's counters, or — for population "" — the
// totals across every registered and deregistered population plus
// unknown-population rejections.
func (s *Selector) stats(population string) SelectorStats {
	if population != "" {
		if p, ok := s.pops[population]; ok {
			return p.stats()
		}
		return SelectorStats{}
	}
	total := s.retired
	total.UnknownPopulation = s.unknownRejected
	total.Rejected += s.unknownRejected
	for _, p := range s.pops {
		total.Add(p.stats())
	}
	return total
}

func (p *selPop) stats() SelectorStats {
	return SelectorStats{
		Pooled: len(p.pool), Accepted: p.accepted, Rejected: p.rejected,
		QuotaGranted: p.granted, QuotaConsumed: p.consumed,
		QuotaRevoked: p.revoked, QuotaOutstanding: int64(p.quota),
	}
}
