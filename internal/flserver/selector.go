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

// selPop is one population's slice of a Selector: its quota, parked
// devices, reservoir state, pace steering, and streaming forward target.
type selPop struct {
	name               string
	steering           *pacing.Steering
	populationEstimate int
	demand             int

	quota int
	// owner is the round the current quota was granted to (see msgSetQuota).
	owner    actor.Ref
	held     []heldDevice
	accepted int64
	rejected int64
	// Quota ledger: every slot granted is consumed by an accepted device,
	// revoked at seal/abandon/release, or still outstanding in quota —
	// granted == consumed + revoked + quota always (chaos.Verify asserts it
	// across fault scenarios).
	granted  int64
	consumed int64
	revoked  int64
	// seen counts eligible check-ins since the last quota grant; it drives
	// reservoir sampling (footnote 1 of the paper: "selection is done by
	// simple reservoir sampling"), so a device checking in late in the
	// window has the same selection probability as an early one.
	seen int64

	// pool is continuous selection (Sec. 4.3: "Selector actors running the
	// selection process continuously"): devices that checked in after the
	// round in flight was staffed, held unanswered — at most demand of them —
	// until the next grant admits them ahead of any later check-in. A pooled
	// device consumes no quota, so the ledger never sees it; capacity and
	// fair share count it like a held one. The pool is open until poolUntil
	// (onQuota, expirePools). poolSeen counts the check-ins offered to it
	// since the last grant, for the reservoir over a full pool; pooled is
	// the population's gauge.
	pool      []heldDevice
	poolSeen  int64
	poolUntil time.Time
	pooled    *metrics.Gauge

	// pendingTo/pendingN track an outstanding forward request from a
	// round, so devices checking in after the request still
	// flow to the round as they arrive.
	pendingTo actor.Ref
	pendingN  int

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
// receives quota from that population's Coordinator, makes local
// accept/reject decisions, and parks accepted devices until told to
// forward them to an Aggregator; between quotas it keeps a standing pool of
// checked-in devices for the next round (selPop.pool); rejected devices —
// including devices of populations this Selector does not (or no longer)
// serve — get a pace-steering reconnect hint rather than a dropped
// connection.
//
// When a capacity is set, the parked devices (held and pooled) share it
// across populations under weighted fair sharing: each population's share of
// the capacity is proportional to its Coordinator's current quota demand,
// and a population below its share may displace a parked device of a
// population above its share.
type Selector struct {
	verifier *attest.Verifier
	// defaultSteering answers check-ins for unregistered populations.
	defaultSteering *pacing.Steering
	// defaultEstimate sizes steering hints when no population state exists.
	defaultEstimate int
	// capacity bounds the total parked devices across all populations
	// (0 = unbounded).
	capacity int

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

// NewSelector returns the behavior for a Selector actor. Populations are
// registered at runtime via RegisterSelectorPopulation (and taken back,
// should a registration fail halfway across the layer, by
// msgDeregisterPopulation). It reads the time off its actor system's clock,
// once per message.
func NewSelector(verifier *attest.Verifier, defaultSteering *pacing.Steering, capacity int, seed uint64) *Selector {
	return &Selector{
		verifier:        verifier,
		defaultSteering: defaultSteering,
		defaultEstimate: 1000,
		capacity:        capacity,
		pops:            make(map[string]*selPop),
		rng:             tensor.NewRNG(seed),
	}
}

// Receive implements actor.Behavior.
func (s *Selector) Receive(ctx *actor.Context, msg actor.Message) {
	now := ctx.Now()
	switch m := msg.(type) {
	case msgCheckin:
		s.onCheckin(m, now)
	case msgRejectConn:
		s.rejectConn(m.Conn, m.Reason, s.defaultSteering, s.defaultEstimate, 1, now)
	case msgRegisterPopulation:
		s.register(m.Pop, now)
	case msgDeregisterPopulation:
		s.deregister(m.Name, now)
	case msgSetQuota:
		s.onQuota(m, now)
	case msgForwardDevices:
		s.onForward(m)
	case msgQuotaTopUp:
		s.onTopUp(m)
	case msgRateProbe:
		s.onRateProbe(ctx, m, now)
	case msgReleaseParked:
		s.releaseParked(m.Population, "population idle", now)
	case msgSelectorStats:
		m.Reply <- s.stats(m.Population)
	}
}

// register adds (or reconfigures) a population on this Selector.
func (s *Selector) register(cfg SelectorPopulation, now time.Time) {
	if cfg.Name == "" {
		return
	}
	if cfg.Steering == nil {
		cfg.Steering = s.defaultSteering
	}
	if cfg.PopulationEstimate <= 0 {
		cfg.PopulationEstimate = s.defaultEstimate
	}
	if p, ok := s.pops[cfg.Name]; ok {
		p.steering = cfg.Steering
		p.populationEstimate = cfg.PopulationEstimate
		return
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
// the pool first, so the forward request behind it hands the new round its
// devices in one batch; pooled devices beyond the grant are steered away
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
	p.seen = 0
	if m.Accept <= 0 {
		// Revocation (the round sealed or was abandoned): cancel the forward
		// stream too, so a stale destination can never receive devices
		// accepted under a later round's quota.
		p.pendingTo, p.pendingN = nil, 0
		return
	}
	p.demand, p.owner = m.Accept, m.Owner
	s.admitPooled(p)
	s.steerPool(p, "round is full", now)
	p.poolSeen = 0
}

// admitPooled moves pooled devices into held while quota lasts, oldest
// first: here a pooled device enters the ledger.
func (s *Selector) admitPooled(p *selPop) {
	n := min(p.quota, len(p.pool))
	p.held = append(p.held, s.takePool(p, n)...)
	p.quota -= n
	p.accepted += int64(n)
	p.consumed += int64(n)
	obsCheckinAccepted.Add(int64(n))
}

// takePool removes the n oldest devices from p's pool.
func (s *Selector) takePool(p *selPop, n int) []heldDevice {
	out := append([]heldDevice(nil), p.pool[:n]...)
	p.pool = append(p.pool[:0], p.pool[n:]...)
	p.pooled.Add(-float64(n))
	return out
}

// steerPool empties p's pool, steering every device away.
func (s *Selector) steerPool(p *selPop, reason string, now time.Time) {
	for _, d := range s.takePool(p, len(p.pool)) {
		s.reject(p, d.Conn, reason, now)
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

// deregister removes a population: parked devices are steered away, the
// remaining quota revoked, the counters retired and the population's state
// dropped. Later check-ins hit the unknown-population rejection.
func (s *Selector) deregister(name string, now time.Time) {
	if p, ok := s.pops[name]; ok {
		s.releaseParked(name, "population deregistered", now)
		s.retired.Add(p.stats())
		delete(s.pops, name)
	}
}

// releaseParked steers a population's parked devices away, held and pooled,
// zeroes its quota and shuts its pool, keeping the population registered:
// its Coordinator finished its rounds, so holding devices (and their
// connections) would strand them.
func (s *Selector) releaseParked(name, reason string, now time.Time) {
	p, ok := s.pops[name]
	if !ok {
		return
	}
	for _, d := range p.held {
		s.reject(p, d.Conn, reason, now)
	}
	s.steerPool(p, reason, now)
	p.held = p.held[:0]
	p.revoked += int64(p.quota)
	p.quota = 0
	p.pendingTo, p.pendingN = nil, 0
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
	_ = conn.Send(protocol.CheckinResponse{
		Accepted:   false,
		Reason:     reason,
		RetryAfter: st.Suggest(estimate, demand, now, s.rng),
	})
	_ = conn.Close()
}

func (s *Selector) onCheckin(m msgCheckin, now time.Time) {
	obsCheckins.Inc()
	p, ok := s.pops[m.Req.Population]
	if !ok {
		// Unknown population: the device is misconfigured or the population
		// is not (or no longer) registered. Steer it away with a reconnect
		// hint instead of dropping the connection, so misrouted fleets back
		// off rather than hammer the accept loop.
		s.unknownRejected++
		s.rejectConn(m.Conn, "unknown population "+m.Req.Population, s.defaultSteering, s.defaultEstimate, 1, now)
		return
	}
	p.arrivals++
	s.expirePools(now)
	if s.verifier != nil {
		if err := s.verifier.Verify(m.Req.DeviceID, m.Req.Population, m.Req.AttestationToken, now); err != nil {
			s.reject(p, m.Conn, "attestation failed", now)
			return
		}
	}
	d := heldDevice{ID: m.Req.DeviceID, RuntimeVersion: m.Req.RuntimeVersion, Conn: m.Conn}
	p.seen++
	if p.quota <= 0 {
		// Reservoir sampling over the parked devices: a late check-in
		// replaces a random held device with probability held/seen, so
		// selection within the window is uniform rather than
		// first-come-first-served. Devices already forwarded to an Aggregator
		// are committed and not recalled.
		if n := len(p.held); n > 0 && s.rng.Float64() < float64(n)/float64(p.seen) {
			i := s.rng.Intn(n)
			victim := p.held[i]
			p.held[i] = d
			s.reject(p, victim.Conn, "displaced by reservoir sampling", now)
			return
		}
		s.poolCheckin(p, d, now)
		return
	}
	// Quota available; enforce the selector-wide parked-device capacity with
	// demand-weighted fair sharing across populations.
	if !s.roomFor(p, now) {
		s.reject(p, m.Conn, "selector at capacity", now)
		return
	}
	p.quota--
	p.accepted++
	p.consumed++
	obsCheckinAccepted.Inc()
	if p.pendingN > 0 && p.pendingTo != nil {
		if err := p.pendingTo.Send(msgDevices{Devices: []heldDevice{d}}); err != nil {
			p.pendingTo, p.pendingN = nil, 0
			_ = d.Conn.Close()
			return
		}
		p.pendingN--
		if p.pendingN == 0 {
			p.pendingTo = nil
		}
		return
	}
	p.held = append(p.held, d)
}

// poolCheckin offers a device that found no quota outstanding to p's pool:
// parked while there is room, reservoir-sampled (probability pool/poolSeen,
// the victim steered away) once it holds demand devices.
func (s *Selector) poolCheckin(p *selPop, d heldDevice, now time.Time) {
	if !now.Before(p.poolUntil) {
		s.reject(p, d.Conn, "come back later", now)
		return
	}
	p.poolSeen++
	switch n := len(p.pool); {
	case n < p.demand && s.roomFor(p, now):
		p.pool = append(p.pool, d)
		p.pooled.Add(1)
		obsCheckinPooled.Inc()
	case n < p.demand:
		s.reject(p, d.Conn, "selector at capacity", now)
	case s.rng.Float64() < float64(n)/float64(p.poolSeen):
		i := s.rng.Intn(n)
		victim := p.pool[i]
		p.pool[i] = d
		obsCheckinPooled.Inc()
		s.reject(p, victim.Conn, "displaced by reservoir sampling", now)
	default:
		s.reject(p, d.Conn, "come back later", now)
	}
}

// roomFor reports whether p may park one more device under the capacity,
// displacing one of a population above its fair share if p is below its own.
func (s *Selector) roomFor(p *selPop, now time.Time) bool {
	if s.capacity <= 0 || s.totalParked() < s.capacity {
		return true
	}
	return p.parked() < s.fairShare(p) && s.displaceOverShare(now)
}

// parked is the number of connections p holds open: held plus pooled.
func (p *selPop) parked() int { return len(p.held) + len(p.pool) }

// totalParked is the parked-device count across all populations.
func (s *Selector) totalParked() int {
	n := 0
	for _, p := range s.pops {
		n += p.parked()
	}
	return n
}

// fairShare returns p's share of the selector capacity, weighted by each
// population's current quota demand (only populations actively asking for
// devices count toward the denominator).
func (s *Selector) fairShare(p *selPop) int {
	total := 0
	for _, sp := range s.pops {
		if sp.quota > 0 {
			total += sp.demand
		}
	}
	demand := p.demand
	if p.quota <= 0 {
		demand = 0
	}
	if total <= 0 {
		return s.capacity
	}
	share := s.capacity * demand / total
	if share < 1 && demand > 0 {
		share = 1
	}
	return share
}

// displaceOverShare evicts one parked device from the population furthest
// above its fair share, steering it away: a pooled one if it has any (it has
// no claim on a round), else the oldest held. Reports whether a slot was freed.
func (s *Selector) displaceOverShare(now time.Time) bool {
	var victim *selPop
	excess := 0
	for _, q := range s.pops {
		if e := q.parked() - s.fairShare(q); e > excess {
			victim, excess = q, e
		}
	}
	if victim == nil {
		return false
	}
	if len(victim.pool) > 0 {
		s.reject(victim, s.takePool(victim, 1)[0].Conn, "displaced by cross-population fair sharing", now)
		return true
	}
	d := victim.held[0]
	victim.held = append(victim.held[:0], victim.held[1:]...)
	// The displaced device keeps its claim on the round: hand its quota
	// back so a later check-in of its population can take the slot.
	victim.quota++
	victim.accepted--
	victim.consumed--
	s.reject(victim, d.Conn, "displaced by cross-population fair sharing", now)
	return true
}

func (s *Selector) onForward(m msgForwardDevices) {
	p, ok := s.pops[m.Population]
	if !ok {
		return
	}
	n := m.N
	if n > len(p.held) {
		n = len(p.held)
	}
	if n > 0 {
		batch := make([]heldDevice, n)
		copy(batch, p.held[:n])
		p.held = append(p.held[:0], p.held[n:]...)
		if err := m.To.Send(msgDevices{Devices: batch}); err != nil {
			// The round is already gone; the devices are lost, mirroring
			// "if an Aggregator or Selector crashes, only the devices
			// connected to that actor will be lost".
			for _, d := range batch {
				_ = d.Conn.Close()
			}
			return
		}
	}
	// Remember the remainder so later check-ins stream to the round.
	p.pendingTo = m.To
	p.pendingN = m.N - n
	if p.pendingN <= 0 {
		p.pendingTo, p.pendingN = nil, 0
	}
}

// onTopUp re-opens quota a round handed back (duplicate or lost device)
// and extends — or re-establishes — the streaming forward toward the
// round, so a replacement device flows to it at once from the pool, or as
// soon as one checks in.
func (s *Selector) onTopUp(m msgQuotaTopUp) {
	p, ok := s.pops[m.Population]
	if !ok || m.N <= 0 {
		return
	}
	p.quota += m.N
	p.granted += int64(m.N)
	s.admitPooled(p)
	// Extend the round's forward stream; if it has drained (or belonged to an
	// earlier, finished round) this starts a fresh one to the requester.
	if p.pendingTo == m.To {
		m.N += p.pendingN
	}
	s.onForward(msgForwardDevices{Population: m.Population, N: m.N, To: m.To})
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
		Held: len(p.held), Pooled: len(p.pool), Accepted: p.accepted, Rejected: p.rejected,
		QuotaGranted: p.granted, QuotaConsumed: p.consumed,
		QuotaRevoked: p.revoked, QuotaOutstanding: int64(p.quota),
	}
}
