package flserver

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/robust"
	"repro/internal/secagg"
	"repro/internal/transport"
)

// EdgeRoundConfig is the one per-round instruction a Coordinator fans out
// to every edge: run the device-facing half of this round — selection,
// configuration fan-out, report ingest, group aggregation — and hand back
// exactly one EdgeSeal. Everything the plan states (windows, aggregation
// mode, robust policy, encodings) is read from Plan; the fields beside it
// are what the plan cannot know. Device connections never leave the edge;
// only the seal does.
type EdgeRoundConfig struct {
	Population string
	// Plan is the task's plan. A local edge shares the Coordinator's
	// pointer; a remote edge decodes it once per round from the wire.
	Plan  *plan.Plan
	Round int64
	// Global is the round's global model as the Coordinator holds it;
	// Checkpoint is its marshaled form in the plan's DownlinkEncoding, served
	// to every runtime version verbatim. The Coordinator sets only Global and
	// leaves the O(model) marshal to whoever needs the bytes first — a local
	// EdgeRound configuring its first device, a remote edge's link framing
	// the config — which keeps it off the path between a commit and the next
	// round's quota grant. A remote edge host sets only Checkpoint, from the
	// wire.
	Global     *checkpoint.Checkpoint
	Checkpoint []byte
	// Loan backs Checkpoint (a shard's held frame, the local marshal): the
	// round holds it until release, each device send one more reference.
	Loan *transport.Loan
	// Dim is the model parameter count (sizes the accumulator stripes).
	Dim int
	// Target is this edge's share of the round's device target; reaching
	// it seals the round early.
	Target int
	// Admit is how many devices to request from the Selectors
	// (over-selection, Sec. 2.2); 0 defaults to Target.
	Admit int
	// MinReports is this edge's share of the round's minimum report count:
	// an edge still holding fewer live devices when Plan's SelectionTimeout
	// expires seals what it has (the Coordinator then fails the round if
	// the total is short) instead of waiting out the report window.
	MinReports int
	// MinRuntime, when positive, is the task policy's floor on device
	// runtime versions: older devices are rejected outright instead of
	// being served a version-lowered plan.
	MinRuntime int
	// Estimate is the static CoordinatorParams.PopulationEstimate, for the
	// edge host's pace steering: the rate tracker inverts every source's
	// arrivals with it, so every source must steer with it, not the live one.
	Estimate int
	// Spares is the edge host's stock of round vectors, kept across its
	// rounds: the stripes, and the updates a retention buffer decodes into
	// (fedavg.Spares); nil allocates every one.
	Spares *fedavg.Spares
	// churn, when set (tests), perturbs every secure group's secagg
	// schedule on top of the real losses.
	churn func(n, t int) secagg.Schedule
}

// EdgeSeal is an edge round's result: the edge's merged partial sum plus
// the accounting the Coordinator folds into round totals. A local edge
// hands it over by reference; a remote one ships it as a
// protocol.StripeSeal.
type EdgeSeal struct {
	Population string
	TaskID     string
	Round      int64
	Seal       fedavg.SealedStripe
	Lost       int
	// Aborted counts configured devices told to stop at the seal because
	// the edge had enough reports.
	Aborted int
	// Clipped counts reports the norm-bound policy clipped at this edge.
	Clipped int64
	// Phases maps round-lifecycle phase name (metrics.PhaseConfigure etc.) to
	// wall nanoseconds this edge spent in it. The Coordinator max-merges
	// the per-edge maps into the round trace: the fleet-wide cost of a
	// phase is its slowest edge.
	Phases map[string]int64
	// Blamed lists devices Secure Aggregation excluded with attribution,
	// RobustRejected those a retention policy rejected or attributed (each
	// "deviceID: reason"); GroupErrors lists per-group finalization
	// failures (the failed groups' updates are simply absent from Seal).
	Blamed, GroupErrors, RobustRejected []string
}

// msgEdgeStart kicks off a spawned edge round.
type msgEdgeStart struct{}

// edgeRoundLinger is how long a sealed (or abandoned) edge round stays alive
// to answer stragglers before stopping itself. It is not a knob: it was one
// for the tests that waited it out, and they advance a virtual clock now.
// A Selector that accepted a device just before
// processing the seal's quota revocation has already enqueued it here;
// stopping immediately would drop that message — and with it the device's
// connection, never answered and never closed. The linger only needs to
// outlast the Selectors' mailbox backlog at seal time, so a couple of
// seconds is far beyond safe.
const edgeRoundLinger = 2 * time.Second

// msgEdgeFinalize closes the window — the plan's ReportTimeout expired, or
// the coordinator's round deadline passed: seal and ship whatever this
// edge holds.
type msgEdgeFinalize struct{}

// versionResp is the memoized Configuration payload for one effective
// runtime version: either a CheckinResponse pre-framed for the wire, or
// the reason devices of that version cannot run the plan.
type versionResp struct {
	enc *transport.Encoded
	err string
}

// EdgeRound runs one round's device-facing half (Sec. 4.2's Master
// Aggregator and Aggregators, at the edge): it requests devices from its
// Selectors, streams each arrival its configuration (the plan lowered to
// the device's runtime version plus the checkpoint, pre-framed once per
// version), lets per-connection readers consume reports — folded into
// stripes, or retained in a group's buffer for its Secure Aggregation run or
// robust reduce — and, on target, timeout, or coordinator order, merges
// everything into a single EdgeSeal handed to ship. The same actor serves
// an in-process Coordinator (ship is a mailbox send) and a selector shard
// (ship crosses the peer link).
type EdgeRound struct {
	cfg       EdgeRoundConfig
	selectors []actor.Ref
	ship      func(EdgeSeal)

	// Exactly one ingest shape per round: stripes (plain and norm-bound),
	// or groups aggs[g] each draining its retention buffer bufs[g] — one
	// for a per-update robust policy, or secure groups sized by
	// assigned[g].
	ingest    *roundIngest
	secure    bool
	groupSize int
	aggs      []actor.Ref
	bufs      []*robust.Buffer
	assigned  [][]string
	partials  []msgGroupResult

	reader    *reportReader // shared by the device goroutines, never written
	resps     map[int]*versionResp
	devices   map[string]*session // the configured devices, by ID
	completed int
	lost      int
	aborted   int
	sealed    bool
	// topUpAt round-robins replacement-quota requests across Selectors.
	topUpAt int
	// owed is how many slots granted to the Selectors (the admit count plus
	// every top-up) have not come back as a streamed device yet.
	owed int
	// out carries what the round sends from inside Receive: top-ups and the
	// revocation to its Selectors, the finalize order to its groups, then the
	// seal.
	out roundOutbox
	// timers are the armed selection and report windows, stopped at release
	// so a settled round's mailbox is not pinned until they would have fired.
	timers  []actor.Timer
	configs sync.WaitGroup // the configuration sends in flight

	// startAt anchors the report-window span; the first device batch closes
	// the check-in span (round start → the Selectors delivering) and opens
	// the configure span, which runs to the last configuration send done
	// (configEnd, unix nanos, written by the per-device goroutines);
	// mergeStart opens the edge-accumulate span. Spans say how long the
	// round took, not what it does next: they are wall time on any clock.
	startAt     time.Time
	firstBatch  time.Time
	configEnd   atomic.Int64
	windowNanos int64
	mergeStart  time.Time

	// clipped counts norm-bound edge clips (written by reader goroutines).
	clipped atomic.Int64
}

// roundOutbox runs a round's outbound control steps — quota top-ups, the
// revocation, then shipping the seal — in the order they were posted, on a
// goroutine that lives only while steps are queued. Selectors block sending
// devices into the round's bounded mailbox, so a round that blocks inside
// Receive on a Selector's mailbox (a check-in storm fills it) closes a
// wait-for cycle in which neither actor ever returns: posting never blocks.
// The seal ships behind the revocations so that everything this round told
// its Selectors has landed before the Coordinator can open the next round on
// them. Ordering does not guard the successor: a superseded round is
// abandoned by mailbox while its successor's grant goes out directly, so its
// late top-up can land after that grant, and the Selector's owner check
// (onTopUp) ignores it. A step blocked on a Selector's mailbox returns when
// the Selector stops.
type roundOutbox struct {
	clock    actor.Clock
	mu       sync.Mutex
	queue    []func()
	draining bool
}

func (o *roundOutbox) post(step func()) {
	o.mu.Lock()
	o.queue = append(o.queue, step)
	start := !o.draining
	o.draining = true
	o.mu.Unlock()
	if start {
		o.clock.Go(o.drain)
	}
}

func (o *roundOutbox) drain() {
	for {
		o.mu.Lock()
		if len(o.queue) == 0 {
			o.queue, o.draining = nil, false
			o.mu.Unlock()
			return
		}
		step := o.queue[0]
		o.queue = o.queue[1:]
		o.mu.Unlock()
		step()
	}
}

// newEdgeRound returns the behavior for one edge round. ship runs on the
// round's outbox goroutine, once the quota revocations have been delivered.
func newEdgeRound(cfg EdgeRoundConfig, selectors []actor.Ref, ship func(EdgeSeal)) *EdgeRound {
	if cfg.Target < 1 {
		cfg.Target = 1
	}
	if cfg.Admit < cfg.Target {
		cfg.Admit = cfg.Target
	}
	return &EdgeRound{
		cfg:       cfg,
		selectors: selectors,
		ship:      ship,
		owed:      cfg.Admit,
		resps:     make(map[int]*versionResp),
		devices:   make(map[string]*session, cfg.Admit),
	}
}

// Receive implements actor.Behavior.
func (er *EdgeRound) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case msgEdgeStart:
		er.start(ctx)
	case *session:
		er.onDevices(ctx, []*session{m})
	case msgDevices:
		er.onDevices(ctx, m.Devices)
	case *reportDone:
		er.noteOutcome(ctx, (*session)(m))
	case msgSelectionTimeout:
		live := 0
		for _, d := range er.devices {
			if !d.lost {
				live++
			}
		}
		if live < er.cfg.MinReports {
			er.seal(ctx)
		}
	case msgEdgeFinalize:
		er.seal(ctx)
	case msgGroupResult:
		er.onGroupResult(ctx, m)
	case msgAbandonRound:
		er.abandon(ctx, m.Reason)
	}
}

// requestDevices asks the local Selectors for the round's devices: the
// admit count is split across them, remainder to the first, each grant
// naming the round (self) as the owner its devices stream to as they check
// in. It runs on the spawner's goroutine, before the actor's first
// message: devices re-check-in the moment the previous round commits, so
// every microsecond until the grant lands is a rejected check-in.
func (er *EdgeRound) requestDevices(self actor.Ref) {
	n := len(er.selectors)
	if n == 0 {
		return
	}
	share := er.cfg.Admit / n
	extra := er.cfg.Admit - share*n
	for i, sel := range er.selectors {
		want := share
		if i == 0 {
			want += extra
		}
		if want <= 0 {
			continue
		}
		_ = sel.Send(msgSetQuota{Population: er.cfg.Population, Accept: want, Owner: self})
	}
}

// start picks the round's ingest shape from the plan and arms the selection
// and report windows.
func (er *EdgeRound) start(ctx *actor.Context) {
	er.startAt = time.Now()
	er.out.clock = ctx.System.Clock()
	srv := er.cfg.Plan.Server
	// spawnGroups spawns n group Aggregators, each with a retention buffer
	// for vectors of length vlen.
	spawnGroups := func(n, vlen int) {
		er.aggs, er.bufs, er.assigned = make([]actor.Ref, n), make([]*robust.Buffer, n), make([][]string, n)
		for g := range er.aggs {
			agg := newAggregator(er.cfg.Dim, ctx.Self)
			agg.threshold = srv.SecAggThreshold
			agg.churn = er.cfg.churn
			agg.robustPolicy, agg.spares = srv.Robust, er.cfg.Spares
			if srv.Robust.PerUpdate() {
				_, agg.obsRejectedTask, agg.obsTrimmedTask = robustTaskCounters(er.cfg.Plan.ID)
			}
			er.aggs[g] = ctx.Spawn(fmt.Sprintf("%s/agg-%d", ctx.Self.Name(), g), agg)
			er.bufs[g] = robust.NewBuffer(vlen, er.cfg.Spares)
		}
	}
	switch {
	case srv.Aggregation == plan.AggregationSecure:
		// Devices join groups by arrival index against the spans of the
		// admit count. secagg.GroupSpans folds the remainder into the last
		// full group so no planned group falls below 2 (the Aggregator's
		// singleton refusal backstops a starved round); groups never span
		// edges (Sec. 6: the sums are merged above them in the clear). A
		// group retains delta‖weight: the weight takes the last slot.
		er.secure = true
		er.groupSize = srv.SecAggGroupSize // ≥ 2: plan.Validate
		spawnGroups(len(secagg.GroupSpans(er.cfg.Admit, er.groupSize)), er.cfg.Dim+1)
	case srv.Robust.PerUpdate():
		// The robust reduce is an order statistic over the whole cohort —
		// it cannot be striped — so one reducer drains one buffer.
		spawnGroups(1, er.cfg.Dim)
	default:
		er.ingest = newRoundIngest(er.cfg.Dim, er.cfg.Spares)
	}

	er.reader = &reportReader{
		self:       ctx.Self,
		configured: srv.ParticipationCap + abortGrace,
		taskID:     er.cfg.Plan.ID,
		round:      er.cfg.Round,
		dim:        er.cfg.Dim,
		secure:     er.secure,
		evalOnly:   er.cfg.Plan.Type == plan.TaskEval,
		ingest:     er.ingest,
	}
	if !er.secure && srv.Robust.Kind == plan.RobustNormBound {
		er.reader.clip = srv.Robust.ClipNorm
		er.reader.clipped = &er.clipped
		er.reader.obsClipped, _, _ = robustTaskCounters(er.cfg.Plan.ID)
	}

	if srv.SelectionTimeout > 0 {
		er.timers = append(er.timers, ctx.After(srv.SelectionTimeout, msgSelectionTimeout{}))
	}
	er.timers = append(er.timers, ctx.After(srv.ReportTimeout, msgEdgeFinalize{}))
}

// respFor returns the Configuration payload for a device runtime version:
// the device's part of the plan (plan.MarshalDevice) and the checkpoint in
// a CheckinResponse pre-framed once per *effective* version — every runtime
// at or above the plan's MinRuntimeVersion shares one; each older version
// gets one lowered plan — so every send pushes the same immutable bytes.
func (er *EdgeRound) respFor(version int) *versionResp {
	p := er.cfg.Plan
	v := version
	if v > p.Device.MinRuntimeVersion {
		v = p.Device.MinRuntimeVersion
	}
	if vr, ok := er.resps[v]; ok {
		return vr
	}
	vr := &versionResp{}
	er.resps[v] = vr
	vp, err := p.ForVersion(version)
	var planBytes []byte
	if err == nil {
		planBytes, err = vp.MarshalDevice()
		obsPlanMarshals.Inc()
	}
	if err == nil && er.cfg.Checkpoint == nil {
		er.cfg.Checkpoint, err = er.cfg.Global.MarshalInto(p.DownlinkEncoding(), transport.Borrow(&er.cfg.Loan))
	}
	if err != nil {
		// Devices of this version cannot be served any form of the plan;
		// every one of them is rejected with the reason.
		vr.err = err.Error()
		return vr
	}
	vr.enc = transport.Lend(protocol.CheckinResponse{
		Accepted:       true,
		TaskID:         p.ID,
		Round:          er.cfg.Round,
		Plan:           planBytes,
		Checkpoint:     er.cfg.Checkpoint,
		ReportDeadline: p.Server.ParticipationCap,
	}, er.cfg.Loan)
	return vr
}

// onDevices configures streamed devices. Each accepted device gets one
// goroutine for the rest of its round: it pushes the device's
// version's shared pre-framed response (a dead socket stalls only that
// goroutine, never the actor; the frame is immutable shared bytes written
// with one vectored write, so concurrent sends hold no per-device copy) and
// then consumes the report at the edge — the O(dim) decode-and-accumulate
// happens there, and only fixed-size accounting reaches the actor.
func (er *EdgeRound) onDevices(ctx *actor.Context, devs []*session) {
	if er.sealed {
		for _, d := range devs {
			sendThenClose(ctx.System.Clock(), d.conn, protocol.Abort{TaskID: er.cfg.Plan.ID, Round: er.cfg.Round, Reason: "round sealed"})
		}
		return
	}
	if er.firstBatch.IsZero() {
		er.firstBatch = time.Now()
	}
	er.owed -= len(devs)
	// refuse answers a device this round cannot use and hands its quota slot
	// back, or refused devices would burn the admit budget below the seal
	// target and stall the round to its timeout. The rejection rides the
	// bounded response pool, which owns the close.
	replace := 0
	refuse := func(conn transport.Conn, reason string) {
		replace++
		sendThenClose(ctx.System.Clock(), conn, protocol.CheckinResponse{Accepted: false, Reason: reason})
	}
	for _, d := range devs {
		if _, dup := er.devices[d.DeviceID]; dup {
			// Already configured; it completed — or lost its connection —
			// and redialed while the window is still open.
			refuse(d.conn, "already participating in this round")
			continue
		}
		if er.cfg.MinRuntime > 0 && d.RuntimeVersion < er.cfg.MinRuntime {
			// The task's policy pins a runtime floor: reject instead of
			// serving a lowered plan the engineer asked us not to serve.
			er.lost++
			refuse(d.conn, fmt.Sprintf("task %s requires device runtime ≥ %d", er.cfg.Plan.ID, er.cfg.MinRuntime))
			continue
		}
		d.resp, d.reader = er.respFor(d.RuntimeVersion), er.reader
		if d.resp.err != "" {
			er.lost++
			refuse(d.conn, d.resp.err)
			continue
		}
		if len(er.bufs) > 0 {
			g := 0
			if er.secure {
				// From here the device counts toward its group's secagg
				// instance size: not delivering makes it a protocol
				// dropout, not a no-show.
				g = min(len(er.devices)/er.groupSize, len(er.bufs)-1)
				er.assigned[g] = append(er.assigned[g], d.DeviceID)
			}
			d.buf = er.bufs[g]
		}
		er.devices[d.DeviceID] = d
		transport.LoanOf(d.resp.enc).Acquire()
		er.configs.Add(1)
		ctx.System.Clock().Go(func() {
			d.conn.Expire(d.reader.configured)
			err := d.conn.Send(d.resp.enc)
			transport.LoanOf(d.resp.enc).Release()
			er.configs.Done()
			er.configEnd.Store(time.Now().UnixNano())
			if err != nil {
				// A failed Configuration send means a dead peer: release
				// the fd here, then account the loss on the actor.
				_ = d.conn.Close()
				d.reader.done(d, false)
				return
			}
			d.reader.read(d)
		})
	}
	er.topUp(ctx, replace)
	if er.owed <= 0 {
		// Staffed: this round's selection is over, so its Selectors may run
		// the next round's (Sec. 4.3 pipelining) — the spent-quota revocation
		// opens their pools. A later loss still tops up.
		er.revokeQuota(ctx.Self)
	}
}

// revokeQuota posts the round's quota revocation to every Selector.
func (er *EdgeRound) revokeQuota(self actor.Ref) {
	for _, sel := range er.selectors {
		er.send(sel, msgSetQuota{Population: er.cfg.Population, Owner: self})
	}
}

// noteOutcome settles one configured device: reported, or lost (rejected
// report, dead connection). A lost device of a plain round is replaced; a
// secure round keeps it as a dropout of its group, absorbed — as the paper
// has it — by over-selection.
func (er *EdgeRound) noteOutcome(ctx *actor.Context, d *session) {
	if er.devices[d.DeviceID] != d || d.reported || d.lost {
		return // a late outcome, or another round's
	}
	if !d.ok {
		d.lost = true
		er.lost++
		if !er.secure {
			er.topUp(ctx, 1)
		}
		return
	}
	d.reported = true
	er.completed++
	if er.completed >= er.cfg.Target {
		er.seal(ctx)
	}
}

// send posts one control message, for a Selector or a group Aggregator, to
// the outbox.
func (er *EdgeRound) send(to actor.Ref, msg actor.Message) {
	er.out.post(func() { _ = to.Send(msg) })
}

// topUp asks a Selector (round-robin) for n replacement devices after
// admitted ones dropped out of the round, keeping the number of devices
// that can still complete at the admit target.
func (er *EdgeRound) topUp(ctx *actor.Context, n int) {
	if n <= 0 || er.sealed || len(er.selectors) == 0 {
		return
	}
	sel := er.selectors[er.topUpAt%len(er.selectors)]
	er.topUpAt++
	er.owed += n
	er.send(sel, msgQuotaTopUp{Population: er.cfg.Population, N: n, To: ctx.Self})
}

// closeWindow ends device intake: the stripes and every group buffer are
// sealed (a reader racing the close gets fedavg.ErrPartialClosed and
// answers its device "window closed" instead of slipping past the merge
// or the group's reduce), unreported devices are told to stop, and quota is
// revoked. The sends ride the bounded response pool: an unreported device
// may still have a configuration send in flight on a stuck socket, and its
// conn's send lock would block the actor forever. Close always happens —
// after the Abort is delivered, or after the grace period — which also
// unblocks a configuration send wedged on the same connection.
func (er *EdgeRound) closeWindow(ctx *actor.Context, reason string) {
	er.sealed = true
	if er.ingest != nil {
		er.ingest.close()
	}
	for _, b := range er.bufs {
		b.Close()
	}
	abort := protocol.Abort{TaskID: er.cfg.Plan.ID, Round: er.cfg.Round, Reason: reason}
	for _, d := range er.devices {
		if !d.reported && !d.lost {
			er.aborted++
			sendThenClose(ctx.System.Clock(), d.conn, abort)
		}
	}
	er.revokeQuota(ctx.Self)
}

// seal closes the window and produces the round's one EdgeSeal: stripes
// merge here; groups are handed their closed buffers to reduce (each secure
// group with its configured-device list, so devices that never delivered
// enter the protocol as real dropouts instead of silently shrinking the
// group) and the seal ships once every group has answered.
func (er *EdgeRound) seal(ctx *actor.Context) {
	if er.sealed {
		return
	}
	er.windowNanos = time.Since(er.startAt).Nanoseconds()
	er.mergeStart = time.Now()
	er.closeWindow(ctx, "enough devices completed")
	if len(er.aggs) == 0 {
		// A dimension mismatch across stripes cannot happen (one dim per
		// round); an empty seal still tells the coordinator this edge is
		// done rather than leaving it to its straggler timeout.
		sealed, _ := fedavg.SealStripes(er.ingest.stripes)
		er.shipSeal(ctx, EdgeSeal{Seal: sealed})
		return
	}
	for g, agg := range er.aggs {
		// Through the outbox like every send this round makes from inside
		// Receive: the round must not block on a group's mailbox.
		er.send(agg, msgFinalizeGroup{Assigned: er.assigned[g], Buf: er.bufs[g]})
	}
}

// onGroupResult collects the group partials and, once all are in, merges
// them — in the clear, above the groups (Sec. 6) — into the seal. Metrics
// flow regardless of finalization errors: they never went through the
// secure path and describe reports that did complete.
func (er *EdgeRound) onGroupResult(ctx *actor.Context, m msgGroupResult) {
	if len(er.aggs) == 0 {
		m.Spares.Put(m.Sum) // abandoned while the groups were finalizing
		return
	}
	er.partials = append(er.partials, m)
	if len(er.partials) < len(er.aggs) {
		return
	}
	seal := EdgeSeal{Phases: make(map[string]int64)}
	s := &seal.Seal
	evalOnly := er.cfg.Plan.Type == plan.TaskEval
	for _, p := range er.partials {
		if p.Err != "" {
			seal.GroupErrors = append(seal.GroupErrors, p.Err)
		}
		seal.Blamed = append(seal.Blamed, p.Blamed...)
		seal.RobustRejected = append(seal.RobustRejected, p.RobustRejected...)
		// Groups finalize concurrently, so the round's secagg phase cost is
		// the slowest group's — max-merge, don't sum.
		for name, d := range p.Phases {
			if !strings.HasPrefix(name, "robust_") {
				name = "secagg_" + name
			}
			if ns := d.Nanoseconds(); ns > seal.Phases[name] {
				seal.Phases[name] = ns
			}
		}
		for name, vs := range p.Metrics {
			if s.Metrics == nil {
				s.Metrics = make(map[string][]float64)
			}
			s.Metrics[name] = append(s.Metrics[name], vs...)
		}
		switch {
		case evalOnly:
			s.EvalCount += p.Count
			p.Spares.Put(p.Sum)
		case p.Count > 0 && len(p.Sum) > 0:
			// A sum on loan (a secure group's) is adopted as the seal's, which
			// the lineage repays (DESIGN.md §5 lever 13), or goes back folded.
			if s.Sum == nil {
				s.Sum, s.Spares = p.Sum, p.Spares
			} else {
				s.Sum.Axpy(1, p.Sum)
				p.Spares.Put(p.Sum)
			}
			s.Weight += p.Weight
			s.Count += p.Count
		}
	}
	er.shipSeal(ctx, seal)
}

// shipSeal stamps the round's accounting and lifecycle spans on the seal,
// ships it, and drops everything the lingering actor no longer needs: a
// server commits tens of rounds a second, so a retained stripe set or
// pre-framed response per lingering round is hundreds of dead megabytes.
func (er *EdgeRound) shipSeal(ctx *actor.Context, seal EdgeSeal) {
	if seal.Phases == nil {
		seal.Phases = make(map[string]int64, 4)
	}
	seal.Phases[metrics.PhaseReportWindow] = er.windowNanos
	seal.Phases[metrics.PhaseEdgeAccumulate] = time.Since(er.mergeStart).Nanoseconds()
	if !er.firstBatch.IsZero() {
		seal.Phases[metrics.PhaseCheckin] = er.firstBatch.Sub(er.startAt).Nanoseconds()
		if end := er.configEnd.Load(); end > 0 {
			seal.Phases[metrics.PhaseConfigure] = end - er.firstBatch.UnixNano()
		}
	}
	seal.Population, seal.TaskID, seal.Round = er.cfg.Population, er.cfg.Plan.ID, er.cfg.Round
	seal.Lost, seal.Aborted, seal.Clipped = er.lost, er.aborted, er.clipped.Load()
	if er.ship != nil {
		er.out.post(func() { er.ship(seal) })
	}
	er.release(ctx)
}

// abandon fails the round without shipping: every held connection gets an
// abort, group Aggregators stop, and the actor lingers (like a sealed
// round) so concurrently streamed devices are answered rather than dropped
// with the mailbox.
func (er *EdgeRound) abandon(ctx *actor.Context, reason string) {
	if er.sealed {
		// Already sealed or abandoned; the round is finishing on its own.
		return
	}
	er.closeWindow(ctx, reason)
	for _, agg := range er.aggs {
		agg.Stop()
	}
	er.release(ctx)
}

// release drops the round's state and schedules the actor's actual stop
// edgeRoundLinger later. In between, late msgDevices are answered with an abort
// by onDevices' sealed branch — a device connection must never be dropped
// unanswered with the mailbox.
func (er *EdgeRound) release(ctx *actor.Context) {
	er.ingest, er.reader, er.resps, er.devices = nil, nil, nil, nil
	er.aggs, er.bufs, er.assigned, er.partials = nil, nil, nil, nil
	er.cfg.Loan.Release()
	er.cfg.Global, er.cfg.Checkpoint, er.cfg.Loan = nil, nil, nil
	for _, t := range er.timers {
		t.Stop()
	}
	if !ctx.Self.Stopped() {
		ctx.System.Clock().AfterFunc(edgeRoundLinger, ctx.Self.Stop)
	}
}

// OnStop implements actor.Stopper: a round stopped before it released closes
// its devices' connections, waits out its configuration sends and releases.
func (er *EdgeRound) OnStop(ctx *actor.Context) {
	if er.devices != nil {
		for _, d := range er.devices {
			_ = d.conn.Close()
		}
		er.configs.Wait()
		er.release(ctx)
	}
}

// startEdgeRound spawns an edge round on sys under the given actor name and
// kicks it off; the actor stops itself once sealed or abandoned.
func startEdgeRound(sys *actor.System, name string, cfg EdgeRoundConfig, selectors []actor.Ref, ship func(EdgeSeal)) actor.Ref {
	er := newEdgeRound(cfg, selectors, ship)
	ref := sys.Spawn(name, er)
	_ = ref.Send(msgEdgeStart{})
	er.requestDevices(ref)
	return ref
}
