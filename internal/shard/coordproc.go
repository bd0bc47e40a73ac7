package shard

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/fedavg"
	"repro/internal/flserver"
	"repro/internal/metrics"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// CoordinatorConfig configures the coordinator process of a sharded
// deployment: the single owner of one population's round state, task set,
// pacing, and lock service (defaults as for flserver.PopulationSpec).
type CoordinatorConfig struct {
	Population string
	// Plans seeds the task set (sugar, like flserver.Config.Plans).
	Plans              []*plan.Plan
	Store              storage.Store
	Steering           *pacing.Steering
	PopulationEstimate int
	// MaxRounds stops after that many committed rounds (0 = forever).
	MaxRounds int
	// MinShards is how many connected shards a round needs to start
	// (default 1).
	MinShards int
	// SealGrace is the extra wait, past the round's ReportTimeout, for
	// straggler seals before the round settles with what arrived
	// (default 2s).
	SealGrace time.Duration
	// TickEvery paces the scheduling loop (default 250ms).
	TickEvery time.Duration
	// Clock is the one clock the coordinator process runs on (nil: the wall
	// clock).
	Clock actor.Clock
}

// CoordStats reports the sharded coordinator's progress.
type CoordStats struct {
	RoundsCompleted int
	RoundsFailed    int
	CurrentRound    int64
	// Shards is the number of currently connected selector shards.
	Shards int
	// SealsReceived / BytesUpstream count sealed stripes (and their wire
	// bytes) received from shards — the only aggregation traffic that
	// crosses the process boundary.
	SealsReceived int64
	BytesUpstream int64
	// Clipped totals norm-bound edge clips reported in seals across every
	// round so far.
	Clipped int64
}

// CoordinatorProc is the coordinator process: it accepts shard links and
// hosts the population's supervised Coordinator — the one round engine, its
// task set and its lock, all flserver's — with one Edge per connected shard
// link. What lives here is only what is about links rather than rounds: the
// session plumbing, the wire form of configs and seals, and the traffic
// counters (per shard on /metrics).
type CoordinatorProc struct {
	cfg CoordinatorConfig
	// coord reaches the Coordinator's current incarnation: a crashed one is
	// respawned over the links in live (Sec. 4.4), which stay connected.
	coord actor.Ref
	done  chan struct{}

	// memo holds the round's plan and checkpoint marshaled once, keyed by
	// the plan and the lineage position (task, round) of the global they
	// encode: every shard's RoundConfig — each carries its edge's share —
	// aliases those bytes, and so does a re-send to a reconnecting shard. It
	// keeps no pointer to the global, whose Params go back to the stock once
	// the next commit supersedes it. The checkpoint is marshaled into a loan,
	// whose reference the memo holds until it is replaced. Touched only on
	// the coordinator actor's goroutine (Edge.Open).
	memo struct {
		plan     *plan.Plan
		task     string
		round    int64
		pl, ckpt []byte
		loan     *transport.Loan
	}
	closeMemo sync.Once

	// sums stocks the vectors shard sums decode into: a sum the
	// Coordinator adds rather than adopts comes back here (AddSealed).
	sums fedavg.Spares

	mu        sync.Mutex
	live      map[*shardEdge]uint32 // announced links → shard index
	sealsRecv int64
	bytesUp   int64
}

// shardEdge is one shard link as the coordinator's Edge: opening a round
// sends the edge's RoundConfig down the link; the seal comes back as a
// protocol.StripeSeal handled in serveConn.
type shardEdge struct {
	cp   *CoordinatorProc
	sess *remote.Session
	// openedAt (unix nanos) anchors the per-shard seal latency; written on
	// the coordinator actor's goroutine, read on the link's reader.
	openedAt atomic.Int64
}

// Open implements flserver.Edge.
func (e *shardEdge) Open(cfg *flserver.EdgeRoundConfig, _ actor.Ref) error {
	memo := &e.cp.memo
	if g := cfg.Global; memo.plan != cfg.Plan || memo.task != g.TaskName || memo.round != g.Round {
		pl, err := cfg.Plan.Marshal()
		if err != nil {
			return err
		}
		var loan *transport.Loan
		ckpt, err := cfg.Global.MarshalInto(cfg.Plan.DownlinkEncoding(), transport.Borrow(&loan, e.cp.cfg.Clock))
		if err != nil {
			return err
		}
		memo.loan.Release()
		memo.plan, memo.task, memo.round, memo.pl, memo.ckpt, memo.loan = cfg.Plan, g.TaskName, g.Round, pl, ckpt, loan
	}
	if err := e.sess.Send(transport.Lend(protocol.RoundConfig{
		Population: cfg.Population,
		TaskID:     cfg.Plan.ID,
		Round:      cfg.Round,
		Target:     cfg.Target,
		Admit:      cfg.Admit,
		MinReports: cfg.MinReports,
		MinRuntime: cfg.MinRuntime,
		Estimate:   cfg.Estimate,
		Plan:       memo.pl,
		Checkpoint: memo.ckpt,
	}, memo.loan)); err != nil {
		return err
	}
	e.openedAt.Store(time.Now().UnixNano())
	return nil
}

// Finalize implements flserver.Edge.
func (e *shardEdge) Finalize(taskID string, round int64) error {
	return e.sess.Send(protocol.RoundFinalize{Population: e.cp.cfg.Population, TaskID: taskID, Round: round})
}

// Abort implements flserver.Edge.
func (e *shardEdge) Abort(taskID string, round int64, reason string) {
	_ = e.sess.Send(protocol.RoundAbort{Population: e.cp.cfg.Population, TaskID: taskID, Round: round, Reason: reason})
}

// ProbeRates implements flserver.Edge: shards push CheckinRate samples on
// their own cadence.
func (e *shardEdge) ProbeRates(actor.Ref) {}

// NewCoordinatorProc builds the coordinator process and starts its
// scheduling loop (rounds begin once MinShards shards connect).
func NewCoordinatorProc(cfg CoordinatorConfig) (*CoordinatorProc, error) {
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 250 * time.Millisecond
	}
	cfg.Clock = actor.OrWall(cfg.Clock)
	cp := &CoordinatorProc{cfg: cfg, done: make(chan struct{}), live: make(map[*shardEdge]uint32)}
	var err error
	cp.coord, err = flserver.SuperviseCoordinator(cfg.Clock, flserver.CoordinatorParams{
		Population: cfg.Population, Store: cfg.Store,
		Steering: cfg.Steering, PopulationEstimate: cfg.PopulationEstimate,
		MinEdges: cfg.MinShards, SealGrace: cfg.SealGrace, TickEvery: cfg.TickEvery,
		MaxRounds: cfg.MaxRounds, Done: cp.done,
	}, cfg.Plans, cp.liveEdges)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return cp, nil
}

// liveEdges lists the announced links: what a respawned Coordinator starts
// over, so no shard has to reconnect to be seen again.
func (cp *CoordinatorProc) liveEdges() []flserver.Edge {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	edges := make([]flserver.Edge, 0, len(cp.live))
	for e := range cp.live {
		edges = append(edges, e)
	}
	return edges
}

// Done is closed when MaxRounds rounds have committed.
func (cp *CoordinatorProc) Done() <-chan struct{} { return cp.done }

// TaskStats reports every task's lifecycle record, in submission order —
// the operator surface that carries auto-pause notes (e.g. a
// retention-policy task the scheduler refused to run across several
// shards).
func (cp *CoordinatorProc) TaskStats() ([]tasks.Stats, error) {
	return flserver.QueryTaskStats(cp.coord)
}

// Serve accepts shard connections from l until l closes. Each connection
// becomes a remote.Session answering heartbeats; shard control messages
// route to the coordinator actor.
func (cp *CoordinatorProc) Serve(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		cp.cfg.Clock.Go(func() { cp.serveConn(conn) })
	}
}

func (cp *CoordinatorProc) serveConn(conn transport.Conn) {
	edge := &shardEdge{cp: cp}
	edge.sess = remote.NewSession(conn, remote.SessionOptions{
		Handle: func(msg interface{}) {
			switch m := msg.(type) {
			case protocol.ShardHello:
				cp.mu.Lock()
				cp.live[edge] = m.Shard
				cp.mu.Unlock()
				_ = flserver.EdgeUp(cp.coord, edge)
			case protocol.StripeSeal:
				cp.onSeal(edge, m)
			case protocol.CheckinRate:
				if m.Elapsed > 0 {
					checkinRate(m.Shard).Set(float64(m.Count) / m.Elapsed.Seconds())
				}
				_ = flserver.DeliverRate(cp.coord, fmt.Sprintf("shard-%d/%s", m.Shard, m.Source),
					m.Population, m.Count, m.Elapsed, int(m.Demand))
			case protocol.TelemetrySnapshot:
				// Fold the shard's registry export into the local one under
				// a shard label, so this process's /metrics aggregates the
				// whole deployment. No actor hop: SetExternal is a bounded
				// map store, safe on the session reader goroutine.
				metrics.Default.SetExternal(externalLabel(m.Shard), metrics.Export{
					Counters:  m.Counters,
					Gauges:    m.Gauges,
					Summaries: m.Summaries,
				})
			case protocol.RoundAbort:
				// The shard refused the round (e.g. undecodable checkpoint):
				// an empty seal settles it without this shard.
				_ = flserver.DeliverSeal(cp.coord, edge, flserver.EdgeSeal{TaskID: m.TaskID, Round: m.Round})
			}
		},
	}, cp.cfg.Clock)
	_ = edge.sess.Run()
	cp.mu.Lock()
	shard, announced := cp.live[edge]
	delete(cp.live, edge)
	if announced && !slices.Contains(slices.Collect(maps.Values(cp.live)), shard) {
		// The shard is gone, not frozen: its shipped series and its check-in
		// rate leave /metrics (with Stats' shard count) until a link
		// announces that index again.
		metrics.Default.DropExternal(externalLabel(shard))
		checkinRate(shard).Set(0)
	}
	cp.mu.Unlock()
	_ = flserver.EdgeDown(cp.coord, edge)
}

// externalLabel is the label a shard's shipped telemetry is rendered under.
func externalLabel(shard uint32) string { return fmt.Sprintf("shard=%q", fmt.Sprint(shard)) }

// checkinRate is the coordinator-derived check-in rate gauge of one shard.
func checkinRate(shard uint32) *metrics.Gauge {
	return metrics.Default.Gauge(metrics.Label("fl_shard_checkin_rate", "shard", fmt.Sprint(shard)))
}

// onSeal accounts one received StripeSeal — every one, late and duplicate
// seals included: this is link traffic, the round engine dedups — and hands
// its decoded form to the coordinator.
func (cp *CoordinatorProc) onSeal(edge *shardEdge, m protocol.StripeSeal) {
	wire := sealWireBytes(m)
	shardLabel := fmt.Sprint(m.Shard)
	obsSealsReceived.Inc()
	obsBytesUpstream.Add(wire)
	metrics.Default.Counter(metrics.Label("fl_shard_seals_total", "shard", shardLabel)).Inc()
	if opened := edge.openedAt.Load(); opened > 0 {
		// Per-shard seal latency: round config sent → this shard's seal.
		metrics.Default.Summary(metrics.Label("fl_shard_seal_seconds", "shard", shardLabel)).
			Observe(time.Since(time.Unix(0, opened)).Seconds())
	}
	if m.Clipped > 0 {
		// Per-shard defense visibility on the coordinator's aggregated
		// /metrics, mirroring the seal counters above.
		metrics.Default.Counter(metrics.Label("fl_robust_clipped_total", "shard", shardLabel)).Add(m.Clipped)
	}
	cp.mu.Lock()
	cp.sealsRecv++
	cp.bytesUp += wire
	cp.mu.Unlock()

	seal := flserver.EdgeSeal{
		Population: m.Population, TaskID: m.TaskID, Round: m.Round,
		Seal: fedavg.SealedStripe{Spares: &cp.sums, Weight: m.Weight, Count: int(m.Reports),
			EvalCount: int(m.EvalReports), Metrics: m.Metrics},
		Lost: int(m.Lost), Aborted: int(m.Aborted), Clipped: m.Clipped, Phases: m.Phases,
		Blamed: m.Blamed, GroupErrors: m.GroupErrors, RobustRejected: m.RobustRejected,
	}
	var err error
	if seal.Seal.Sum, err = cp.sums.UnmarshalSum(m.Sum); err != nil {
		// An undecodable sum loses the shard's updates, not the round.
		seal.Lost += int(m.Reports)
		seal.Seal.Weight, seal.Seal.Count = 0, 0
	}
	if flserver.DeliverSeal(cp.coord, edge, seal) != nil {
		seal.Seal.Spares.Put(seal.Seal.Sum)
	}
}

// Stats snapshots coordinator progress. The error is non-nil when the
// coordinator actor is dead or unresponsive.
func (cp *CoordinatorProc) Stats() (CoordStats, error) {
	st, err := flserver.QueryCoordinatorStats(cp.coord)
	if err != nil {
		return CoordStats{}, fmt.Errorf("shard: %w", err)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return CoordStats{
		RoundsCompleted: st.RoundsCompleted,
		RoundsFailed:    st.RoundsFailed,
		CurrentRound:    st.CurrentRound,
		Clipped:         st.Clipped,
		Shards:          len(cp.live),
		SealsReceived:   cp.sealsRecv,
		BytesUpstream:   cp.bytesUp,
	}, nil
}

// Close stops the coordinator process (idempotent, like the Shutdown it
// wraps) and then gives back the memo's loan: no round opens any more.
func (cp *CoordinatorProc) Close() {
	cp.coord.Stop()
	cp.closeMemo.Do(cp.memo.loan.Release)
}
