package shard

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/fedavg"
	"repro/internal/flserver"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The round engine's composition matrix, checked as one table: every
// aggregation shape the plan can ask for, through every topology the one
// engine serves. Stub devices speak the wire protocol and report fixed
// payloads, so each cell's committed checkpoint has a closed form.

const (
	enginePop  = "pop-engine"
	engineTask = enginePop + "/task"
	// engineDim puts every cell's report frame — quant8 spends one byte per
	// parameter — above the 4 KiB from which the TCP device link reads it
	// into a leased, recycled buffer.
	engineDim = 6144
	// engineK devices fill three Secure Aggregation groups of 16 in process
	// and exactly one per shard in the 1+3 topology.
	engineK = 48
)

// engineTopology is one way of wiring the engine; shards == 0 is the
// in-process server (one local edge).
type engineTopology struct {
	name   string
	shards int
	// storm wires the rig for thousands of devices checking in at once:
	// device links on the mem network (no descriptors), two rounds so that
	// reported devices check in again into an open round, and the default
	// peer heartbeat, which a saturated 2-core host does not miss.
	storm bool
	// tcpPeers puts the shard links on loopback sockets too, so StripeSeal
	// frames are read into leased buffers.
	tcpPeers bool
	// memDevices puts the device links on the mem network.
	memDevices bool
}

var engineTopologies = []engineTopology{{name: "in-process"}, {name: "1+1", shards: 1}, {name: "1+3", shards: 3}}

// stubUpdate is device i's fixed report: a weighted delta whose weighted
// mean over any device set is easy to recompute.
func stubUpdate(i int, scale float64) *checkpoint.Checkpoint {
	u := &checkpoint.Checkpoint{TaskName: engineTask, Weight: float64(1 + i%3), Params: make(tensor.Vector, engineDim)}
	for j := range u.Params {
		u.Params[j] = scale * float64(i+1) * (float64(j%7)*0.25 - 0.5)
	}
	return u
}

// engineRig is one running topology: device links on loopback TCP (framed,
// leased receive buffers), the coordinator's shard links on a mem network
// unless the topology asks for sockets.
type engineRig struct {
	store *traceMem
	dials []func() (transport.Conn, error)
	done  <-chan struct{}
	// coord is the coordinator process of a sharded topology.
	coord *CoordinatorProc
	// taskStats and clipped read the coordinator's operator surface.
	taskStats func() []tasks.Stats
	clipped   func() int64

	// downlinks is the encoding of the global checkpoint in every
	// RoundConfig a shard of a sharded topology received (0: unparseable),
	// targets each one's Target.
	mu        sync.Mutex
	downlinks []checkpoint.Encoding
	targets   []int
}

// downlinkConn is a shard's coordinator link that notes the encoding of each
// RoundConfig's checkpoint on its rig.
type downlinkConn struct {
	transport.Conn
	rig *engineRig
}

func (c *downlinkConn) Recv() (interface{}, error) {
	msg, err := c.Conn.Recv()
	if rc, ok := msg.(protocol.RoundConfig); ok {
		meta, _ := checkpoint.ParseMeta(rc.Checkpoint)
		c.rig.mu.Lock()
		c.rig.downlinks = append(c.rig.downlinks, meta.Encoding)
		c.rig.targets = append(c.rig.targets, rc.Target)
		c.rig.mu.Unlock()
	}
	return msg, err
}

// startEngine wires p onto the given topology. The store is seeded with a
// zero round-0 checkpoint of engineDim parameters, so a committed round's
// parameters ARE the round's aggregate.
func startEngine(t *testing.T, topo engineTopology, p *plan.Plan) *engineRig {
	t.Helper()
	rig := &engineRig{store: newTraceMem()}
	if err := rig.store.PutCheckpoint(&checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, engineDim)}); err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNetwork()
	listen := func(name string, tcp bool) (transport.Listener, func() (transport.Conn, error)) {
		var l transport.Listener
		var err error
		dial := func() (transport.Conn, error) { return net.Dial(name) }
		if tcp {
			l, err = transport.ListenTCP("127.0.0.1:0")
			dial = func() (transport.Conn, error) { return transport.DialTCP(l.Addr()) }
		} else {
			l, err = net.Listen(name)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l, dial
	}
	rounds := 1
	if topo.storm {
		rounds = 2
	}
	if topo.shards == 0 {
		srv, err := flserver.New(flserver.Config{
			Population: enginePop, Plans: []*plan.Plan{p}, Store: rig.store,
			Steering: pacing.New(time.Second), PopulationEstimate: engineK, MaxRounds: 1, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		l, dial := listen("server", !topo.memDevices)
		go srv.Serve(l)
		rig.dials, rig.done = append(rig.dials, dial), srv.Done()
		// Only the sharded cells read task stats (the edge-count row).
		rig.taskStats = func() []tasks.Stats { return nil }
		rig.clipped = func() int64 {
			st, _ := srv.Stats()
			return st.Clipped
		}
		return rig
	}
	coord, err := NewCoordinatorProc(CoordinatorConfig{
		Population: enginePop, Plans: []*plan.Plan{p}, Store: rig.store,
		Steering: pacing.New(time.Second), PopulationEstimate: engineK,
		MaxRounds: rounds, MinShards: topo.shards, TickEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coordL, coordDial := listen("coord", topo.tcpPeers)
	go coord.Serve(coordL)
	for i := 0; i < topo.shards; i++ {
		sp := NewSelectorProc(SelectorConfig{
			Shard: uint32(i), Steering: pacing.New(time.Second), PopulationEstimate: engineK,
			Seed: uint64(7 + i),
		}, func() (transport.Conn, error) {
			c, err := coordDial()
			if err != nil {
				return nil, err
			}
			return &downlinkConn{Conn: c, rig: rig}, nil
		})
		t.Cleanup(sp.Close)
		l, dial := listen(fmt.Sprintf("shard-%d", i), !topo.storm && !topo.memDevices)
		go sp.Serve(l)
		rig.dials = append(rig.dials, dial)
	}
	rig.coord, rig.done = coord, coord.Done()
	rig.taskStats = func() []tasks.Stats {
		sts, _ := coord.TaskStats()
		return sts
	}
	rig.clipped = func() int64 {
		st, _ := coord.Stats()
		return st.Clipped
	}
	return rig
}

// configured checks device id in on clock (retrying while no round admits
// it) until a round configures it or stop closes, and returns the device's
// session, held between configuration and report: the stubs report fixed
// payloads instead of training.
func configured(clock actor.Clock, dial func() (transport.Conn, error), id string, stop <-chan struct{}) *device.Session {
	c := &device.Client{ID: id, Population: enginePop, Runtime: device.NewRuntime(id, 3, nil, 1), Clock: clock}
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		conn, err := dial()
		if err != nil {
			return nil
		}
		if s, err := c.Checkin(conn); err == nil && s.Accepted {
			return s
		}
		actor.Sleep(clock, 2*time.Millisecond, nil)
	}
}

// runStubs drives n devices, device i homed on dial i%len(dials), each
// reporting payload(i) in every round that configures it, until stop
// closes; it returns when all are done. A device comes back after its
// report like a real one: a round that fails — a shard link that flapped on
// a loaded host aborts the devices it had configured — is retried by the
// Coordinator, and can only commit if its devices check in again.
func runStubs(rig *engineRig, n int, payload func(i int) ([]byte, map[string]float64), stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				s := configured(actor.Wall, rig.dials[i%len(rig.dials)], fmt.Sprintf("stub-%d", i), stop)
				if s == nil {
					return
				}
				_, _ = s.Report(payload(i))
			}
		}(i)
	}
	return &wg
}

func waitEngineDone(t *testing.T, rig *engineRig) {
	t.Helper()
	select {
	case <-rig.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("round never committed; tasks: %+v", rig.taskStats())
	}
}

// TestEngineEquivalenceMatrix runs {plain float64, quant8, norm_bound, eval,
// secure groups of 16, trimmed_mean} × {in-process, 1+1, 1+3} and checks
// every committed round against its closed form. The one cell that differs
// by topology — a retention policy with more than one edge — must be
// refused with an operator-visible note, not run wrong.
//
// Released receive buffers are overwritten with 0xDB for the whole matrix:
// a fold, decode or clip pass that read an update after its reader released
// the lease would put ~1e132 into a sum, not an error below the tolerance.
func TestEngineEquivalenceMatrix(t *testing.T) {
	transport.PoisonReleasedForTest()
	// The clip bound catches two of the five attackers and no honest device
	// (largest honest per-example norm is 46 unit norms, the smallest clipped
	// attacker's 100), so the clip count discriminates.
	const attackers, attackScale, trim = 5, -40.0, 0.25
	clip := 49.5 * stubUpdate(0, 1).Params.Norm2()
	base := plan.Config{
		TaskID: engineTask, Population: enginePop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: engineK, OverSelectFactor: 1.0, MinReportFraction: 1.0,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 30 * time.Second,
		ReportEncoding: checkpoint.EncodingFloat64,
	}
	type cell struct {
		name string
		cfg  func(c *plan.Config)
		// scale is device i's payload multiplier (attackers scale theirs).
		scale func(i int) float64
		// want is the round's closed-form aggregate over the decoded
		// updates, and how many of them the policy clips.
		want func(updates []*fedavg.Update) (tensor.Vector, int)
		tol  float64
		// downlink is the encoding shards are sent the global in; 0 is
		// float64.
		downlink checkpoint.Encoding
	}
	honest := func(int) float64 { return 1 }
	attacked := func(i int) float64 {
		if i < attackers {
			return attackScale
		}
		return 1
	}
	weightedMean := func(updates []*fedavg.Update) (tensor.Vector, int) {
		acc := fedavg.NewAccumulator(engineDim)
		for _, u := range updates {
			if err := acc.Add(u); err != nil {
				panic(err)
			}
		}
		avg, _ := acc.Average()
		return avg, 0
	}
	cells := []cell{
		{name: "plain_f64", cfg: func(*plan.Config) {}, scale: honest, want: weightedMean, tol: 1e-9},
		{name: "quant8", cfg: func(c *plan.Config) { c.ReportEncoding = checkpoint.EncodingQuant8 },
			scale: honest, want: weightedMean, tol: 1e-9, downlink: checkpoint.EncodingQuant8},
		{name: "norm_bound", cfg: func(c *plan.Config) {
			c.Robust = plan.RobustPolicy{Kind: plan.RobustNormBound, ClipNorm: clip}
		}, scale: attacked, want: func(updates []*fedavg.Update) (tensor.Vector, int) {
			clipped := 0
			for _, u := range updates {
				if fedavg.ClipUpdate(u, clip) {
					clipped++
				}
			}
			avg, _ := weightedMean(updates)
			return avg, clipped
		}, tol: 1e-9},
		{name: "eval", cfg: func(c *plan.Config) {
			c.Type, c.BatchSize, c.Epochs, c.LearningRate = plan.TaskEval, 0, 0, 0
		}, scale: honest, tol: 1e-9},
		{name: "secure_group16", cfg: func(c *plan.Config) {
			c.SecureAggregation, c.SecAggGroupSize = true, 16
		}, scale: honest, want: weightedMean, tol: 1e-4}, // secagg's 2^-20 fixed point
		{name: "trimmed_mean", cfg: func(c *plan.Config) {
			c.Robust = plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: trim}
		}, scale: attacked, want: func(updates []*fedavg.Update) (tensor.Vector, int) {
			// Sorted-sample reference: per coordinate, the mean of the
			// per-example averages left after trimming each tail.
			out := make(tensor.Vector, engineDim)
			vals := make([]float64, len(updates))
			cut := int(trim * float64(len(updates)))
			for j := range out {
				for i, u := range updates {
					vals[i] = u.Delta[j] / u.Weight
				}
				sort.Float64s(vals)
				for _, v := range vals[cut : len(vals)-cut] {
					out[j] += v
				}
				out[j] /= float64(len(vals) - 2*cut)
			}
			return out, 0
		}, tol: 1e-9},
	}
	for _, c := range cells {
		for _, topo := range engineTopologies {
			c, topo := c, topo
			t.Run(c.name+"/"+topo.name, func(t *testing.T) {
				t.Parallel()
				cfg := base
				c.cfg(&cfg)
				p, err := plan.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rig := startEngine(t, topo, p)
				stop := make(chan struct{})
				stubs := &sync.WaitGroup{}
				defer func() { close(stop); stubs.Wait() }()
				// Devices report through the wire encoding; the reference
				// folds what checkpoint.Unmarshal decodes from the same bytes.
				wire := make([][]byte, engineK)
				decoded := make([]*fedavg.Update, engineK)
				for i := range wire {
					if wire[i], err = stubUpdate(i, c.scale(i)).Marshal(p.UplinkEncoding()); err != nil {
						t.Fatal(err)
					}
					d, err := checkpoint.Unmarshal(wire[i])
					if err != nil {
						t.Fatal(err)
					}
					decoded[i] = &fedavg.Update{Delta: d.Params, Weight: d.Weight}
				}
				evalMetric := func(i int) float64 { return 0.5 + float64(i)/256 }
				stubs = runStubs(rig, engineK, func(i int) ([]byte, map[string]float64) {
					if p.Type == plan.TaskEval {
						return nil, map[string]float64{"eval_accuracy": evalMetric(i)}
					}
					return wire[i], map[string]float64{"train_loss": 0.5}
				}, stop)

				if p.Server.Robust.PerUpdate() && topo.shards > 1 {
					// The only edge-count-dependent row of the matrix.
					deadline := time.Now().Add(15 * time.Second)
					for {
						sts := rig.taskStats()
						if len(sts) == 1 && sts[0].State == tasks.Paused {
							if !strings.Contains(sts[0].Note, "robust") || !strings.Contains(sts[0].Note, "norm_bound") {
								t.Fatalf("refusal note not operator-readable: %q", sts[0].Note)
							}
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("retention task on %d edges not refused: %+v", topo.shards, sts)
						}
						time.Sleep(5 * time.Millisecond)
					}
					if ck, _ := rig.store.LatestCheckpoint(p.ID); ck.Round != 0 {
						t.Fatalf("refused task committed round %d", ck.Round)
					}
					return
				}

				waitEngineDone(t, rig)
				if topo.shards > 0 {
					// The coordinator frames the global for the device link:
					// a Quant8 training plan's RoundConfig is 8× smaller.
					want := c.downlink
					if want == 0 {
						want = checkpoint.EncodingFloat64
					}
					rig.mu.Lock()
					got := append([]checkpoint.Encoding(nil), rig.downlinks...)
					rig.mu.Unlock()
					if len(got) == 0 {
						t.Fatal("no RoundConfig reached a shard")
					}
					for _, enc := range got {
						if enc != want {
							t.Fatalf("RoundConfig checkpoints arrived as %v, want encoding %d", got, want)
						}
					}
				}
				ck, err := rig.store.LatestCheckpoint(p.ID)
				if err != nil {
					t.Fatal(err)
				}
				if p.Type == plan.TaskEval {
					// Eval rounds commit metrics, never checkpoints.
					if ck.Round != 0 {
						t.Fatalf("eval round advanced the lineage to round %d", ck.Round)
					}
					ms, err := rig.store.Metrics(p.ID)
					if err != nil || len(ms) != 1 {
						t.Fatalf("eval metrics: %d records, %v", len(ms), err)
					}
					var mean float64
					for i := 0; i < engineK; i++ {
						mean += evalMetric(i) / engineK
					}
					got := ms[0].Stats["eval_accuracy"]
					if got.Count != engineK || math.Abs(got.Mean-mean) > c.tol {
						t.Fatalf("eval_accuracy = %+v, want %d samples of mean %v", got, engineK, mean)
					}
					return
				}
				if ck.Round != 1 {
					t.Fatalf("committed round %d, want 1", ck.Round)
				}
				want, wantClipped := c.want(decoded)
				for j := range want {
					if math.Abs(ck.Params[j]-want[j]) > c.tol*(1+math.Abs(want[j])) {
						t.Fatalf("param %d: committed %v, closed form %v", j, ck.Params[j], want[j])
					}
				}
				if got := rig.clipped(); got != int64(wantClipped) {
					t.Fatalf("clipped = %d, reference clipped %d", got, wantClipped)
				}
			})
		}
	}
}

// lastTrace returns the newest round trace the store holds.
func lastTrace(t *testing.T, store *traceMem) metrics.RoundTrace {
	t.Helper()
	traces := store.RoundTraces()
	if len(traces) == 0 {
		t.Fatal("no round trace recorded")
	}
	return traces[len(traces)-1]
}

// TestOverSelectedRoundTraceCountsAborted: an over-selected round's trace
// must count the configured devices the seal told to stop, identically in
// process and across 1+3 shards (whose seals used to drop the count on the
// wire). Target 3 at over-selection 2.0 admits 6; three report and the
// other three — one per shard in the sharded run — are aborted.
func TestOverSelectedRoundTraceCountsAborted(t *testing.T) {
	p, err := plan.Generate(plan.Config{
		TaskID: engineTask, Population: enginePop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 3, OverSelectFactor: 2.0, MinReportFraction: 1.0,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 30 * time.Second,
		ReportEncoding: checkpoint.EncodingFloat64,
	})
	if err != nil {
		t.Fatal(err)
	}
	update, err := stubUpdate(0, 1).Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	run := func(topo engineTopology) (reports, aborted int) {
		rig := startEngine(t, topo, p)
		stop := make(chan struct{})
		defer close(stop)
		// All six devices are configured before any reports, so the seal
		// finds exactly three of them unreported.
		sessions := make([]*device.Session, 6)
		conns := make([]transport.Conn, 6) // each session's connection
		var wg sync.WaitGroup
		for i := range sessions {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				dial := func() (conn transport.Conn, err error) {
					conn, err = rig.dials[i%len(rig.dials)]()
					conns[i] = conn
					return conn, err
				}
				sessions[i] = configured(actor.Wall, dial, fmt.Sprintf("stub-%d", i), stop)
			}(i)
		}
		wg.Wait()
		for i, s := range sessions[:3] {
			if out, err := s.Report(update, nil); err != nil || !out.ReportAccepted {
				t.Fatalf("%s: device %d's report not accepted: %+v, %v", topo.name, i, out, err)
			}
		}
		waitEngineDone(t, rig)
		// The seal aborted the other three: whatever reaches them is an
		// Abort. They do not report — a late report races the Abort to
		// the device and may be answered first.
		for i, conn := range conns[3:] {
			if msg, err := conn.Recv(); err == nil {
				if _, ok := msg.(protocol.Abort); !ok {
					t.Fatalf("%s: over-selected device %d got %T, want Abort", topo.name, 3+i, msg)
				}
			}
			conn.Close()
		}
		tr := lastTrace(t, rig.store)
		if !tr.Committed {
			t.Fatalf("%s: round did not commit", topo.name)
		}
		return tr.Reports, tr.Aborted
	}
	inReports, inAborted := run(engineTopologies[0])
	shReports, shAborted := run(engineTopologies[2])
	if inAborted != 3 || shAborted != inAborted {
		t.Fatalf("trace Aborted: in-process %d, 1+3 %d, want 3 and 3", inAborted, shAborted)
	}
	if inReports != 3 || shReports != inReports {
		t.Fatalf("trace Reports: in-process %d, 1+3 %d, want 3 and 3", inReports, shReports)
	}
}

// TestFailedRoundReticksAtOnce: a round that settles below its minimum must
// chain the next round immediately, as a committed one does — not idle
// until the scheduling tick. With no devices and a 100ms report window
// every round fails; at a 30s TickEvery only the immediate re-tick can put
// several RoundConfigs on the wire within a few seconds.
func TestFailedRoundReticksAtOnce(t *testing.T) {
	p, err := plan.Generate(plan.Config{
		TaskID: engineTask, Population: enginePop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 2, SelectionTimeout: time.Minute, ReportTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const tickEvery = 30 * time.Second
	clock := newClock()
	coord, err := NewCoordinatorProc(CoordinatorConfig{
		Population: enginePop, Plans: []*plan.Plan{p}, Store: storage.NewMem(),
		Steering: pacing.New(time.Second), MinShards: 1, TickEvery: tickEvery, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	net := transport.NewMemNetwork(clock)
	l, err := net.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	clock.Go(func() { coord.Serve(l) })

	rec := newConfigRecorder()
	sp := NewSelectorProc(SelectorConfig{Shard: 0, Steering: pacing.New(time.Second), Peer: remote.Options{Clock: clock}},
		func() (transport.Conn, error) {
			c, err := net.Dial("coord")
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, shard: 0, rec: rec}, nil
		})
	defer sp.Close()

	if err := clock.Run(tickEvery/3, func() bool { return rec.snapshot()[[2]int64{0, 0}] >= 4 }); err != nil {
		st, _ := coord.Stats()
		t.Fatalf("%d RoundConfigs in %v (stats %+v): failed rounds wait for the %v tick: %v",
			rec.snapshot()[[2]int64{0, 0}], tickEvery/3, st, tickEvery, err)
	}
	if st, err := coord.Stats(); err != nil || st.RoundsFailed < 3 || st.RoundsCompleted != 0 {
		t.Fatalf("stats after the failed rounds: %+v, %v", st, err)
	}
}

// traceMem is a storage.Mem that keeps the round traces it is handed (the
// optional metrics.TraceStore half of a store), for tests that assert on them.
type traceMem struct {
	*storage.Mem
	mu     sync.Mutex
	traces []metrics.RoundTrace
}

func newTraceMem() *traceMem { return &traceMem{Mem: storage.NewMem()} }

// PutRoundTrace implements metrics.TraceStore.
func (s *traceMem) PutRoundTrace(t metrics.RoundTrace) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, t)
	return nil
}

// RoundTraces returns every stored round trace in arrival order.
func (s *traceMem) RoundTraces() []metrics.RoundTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]metrics.RoundTrace(nil), s.traces...)
}
