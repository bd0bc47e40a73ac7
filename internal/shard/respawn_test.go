package shard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/flserver"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// crashingEdge is an Edge whose Open panics: attaching it to a Coordinator
// with a round in flight kills that Coordinator on the spot, mid-round.
type crashingEdge struct{}

func (crashingEdge) Open(*flserver.EdgeRoundConfig, actor.Ref) error { panic("edge crash injected") }
func (crashingEdge) Finalize(string, int64) error                    { return nil }
func (crashingEdge) Abort(string, int64, string)                     {}
func (crashingEdge) ProbeRates(actor.Ref)                            {}

// commitLog records the round of every PutCheckpoint: two live Coordinators
// for one population would commit a round twice or out of order.
type commitLog struct {
	*storage.Mem
	mu     sync.Mutex
	rounds []int64
}

func (s *commitLog) PutCheckpoint(c *checkpoint.Checkpoint) error {
	s.mu.Lock()
	s.rounds = append(s.rounds, c.Round)
	s.mu.Unlock()
	return s.Mem.PutCheckpoint(c)
}

// countingListener counts accepted shard links.
type countingListener struct {
	transport.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestShardedCoordinatorRespawns is Sec. 4.4 on the sharded topology (1+2
// over the mem network): the Coordinator dies while both shards hold
// configured devices; it is respawned over the shard links that are already
// up — nobody reconnects, the shards keep the edge rounds they were running —
// the crashed round and the one after it commit to their closed form, and
// the lineage has one writer throughout.
func TestShardedCoordinatorRespawns(t *testing.T) {
	const shards, k, rounds = 2, 4, 2
	p, err := plan.Generate(plan.Config{
		TaskID: engineTask, Population: enginePop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: k, OverSelectFactor: 1.0, MinReportFraction: 1.0,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 30 * time.Second,
		ReportEncoding: checkpoint.EncodingFloat64,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := &commitLog{Mem: storage.NewMem()}
	if err := store.Mem.PutCheckpoint(&checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, engineDim)}); err != nil {
		t.Fatal(err)
	}
	clock := newClock()
	coord, err := NewCoordinatorProc(CoordinatorConfig{
		Population: enginePop, Plans: []*plan.Plan{p}, Store: store,
		Steering: pacing.New(time.Second), PopulationEstimate: k,
		MaxRounds: rounds, MinShards: shards, TickEvery: 20 * time.Millisecond, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	net := transport.NewMemNetwork(clock)
	rawL, err := net.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	coordL := &countingListener{Listener: rawL}
	t.Cleanup(func() { coordL.Close() })
	clock.Go(func() { coord.Serve(coordL) })

	// configs tallies the RoundConfig frames each shard is sent, per round.
	configs := newConfigRecorder()
	procs := make([]*SelectorProc, shards)
	dials := make([]func() (transport.Conn, error), shards)
	for i := range procs {
		shard := uint32(i)
		procs[i] = NewSelectorProc(SelectorConfig{
			Shard: shard, Steering: pacing.New(time.Second), PopulationEstimate: k,
			Seed: uint64(7 + i), Peer: remote.Options{Clock: clock},
		}, func() (transport.Conn, error) {
			c, err := net.Dial("coord")
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, shard: shard, rec: configs}, nil
		})
		t.Cleanup(procs[i].Close)
		name := fmt.Sprintf("shard-%d", i)
		l, err := net.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		sp := procs[i]
		clock.Go(func() { sp.Serve(l) })
		dials[i] = func() (transport.Conn, error) { return net.Dial(name) }
	}

	update, err := stubUpdate(0, 1).Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	// configure checks k devices in, k/shards per shard, and returns them
	// configured and holding their reports.
	configure := func(gen int) []*device.Session {
		held := make([]*device.Session, k)
		var ready atomic.Int64
		for i := range held {
			clock.Go(func() {
				held[i] = configured(clock, dials[i%shards], fmt.Sprintf("stub-%d-%d", gen, i), stop)
				ready.Add(1)
			})
		}
		until(t, clock, fmt.Sprintf("%d devices configured", k), func() bool { return ready.Load() == k })
		return held
	}
	// report sends each held report from the rig.
	report := func(held []*device.Session) {
		for _, s := range held {
			clock.Go(func() { _, _ = s.Report(update, nil) })
		}
	}
	waitRounds := func(want int) {
		t.Helper()
		until(t, clock, fmt.Sprintf("round %d to commit", want), func() bool {
			st, err := coord.Stats()
			return err == nil && st.RoundsCompleted >= want
		})
	}

	// Round 1 is staffed on both shards; then its Coordinator dies.
	held := configure(0)
	if err := flserver.EdgeUp(coord.coord, crashingEdge{}); err != nil {
		t.Fatal(err)
	}
	// The respawned Coordinator starts over both links at once: each shard is
	// sent the crashed round's config a second time, and keeps running it.
	until(t, clock, "the crashed round to be re-opened on both live links (or the Coordinator was not respawned)", func() bool {
		seen := configs.snapshot()
		return seen[[2]int64{0, 0}] == 2 && seen[[2]int64{1, 0}] == 2
	})
	report(held)
	waitRounds(1)
	report(configure(1))
	waitRounds(2)

	// Every stub reports the same update over a zero global: each round adds
	// that update's per-example mean.
	want := stubUpdate(0, 1)
	got, err := store.LatestCheckpoint(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range want.Params {
		if math.Abs(got.Params[j]-rounds*w/want.Weight) > 1e-9 {
			t.Fatalf("round %d param %d: committed %v, want %v", got.Round, j, got.Params[j], rounds*w/want.Weight)
		}
	}
	store.mu.Lock()
	commits := fmt.Sprint(store.rounds)
	store.mu.Unlock()
	if commits != "[1 2]" {
		t.Fatalf("lineage forked or skipped: commits of rounds %s, want [1 2]", commits)
	}
	if n := coordL.accepted.Load(); n != shards {
		t.Fatalf("%d shard links accepted, want %d: a shard reconnected across the respawn", n, shards)
	}
	for i, sp := range procs {
		st, err := sp.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.RoundsOpened != rounds || st.RoundsDropped != 0 {
			t.Fatalf("shard %d opened %d edge rounds and dropped %d, want %d and 0: the crashed round was not kept",
				i, st.RoundsOpened, st.RoundsDropped, rounds)
		}
	}
}
