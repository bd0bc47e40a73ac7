package flserver

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestMemDownloadsLendTheirLoan: an in-process round marshals its
// checkpoint into a pooled loan, counted on the round's clock, and a device
// on an in-memory link reads it under a lease, as over TCP. Once the round
// has released everything and the next round has marshaled its own
// checkpoint of the same size class, the first device — which has not
// called Recv again — still reads its round's checkpoint (released buffers
// are poisoned here); its Release is the last reference, so the buffer goes
// back to the pool and the clock's count of loans out to zero. Each count is
// read with the rig idle.
func TestMemDownloadsLendTheirLoan(t *testing.T) {
	transport.PoisonReleasedForTest()
	clock := newWatchedClock()
	sys := actor.NewSystem(clock)
	defer sys.Shutdown()
	p := testPlan(t, 1, false)
	p.Server.SelectionTimeout, p.Server.ReportTimeout = time.Minute, time.Minute
	const dim = 1 << 16
	open := func(r int64) (actor.Ref, chan EdgeSeal, *checkpoint.Checkpoint, transport.Conn, protocol.CheckinResponse) {
		g := &checkpoint.Checkpoint{TaskName: p.ID, Round: r, Params: make(tensor.Vector, dim)}
		for i := range g.Params {
			g.Params[i] = float64(r) + float64(i)
		}
		seals := make(chan EdgeSeal, 1)
		ref := sys.Spawn(fmt.Sprintf("edge-lend-%d", r), newEdgeRound(EdgeRoundConfig{
			Population: "pop", Plan: p, Round: r, Global: g, Dim: dim, Target: 1,
		}, nil, func(s EdgeSeal) { seals <- s }))
		_ = ref.Send(msgEdgeStart{})
		srv, dev := transport.Pipe(clock)
		_ = ref.Send(&session{CheckinRequest: protocol.CheckinRequest{DeviceID: "d", RuntimeVersion: 3}, conn: srv})
		msg, err := dev.Recv() // the configuration needs no time to pass
		if err != nil {
			t.Fatal(err)
		}
		resp, ok := msg.(protocol.CheckinResponse)
		if !ok || !resp.Accepted {
			t.Fatalf("round %d configured its device with %T %+v", r, msg, msg)
		}
		return ref, seals, g, dev, resp
	}
	loans := func(want int, what string) {
		t.Helper()
		clock.until(t, what, func() bool { return true })
		if got := clock.Loans(); got != want {
			t.Fatalf("%d loans out %s, want %d", got, what, want)
		}
	}
	ref, seals, g, dev, resp := open(1)
	_ = ref.Send(msgEdgeFinalize{})
	clock.until(t, "round 1's seal", func() bool { return len(seals) == 1 })
	loans(1, "after the round released under its device's lease")
	next, _, _, nextDev, _ := open(2)
	want, err := g.Marshal(p.DownlinkEncoding())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Checkpoint, want) {
		t.Fatal("a device on an in-memory link lost its checkpoint before it ended its lease")
	}
	dev.Release()
	if resp.Checkpoint[0] != 0xDB || resp.Checkpoint[len(want)-1] != 0xDB {
		t.Fatal("the device's Release was not the loan's last reference")
	}
	_ = next.Send(msgAbandonRound{Reason: "test over"})
	loans(1, "after round 2 was abandoned under its device's lease")
	nextDev.Release()
	loans(0, "after both devices released")
}

// TestMemDownlinkBufferIsRecycled: over in-memory links a round's downlink
// checkpoint goes back to the pool once the round and its devices are done
// with it, so from round 2 on the round marshals into the buffer round 1
// took and no model-sized receive buffer is allocated afresh.
func TestMemDownlinkBufferIsRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// A sync.Pool hands a buffer back reliably only on the P that returned
	// it and until the second collection after: start from empty pools, on
	// one P, with the collector off.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const dim, k, rounds = 1 << 16, 4, 5
	p, err := plan.Generate(plan.Config{
		TaskID: "pop/train", Population: "pop",
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 10, Epochs: 1, LearningRate: 0.05,
		TargetDevices: k, OverSelectFactor: 1.0,
		SelectionTimeout: time.Minute, ReportTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMem()
	if err := store.PutCheckpoint(&checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, dim)}); err != nil {
		t.Fatal(err)
	}
	update, err := (&checkpoint.Checkpoint{TaskName: p.ID, Weight: 1, Params: make(tensor.Vector, dim)}).Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	r := runServer(t, Config{Population: "pop", Plans: []*plan.Plan{p}, Store: store,
		Steering: pacing.New(time.Second), PopulationEstimate: k, MaxRounds: rounds})
	var stop actor.Gate
	var live atomic.Int64
	for i := 0; i < k; i++ {
		live.Add(1)
		r.Go(func() {
			defer live.Add(-1)
			id := fmt.Sprintf("dev-%d", i)
			for {
				conn, err := r.dial()
				if err != nil {
					return
				}
				_ = conn.Send(protocol.CheckinRequest{DeviceID: id, Population: "pop", RuntimeVersion: 3})
				msg, err := conn.Recv()
				if resp, ok := msg.(protocol.CheckinResponse); err == nil && ok && resp.Accepted {
					_ = conn.Send(protocol.ReportRequest{DeviceID: id, TaskID: resp.TaskID, Round: resp.Round, Update: update})
					_, _ = conn.Recv() // ends the checkpoint's lease
				}
				conn.Close()
				if !actor.Sleep(r, 100*time.Millisecond, &stop) {
					return
				}
			}
		})
	}
	allocs := metrics.Default.Counter("fl_net_rx_buf_alloc_total")
	r.until(t, "round 1's commit", func() bool {
		c, err := store.LatestCheckpoint(p.ID)
		return err == nil && c.Round >= 1
	})
	after1 := allocs.Value()
	r.waitDone(t)
	stop.Close()
	r.until(t, "the devices to leave", func() bool { return live.Load() == 0 })
	if got := allocs.Value() - after1; got != 0 {
		t.Fatalf("%d receive buffers allocated after round 1 of %d: the downlink buffer was not recycled", got, rounds)
	}
}

// TestDroppedSealsGiveTheirSumBack: a seal whose sum the Coordinator neither
// adopts nor adds — late, for an eval-only round, or refused by the
// accumulator for its dimension — gives the vector back to the stock it was
// lent from, so the next Take reuses that array instead of allocating a
// model-sized one (and the stock's loan count falls back).
func TestDroppedSealsGiveTheirSumBack(t *testing.T) {
	const dim = 8
	var stock fedavg.Spares
	edges := []Edge{&LocalEdge{}, &LocalEdge{}, &LocalEdge{}, &LocalEdge{}}
	c := &Coordinator{}
	open := func(evalOnly bool) {
		c.cur = &round{cfg: &EdgeRoundConfig{Plan: &plan.Plan{ID: "pop/train"}, Round: 1, Dim: dim}, evalOnly: evalOnly,
			metrics: map[string][]float64{}, phases: map[string]int64{}, pending: map[Edge]bool{}}
		for _, e := range edges {
			c.cur.pending[e] = true
		}
	}
	drop := func(what string, e Edge, round int64, n int) {
		t.Helper()
		sum := stock.Take(n)
		c.onSeal(nil, e, EdgeSeal{TaskID: "pop/train", Round: round,
			Seal: fedavg.SealedStripe{Sum: sum, Spares: &stock, Weight: 1, Count: 1}})
		if again := stock.Take(n); &again[0] != &sum[0] {
			t.Fatalf("%s: the seal's sum did not go back to its stock", what)
		} else {
			stock.Put(again)
		}
	}
	drop("a seal with no round in flight", edges[0], 1, dim)
	open(false)
	drop("a seal for another round", edges[0], 2, dim)
	drop("a first seal of the wrong dimension", edges[0], 1, dim+1)
	drop("a duplicate seal", edges[0], 1, dim)
	good := stock.Take(dim)
	c.onSeal(nil, edges[1], EdgeSeal{TaskID: "pop/train", Round: 1,
		Seal: fedavg.SealedStripe{Sum: good, Spares: &stock, Weight: 1, Count: 1}})
	if c.cur.acc == nil {
		t.Fatal("a good first seal was not adopted")
	}
	drop("a later seal of the wrong dimension", edges[2], 1, dim-1)
	open(true)
	drop("a seal in an eval-only round", edges[0], 1, dim)
}
