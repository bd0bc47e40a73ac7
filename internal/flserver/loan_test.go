package flserver

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestMemDownloadsForfeitTheirLoan: an in-process round marshals its
// checkpoint into a pooled loan, and a device on an in-memory link keeps the
// very bytes it was sent, so that send forfeits the loan. Once the round has
// released everything and the next round has marshaled its own checkpoint of
// the same size class, the first device still reads its round's checkpoint
// (released buffers are poisoned here).
func TestMemDownloadsForfeitTheirLoan(t *testing.T) {
	transport.PoisonReleasedForTest()
	loans := metrics.Default.Gauge("fl_net_buf_loans")
	sys := actor.NewSystem()
	defer sys.Shutdown()
	p := testPlan(t, 1, false)
	p.Server.SelectionTimeout, p.Server.ReportTimeout = time.Minute, time.Minute
	const dim = 1 << 16
	open := func(r int64) (actor.Ref, chan EdgeSeal, *checkpoint.Checkpoint, protocol.CheckinResponse) {
		g := &checkpoint.Checkpoint{TaskName: p.ID, Round: r, Params: make(tensor.Vector, dim)}
		for i := range g.Params {
			g.Params[i] = float64(r) + float64(i)
		}
		seals := make(chan EdgeSeal, 1)
		ref := sys.Spawn(fmt.Sprintf("edge-forfeit-%d", r), newEdgeRound(EdgeRoundConfig{
			Population: "pop", Plan: p, Round: r, Global: g, Dim: dim, Target: 1,
		}, nil, func(s EdgeSeal) { seals <- s }))
		_ = ref.Send(msgEdgeStart{})
		srv, dev := transport.Pipe()
		_ = ref.Send(msgDevices{Devices: []heldDevice{{ID: "d", RuntimeVersion: 3, Conn: srv}}})
		msg, err := dev.Recv()
		if err != nil {
			t.Fatal(err)
		}
		resp, ok := msg.(protocol.CheckinResponse)
		if !ok || !resp.Accepted {
			t.Fatalf("round %d configured its device with %T %+v", r, msg, msg)
		}
		return ref, seals, g, resp
	}
	before := loans.Value()
	ref, seals, g, resp := open(1)
	_ = ref.Send(msgEdgeFinalize{})
	select {
	case <-seals:
	case <-time.After(10 * time.Second):
		t.Fatal("round 1 never sealed")
	}
	for deadline := time.Now().Add(10 * time.Second); loans.Value() != before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v loans still out after the round released", loans.Value()-before)
		}
	}
	next, _, _, _ := open(2)
	defer next.Send(msgAbandonRound{Reason: "test over"})
	want, err := g.Marshal(p.DownlinkEncoding())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Checkpoint, want) {
		t.Fatal("a device on an in-memory link lost its checkpoint: the send did not forfeit the loan")
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
