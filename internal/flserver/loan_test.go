package flserver

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/metrics"
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
		ref := sys.Spawn(fmt.Sprintf("edge-forfeit-%d", r), NewEdgeRound(EdgeRoundConfig{
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
	FinalizeEdgeRound(ref)
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
	defer AbandonEdgeRound(next, "test over")
	want, err := g.Marshal(p.DownlinkEncoding())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Checkpoint, want) {
		t.Fatal("a device on an in-memory link lost its checkpoint: the send did not forfeit the loan")
	}
}
