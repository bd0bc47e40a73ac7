package flserver

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// tcpTier is one Selector's device tier serving population "pop" on a
// loopback TCP listener, and a stand-in Coordinator that hands every seal it
// is delivered to seals.
type tcpTier struct {
	edge  *LocalEdge
	coord actor.Ref
	seals chan EdgeSeal
	addr  string
	plan  *plan.Plan
}

func newTCPTier(t *testing.T, target int) *tcpTier {
	t.Helper()
	sys := actor.NewSystem()
	tier := NewDeviceTier(sys, "", 1, nil, pacing.New(time.Second), 1)
	edge, err := tier.Register(SelectorPopulation{Name: "pop"})
	if err != nil {
		t.Fatal(err)
	}
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tier.Serve(l)
	t.Cleanup(func() { _ = l.Close(); tier.Close() })
	tt := &tcpTier{edge: edge, seals: make(chan EdgeSeal, 4), addr: l.Addr(), plan: testPlan(t, target, false)}
	tt.plan.Server.SelectionTimeout, tt.plan.Server.ReportTimeout = time.Minute, time.Minute
	tt.coord = sys.Spawn("coordinator", actor.BehaviorFunc(func(_ *actor.Context, msg actor.Message) {
		if m, ok := msg.(msgEdgeSeal); ok {
			tt.seals <- m.Seal
		}
	}))
	return tt
}

// open starts round r, sealing at target reports.
func (tt *tcpTier) open(t *testing.T, r int64, target int) {
	t.Helper()
	g := &checkpoint.Checkpoint{TaskName: tt.plan.ID, Round: r, Params: make(tensor.Vector, 4)}
	if err := tt.edge.Open(&EdgeRoundConfig{Population: "pop", Plan: tt.plan, Round: r, Global: g, Dim: 4, Target: target}, tt.coord); err != nil {
		t.Fatal(err)
	}
}

// session is one device's whole session: check in, take its configuration,
// report update with metrics, read the ack, close.
func (tt *tcpTier) session(id string, update []byte, metrics map[string]float64) error {
	conn, err := transport.DialTCP(tt.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(protocol.CheckinRequest{DeviceID: id, Population: "pop", RuntimeVersion: 3}); err != nil {
		return err
	}
	msg, err := conn.Recv()
	resp, ok := msg.(protocol.CheckinResponse)
	if err != nil || !ok || !resp.Accepted {
		return fmt.Errorf("%s checked in: %+v, %v", id, msg, err)
	}
	if err := conn.Send(protocol.ReportRequest{DeviceID: id, TaskID: resp.TaskID, Round: resp.Round, Update: update, Metrics: metrics}); err != nil {
		return err
	}
	msg, err = conn.Recv()
	if ack, ok := msg.(protocol.ReportResponse); err != nil || !ok || !ack.Accepted {
		return fmt.Errorf("%s reported: %+v, %v", id, msg, err)
	}
	return nil
}

func testUpdate(t *testing.T) []byte {
	t.Helper()
	b, err := (&checkpoint.Checkpoint{TaskName: "pop/train", Weight: 1, Params: tensor.Vector{1, 2, 3, 4}}).Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSessionAllocs counts what one device session over a loopback TCP tier
// allocates, both ends in this process: dial and accept, the check-in, the
// configuration, the report folded into a stripe, the ack and both closes.
// The server decodes the check-in into the session record it passes from
// the accept to the verdict, and the report into a request on its reader's
// stack that already holds the device and task IDs; a report's metrics map
// comes from wire's stock with its metric names, and neither socket keeps a
// read closure: 22 allocations a session. It was 29 with a boxed check-in
// and a boxed report, their strings and two closures, and 36 before the
// session record.
func TestSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and drops pooled maps at random")
	}
	const warm, runs = 20, 200
	tt := newTCPTier(t, 1)
	tt.open(t, 1, warm+runs+2)
	update, metrics := testUpdate(t), map[string]float64{"loss": 0.5}
	ids := make([]string, warm+runs+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%d", i)
	}
	for _, id := range ids[:warm] {
		if err := tt.session(id, update, metrics); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		if err := tt.session(ids[next], update, metrics); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.0f allocations per session", allocs)
	if allocs > 22 {
		t.Fatalf("a session allocates %.0f objects, want at most 22", allocs)
	}
}

// TestReportMetricsReachTheSeal: over two rounds on TCP, every report's
// metric values arrive in its round's seal exactly, although the second
// round decodes its reports into the maps the first one handed back.
func TestReportMetricsReachTheSeal(t *testing.T) {
	const devices = 3
	tt := newTCPTier(t, devices)
	update := testUpdate(t)
	for r := int64(1); r <= 2; r++ {
		tt.open(t, r, devices)
		var loss, acc []float64
		for i := range devices {
			m := map[string]float64{"loss": float64(10*r) + float64(i), "acc": float64(100*r) + float64(i)}
			loss, acc = append(loss, m["loss"]), append(acc, m["acc"])
			if err := tt.session(fmt.Sprintf("dev-%d", i), update, m); err != nil {
				t.Fatal(err)
			}
		}
		var seal EdgeSeal
		select {
		case seal = <-tt.seals:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d never sealed", r)
		}
		got := seal.Seal.Metrics
		for _, vs := range got {
			slices.Sort(vs)
		}
		if seal.Round != r || seal.Seal.Count != devices || len(got) != 2 || !slices.Equal(got["loss"], loss) || !slices.Equal(got["acc"], acc) {
			t.Fatalf("round %d sealed %d reports with metrics %v; want %d with loss %v and acc %v", seal.Round, seal.Seal.Count, got, devices, loss, acc)
		}
	}
}
