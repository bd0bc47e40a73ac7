package flserver

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/fedavg"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// serialReference recomputes a bench round's committed checkpoint the old
// way: decode every device update (through the same wire encoding, so
// quantization matches) and fold serially into one Accumulator, returned
// with its summed weight.
func serialReference(t *testing.T, devices, dim int, enc checkpoint.Encoding) (*fedavg.Accumulator, float64) {
	t.Helper()
	acc, weight := fedavg.NewAccumulator(dim), 0.0
	for i := 0; i < devices; i++ {
		u := &checkpoint.Checkpoint{TaskName: "bench/roundtput", Weight: float64(1 + i%3),
			Params: make(tensor.Vector, dim)}
		for j := range u.Params {
			u.Params[j] = float64(i+1) * (float64(j%7)*0.25 - 0.5)
		}
		b, err := u.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := checkpoint.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Add(&fedavg.Update{Delta: decoded.Params, Weight: decoded.Weight}); err != nil {
			t.Fatal(err)
		}
		weight += decoded.Weight
	}
	return acc, weight
}

// TestEdgeAccumulationMatchesSerial: the striped decode-and-accumulate
// ingest must commit the same checkpoint as the old serial per-device fold,
// within floating-point summation-order tolerance, over both transports and
// both link encodings. Every TCP frame — the download and each report — is
// just over the 1 KiB from which frames are leased (dim 256 in float64, dim
// 2048 in Quant8, whose download is Quant8 too), so released buffers are
// poisoned: a fold that outlived its small lease would break the closed form.
func TestEdgeAccumulationMatchesSerial(t *testing.T) {
	transport.PoisonReleasedForTest()
	const devices = 48
	for _, tc := range []struct {
		name string
		tcp  bool
		enc  checkpoint.Encoding
		dim  int
	}{
		{"mem/float64", false, checkpoint.EncodingFloat64, 256},
		{"mem/quant8", false, checkpoint.EncodingQuant8, 2048},
		{"tcp/float64", true, checkpoint.EncodingFloat64, 256},
		{"tcp/quant8", true, checkpoint.EncodingQuant8, 2048},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dim := tc.dim
			leasesBefore := leasedFrames()
			st, err := runBenchRound(benchRoundConfig{
				Devices: devices, Dim: dim, TCP: tc.tcp, Encoding: tc.enc, DistinctUpdates: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every download is leased, and every report.
			want := int64(0)
			if tc.tcp {
				want = 2 * devices
			}
			if got := leasedFrames() - leasesBefore; got < want {
				t.Fatalf("%d frames read into leased buffers, want >= %d", got, want)
			}
			if st.Completed != devices || st.Committed == nil {
				t.Fatalf("completed %d/%d, committed %v", st.Completed, devices, st.Committed)
			}
			ref, refWeight := serialReference(t, devices, dim, tc.enc)
			if math.Abs(st.Committed.Weight-refWeight) > 1e-9 {
				t.Fatalf("committed weight %v, want %v", st.Committed.Weight, refWeight)
			}
			avg, err := ref.Average()
			if err != nil {
				t.Fatal(err)
			}
			// The round applies avg onto a zero global, so committed params
			// must equal the reference average — stripes only change the
			// summation ORDER, which shows up at the few-ulp level.
			for i := range avg {
				if math.Abs(st.Committed.Params[i]-avg[i]) > 1e-9 {
					t.Fatalf("param %d: committed %v, serial %v", i, st.Committed.Params[i], avg[i])
				}
			}
		})
	}
}

// TestSecureRoundsReusePooledInputsWithoutAliasing: two sequential Secure
// Aggregation rounds share the update-buffer pool; the second round's
// reuse of the first round's released buffers must neither corrupt the
// first round's committed checkpoint (which would betray an alias from the
// secagg path into a pooled buffer) nor perturb the second's sum. The
// secure sum carries fixed-point quantization, hence the looser tolerance.
// CI runs this package under -race, which additionally catches any
// unsynchronized reuse.
func TestSecureRoundsReusePooledInputsWithoutAliasing(t *testing.T) {
	const devices, dim = 16, 64
	ref, refWeight := serialReference(t, devices, dim, checkpoint.EncodingFloat64)
	refAvg, err := ref.Average()
	if err != nil {
		t.Fatal(err)
	}
	check := func(st benchRoundResult, what string) {
		t.Helper()
		if st.Completed != devices || st.Committed == nil {
			t.Fatalf("%s: completed %d/%d", what, st.Completed, devices)
		}
		if math.Abs(st.Committed.Weight-refWeight) > 1e-3 {
			t.Fatalf("%s: weight %v, want %v", what, st.Committed.Weight, refWeight)
		}
		for i := range refAvg {
			if math.Abs(st.Committed.Params[i]-refAvg[i]) > 1e-3 {
				t.Fatalf("%s: param %d = %v, want %v", what, i, st.Committed.Params[i], refAvg[i])
			}
		}
	}
	first, err := runBenchRound(benchRoundConfig{
		Devices: devices, Dim: dim, Secure: true, DistinctUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	check(first, "first round")
	snapshot := first.Committed.Params.Clone()

	second, err := runBenchRound(benchRoundConfig{
		Devices: devices, Dim: dim, Secure: true, DistinctUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	check(second, "second round (pooled buffers reused)")
	for i := range snapshot {
		if first.Committed.Params[i] != snapshot[i] {
			t.Fatalf("first round's committed checkpoint mutated by buffer reuse at %d", i)
		}
	}
}

// heldConn is a configured device's connection: its reader receives the
// device's one report once deliver is closed, and the server's verdict on
// it lands on resp.
type heldConn struct {
	report  protocol.ReportRequest
	deliver chan struct{}
	resp    chan protocol.ReportResponse
}

func (c *heldConn) Send(msg interface{}) error {
	if r, ok := msg.(protocol.ReportResponse); ok {
		c.resp <- r
	}
	return nil
}
func (c *heldConn) Recv() (interface{}, error) { <-c.deliver; return c.report, nil }
func (c *heldConn) Release()                   {}
func (c *heldConn) Hold() *transport.Loan      { return nil }
func (c *heldConn) Expire(time.Duration)       {} // its reads and writes never block on a peer
func (c *heldConn) Close() error               { return nil }

// TestSecureReportAfterSealIsLate: a secure report a reader holds when the
// round seals is refused like a late fold on the other two paths — answered
// "reporting window closed", counted on fl_reports_late_total, and left out
// of both the completed count and the group's sum — however the group's
// finalize order and the report race each other.
func TestSecureReportAfterSealIsLate(t *testing.T) {
	sys := actor.NewSystem()
	defer sys.Shutdown()
	p := testPlan(t, 4, true) // one group of 4
	p.Server.SelectionTimeout, p.Server.ReportTimeout = time.Minute, time.Minute
	seals := make(chan EdgeSeal, 1)
	er := newEdgeRound(EdgeRoundConfig{
		Population: "pop", Plan: p, Round: 1, Dim: 4, Target: 4,
		Global: &checkpoint.Checkpoint{TaskName: p.ID, Round: 1, Params: make(tensor.Vector, 4)},
	}, nil, func(s EdgeSeal) { seals <- s })
	// Device i reports weight i+1 and delta (i+1)·1: d0 and d1 before the
	// seal, d2 after it.
	conns := make([]*heldConn, 3)
	devices := make([]*session, len(conns))
	for i := range conns {
		w := float64(i + 1)
		update, err := (&checkpoint.Checkpoint{TaskName: p.ID, Round: 1, Weight: w, Params: tensor.Vector{w, w, w, w}}).Marshal(checkpoint.EncodingFloat64)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("d%d", i)
		conns[i] = &heldConn{
			report:  protocol.ReportRequest{DeviceID: id, TaskID: p.ID, Round: 1, Update: update},
			deliver: make(chan struct{}),
			resp:    make(chan protocol.ReportResponse, 1),
		}
		devices[i] = &session{CheckinRequest: protocol.CheckinRequest{DeviceID: id, RuntimeVersion: 3}, conn: conns[i]}
	}
	close(conns[0].deliver)
	close(conns[1].deliver)
	late := obsReportsLate.Value()
	lateResp := make(chan protocol.ReportResponse, 1)
	ref := sys.Spawn("edge-late-report-test", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		er.Receive(ctx, msg)
		if _, ok := msg.(msgEdgeFinalize); ok {
			// The window is closed and the group's finalize order is posted
			// but may not have landed: the held report arrives now.
			close(conns[2].deliver)
			lateResp <- <-conns[2].resp
		}
	}))
	_ = ref.Send(msgEdgeStart{})
	_ = ref.Send(msgDevices{Devices: devices})
	await := func(what string, ch <-chan protocol.ReportResponse) protocol.ReportResponse {
		t.Helper()
		select {
		case r := <-ch:
			return r
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return protocol.ReportResponse{}
		}
	}
	for i, c := range conns[:2] {
		if r := await("an on-time verdict", c.resp); !r.Accepted {
			t.Fatalf("on-time report %d refused: %+v", i, r)
		}
	}
	_ = ref.Send(msgEdgeFinalize{})

	if r := await("the late verdict", lateResp); r.Accepted || r.Reason != "reporting window closed" {
		t.Fatalf("late report answered %+v, want refused: reporting window closed", r)
	}
	if n := obsReportsLate.Value() - late; n != 1 {
		t.Fatalf("fl_reports_late_total moved by %d, want 1", n)
	}
	var seal EdgeSeal
	select {
	case seal = <-seals:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the seal")
	}
	s := seal.Seal
	if seal.Aborted != 1 || len(seal.GroupErrors) != 0 || s.Count != 2 || s.Weight != 3 {
		t.Fatalf("seal: aborted %d, errors %v, count %d, weight %v; want 1, none, 2 and 3",
			seal.Aborted, seal.GroupErrors, s.Count, s.Weight)
	}
	for j, v := range s.Sum {
		if math.Abs(v-3) > 1e-6 {
			t.Fatalf("sum[%d] = %v, want 3: the late update reached the group sum", j, v)
		}
	}
}

// TestLiveEstimateOpensMinDevicesGate: a task gated by MinDevices far above
// the static PopulationEstimate must still run once the Selector layer's
// observed check-in rates push the live estimate past the gate — the
// static config value alone would gate it forever.
func TestLiveEstimateOpensMinDevicesGate(t *testing.T) {
	fed, err := data.Blobs(data.BlobsConfig{
		Users: 16, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMem()
	p := testPlan(t, 4, false)
	// Static estimate 10 ≪ MinDevices 100: under static estimation this
	// task would never schedule. RoundPeriod 10 minutes makes MeanWait
	// large, so even a modest observed check-in rate implies a population
	// of thousands.
	r := runServer(t, Config{
		Population: "pop", Store: store,
		Steering:           pacing.New(10 * time.Minute),
		PopulationEstimate: 10,
		MaxRounds:          1, Seed: 31,
	})
	if err := r.srv.SubmitTask(p, tasks.Policy{MinDevices: 100}); err != nil {
		t.Fatal(err)
	}
	fl := newFleet(t, 16, fed, 3)
	fl.run(r, r.dial)
	r.waitDone(t)
	fl.halt()

	st := stats(t, r.srv)
	if st.RoundsCompleted < 1 {
		t.Fatalf("gated task never ran: %+v", st)
	}
}

// TestRoundCarriesStaticEstimate: every source steers its devices with the
// static population estimate, and the Coordinator's rate tracker inverts
// their arrivals with that same value. A round opened after rate samples
// moved the live estimate must still hand its edges the static one: a shard
// that registers its population from that round would otherwise steer with
// a value its peers do not use.
func TestRoundCarriesStaticEstimate(t *testing.T) {
	const static = 50
	p := testPlan(t, 2, false)
	store := storage.NewMem()
	ts, err := tasks.New("pop", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Seed([]*plan.Plan{p}, simStart); err != nil {
		t.Fatal(err)
	}
	ts.SetPopulationEstimate(static)
	edge := &stripeEdge{opened: make(chan *EdgeRoundConfig, 1)}
	sys := actor.NewSystem()
	defer sys.Shutdown()
	coord := sys.Spawn("coordinator/pop", newCoordinator(CoordinatorParams{
		Population: "pop", Lock: actor.NewLockService(), Store: store, Tasks: ts,
		Steering: pacing.New(time.Minute), PopulationEstimate: static, Edges: []Edge{edge},
	}))
	if err := DeliverRate(coord, "selector-0", "pop", 1000, time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if err := coord.Send(msgTick{}); err != nil {
		t.Fatal(err)
	}
	select {
	case cfg := <-edge.opened:
		if live := ts.PopulationEstimate(); live == static {
			t.Fatalf("the rate sample did not move the live estimate off %d", static)
		}
		if cfg.Estimate != static {
			t.Fatalf("round opened with estimate %d, want the static %d", cfg.Estimate, static)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the round never opened")
	}
}
