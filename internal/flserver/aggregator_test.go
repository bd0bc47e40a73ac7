package flserver

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/robust"
	"repro/internal/secagg"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// secureAdd retains one device's report in a secure group's buffer as the
// connection reader decodes it: the delta with the weight in the last slot.
func secureAdd(t *testing.T, buf *robust.Buffer, device string, metrics map[string]float64, weight float64, delta ...float64) {
	t.Helper()
	err := buf.Add(device, weight, metrics, func(dst tensor.Vector) error {
		if len(dst) != len(delta)+1 {
			return fmt.Errorf("secure input of length %d into a buffer of %d", len(delta)+1, len(dst))
		}
		copy(dst, delta)
		dst[len(delta)] = weight
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// collectMaster spawns an actor standing in for the EdgeRound, recording
// everything the Aggregator sends.
func collectMaster(s *actor.System) (actor.Ref, func() []actor.Message, chan struct{}) {
	var mu sync.Mutex
	var got []actor.Message
	sig := make(chan struct{}, 256)
	ref := s.Spawn("fake-master", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
		sig <- struct{}{}
	}))
	return ref, func() []actor.Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]actor.Message(nil), got...)
	}, sig
}

func waitSignals(t *testing.T, sig chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-sig:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %d/%d messages", i+1, n)
		}
	}
}

// TestAggregatorRejectsBadUpdates: a secure group's buffer holds only
// delta‖weight vectors of the round's dimension — the reader refuses an
// update of any other length before the group sees it.
func TestAggregatorRejectsBadUpdates(t *testing.T) {
	buf := robust.NewBuffer(3, nil)
	for _, params := range []tensor.Vector{{1}, {1, 2, 3}} {
		dev, srv := transport.Pipe()
		update, err := (&checkpoint.Checkpoint{TaskName: "pop/train", Round: 1, Weight: 1, Params: params}).Marshal(checkpoint.EncodingFloat64)
		if err != nil {
			t.Fatal(err)
		}
		_ = dev.Send(protocol.ReportRequest{DeviceID: "a", TaskID: "pop/train", Round: 1, Update: update})
		self := inbox(make(chan actor.Message, 1))
		(&reportReader{self: self, taskID: "pop/train", round: 1, dim: 2, secure: true}).read(&session{CheckinRequest: protocol.CheckinRequest{DeviceID: "a"}, conn: srv, buf: buf})
		if r := (<-self).(*reportDone); r.ok {
			t.Fatalf("bad update accepted: %+v", r)
		}
		msg, err := dev.Recv()
		if resp, ok := msg.(protocol.ReportResponse); err != nil || !ok || resp.Accepted || !strings.Contains(resp.Reason, "update dim") {
			t.Fatalf("device answered %+v, %v; want an update dim refusal", msg, err)
		}
		_ = dev.Close()
	}
	if n := buf.Reports(); n != 0 {
		t.Fatalf("%d bad updates retained", n)
	}
}

func TestAggregatorSecureMatchesPlainSum(t *testing.T) {
	sys := actor.NewSystem()
	master, got, sig := collectMaster(sys)
	agg := sys.Spawn("agg", newAggregator(3, master))
	defer sys.Shutdown(master, agg)
	inputs := []tensor.Vector{
		{1, -2, 0.5, 3},
		{0.25, 1, 1, 1},
		{-1, -1, -1, 2},
	}
	want := make([]float64, 4)
	buf := robust.NewBuffer(4, nil)
	for i, in := range inputs {
		for j, v := range in {
			want[j] += v
		}
		secureAdd(t, buf, string(rune('a'+i)), nil, in[3], in[:3]...)
	}
	_ = agg.Send(msgFinalizeGroup{Buf: buf})
	waitSignals(t, sig, 1)
	msgs := got()
	res := msgs[len(msgs)-1].(msgGroupResult)
	if res.Count != len(inputs) || math.Abs(res.Weight-want[3]) > 1e-3 {
		t.Fatalf("count %d weight %v, want %d / %v", res.Count, res.Weight, len(inputs), want[3])
	}
	for i := range res.Sum {
		if math.Abs(res.Sum[i]-want[i]) > 1e-3 {
			t.Fatalf("secure sum %v != plain %v", res.Sum, want[:3])
		}
	}
}

func TestSecureSingletonRefusesDirectSum(t *testing.T) {
	// Regression: a secure group of 1 used to fall back to a direct sum,
	// handing the server the device's raw update. It must refuse instead,
	// while still reporting the metrics that never went through the secure
	// path.
	sys := actor.NewSystem()
	master, got, sig := collectMaster(sys)
	agg := sys.Spawn("agg", newAggregator(2, master))
	defer sys.Shutdown(master, agg)

	buf := robust.NewBuffer(3, nil)
	secureAdd(t, buf, "solo", map[string]float64{"train_loss": 0.5}, 1, 1, 2)
	_ = agg.Send(msgFinalizeGroup{Buf: buf})
	waitSignals(t, sig, 1)

	msgs := got()
	res, ok := msgs[len(msgs)-1].(msgGroupResult)
	if !ok {
		t.Fatalf("last message %T", msgs[len(msgs)-1])
	}
	if res.Err == "" {
		t.Fatal("singleton secure group must refuse to aggregate")
	}
	if res.Sum != nil || res.Count != 0 || res.Weight != 0 {
		t.Fatalf("raw update leaked into group result: %+v", res)
	}
	if len(res.Metrics["train_loss"]) != 1 {
		t.Fatalf("metrics must still propagate: %+v", res.Metrics)
	}
}

func TestSecAggFailureStillReportsMetrics(t *testing.T) {
	// Regression: a secagg failure used to produce an empty msgGroupResult,
	// silently dropping the group's metrics and hiding the error. The
	// failure is injected on the group's links: the second dealer's link
	// closes as it sends its shares, so the mask set falls below the
	// threshold of 2 and the run aborts — or a link wrapper that panics,
	// which must cost the group, not the process.
	for _, tc := range []struct {
		name, want string
		link       func(id int, c transport.Conn) transport.Conn
	}{
		{"below threshold", "secagg: abort", secagg.Faults{2: secagg.DropShares}.Link},
		{"panic", "group reduce panic: injected", func(int, transport.Conn) transport.Conn { panic("injected") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := actor.NewSystem()
			master, got, sig := collectMaster(sys)
			group := newAggregator(2, master)
			group.link = tc.link
			agg := sys.Spawn("agg", group)
			defer sys.Shutdown(master, agg)

			buf := robust.NewBuffer(3, nil)
			for i, loss := range []float64{0.5, 0.7} {
				secureAdd(t, buf, string(rune('a'+i)), map[string]float64{"train_loss": loss}, 1, 1, 2)
			}
			_ = agg.Send(msgFinalizeGroup{Buf: buf})
			waitSignals(t, sig, 1)

			msgs := got()
			res, ok := msgs[len(msgs)-1].(msgGroupResult)
			if !ok {
				t.Fatalf("last message %T", msgs[len(msgs)-1])
			}
			if !strings.Contains(res.Err, tc.want) {
				t.Fatalf("error not surfaced: %+v", res)
			}
			if res.Sum != nil || res.Count != 0 {
				t.Fatalf("failed group must not report a sum: %+v", res)
			}
			if len(res.Metrics["train_loss"]) != 2 {
				t.Fatalf("metrics swallowed on secagg failure: %+v", res.Metrics)
			}
		})
	}
}

// twoGroupSecurePlan is a secure task whose 8 admitted devices (no
// over-selection) fill exactly two groups of 4, so a test can fail or
// perturb a group and know what the other one holds.
func twoGroupSecurePlan(t *testing.T) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(plan.Config{
		TaskID: "pop/train", Population: "pop",
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 10, Epochs: 1, LearningRate: 0.05,
		TargetDevices: 8, OverSelectFactor: 1.0, MinReportFraction: 0.5,
		SelectionTimeout: 10 * time.Second, ReportTimeout: 20 * time.Second,
		SecureAggregation: true, SecAggGroupSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRoundSurfacesGroupErrors(t *testing.T) {
	// A failed group's metrics still reach storage, its error reaches the
	// Coordinator's round record, and the round commits on the healthy
	// group. Group 0's dealers 2..4 drop out as they send their shares, so
	// its mask set falls below threshold 3 and its secagg.Run aborts.
	drop := secagg.Faults{2: secagg.DropShares, 3: secagg.DropShares, 4: secagg.DropShares}
	store := storage.NewMem()
	out := runLinkedRound(t, store, drop, nil)
	if out.Committed == nil {
		t.Fatalf("round failed: %s", out.FailReason)
	}
	if len(out.GroupErrors) != 1 || !strings.Contains(out.GroupErrors[0], "secagg: abort") {
		t.Fatalf("group errors not surfaced: %+v", out.GroupErrors)
	}
	if out.Completed != 4 {
		t.Fatalf("completed = %d, want 4 (the failed group's updates are lost)", out.Completed)
	}
	ms, err := store.Metrics("pop/train")
	if err != nil || len(ms) == 0 {
		t.Fatalf("metrics never materialized: %v", err)
	}
	if n := ms[0].Stats["train_loss"].Count; n != 8 {
		t.Fatalf("train_loss count = %d, want 8 (failed group's metrics must not be dropped)", n)
	}
}

// TestTwoSecureGroupsFinalizeConcurrently: two group Aggregators receive
// msgFinalizeGroup back to back, and each secagg run executes on its own
// group's actor goroutine at the same time as the other. Their links meet
// at each group's first SecAggAdvertise, where each waits up to 5 s for the
// other; reduces run one after the other leave the first to wait alone,
// and the test fails instead of hanging. Run under -race (CI does).
func TestTwoSecureGroupsFinalizeConcurrently(t *testing.T) {
	sys := actor.NewSystem()
	master, got, sig := collectMaster(sys)
	arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var met [2]atomic.Bool
	meet := func(g int) func(int, transport.Conn) transport.Conn {
		var once sync.Once
		return func(_ int, c transport.Conn) transport.Conn {
			return meetConn{c, func() {
				once.Do(func() {
					close(arrived[g])
					select {
					case <-arrived[1-g]:
						met[g].Store(true)
					case <-time.After(5 * time.Second):
					}
				})
			}}
		}
	}
	a, b := newAggregator(2, master), newAggregator(2, master)
	a.link, b.link = meet(0), meet(1)
	aggA, aggB := sys.Spawn("agg-a", a), sys.Spawn("agg-b", b)
	defer sys.Shutdown(master, aggA, aggB)

	bufA, bufB := robust.NewBuffer(3, nil), robust.NewBuffer(3, nil)
	for i := 0; i < 3; i++ {
		secureAdd(t, bufA, string(rune('a'+i)), nil, 1, 1, 2)
		secureAdd(t, bufB, string(rune('x'+i)), nil, 2, 3, 4)
	}
	_ = aggA.Send(msgFinalizeGroup{Buf: bufA})
	_ = aggB.Send(msgFinalizeGroup{Buf: bufB})
	waitSignals(t, sig, 2)

	results := 0
	for _, m := range got() {
		res, ok := m.(msgGroupResult)
		if !ok {
			continue
		}
		results++
		if res.Err != "" || res.Count != 3 || len(res.Sum) != 2 {
			t.Fatalf("group result: %+v", res)
		}
	}
	if results != 2 {
		t.Fatalf("got %d group results, want 2", results)
	}
	if !met[0].Load() || !met[1].Load() {
		t.Fatalf("the groups' runs did not meet (met %v, %v): group reduces ran one after the other", met[0].Load(), met[1].Load())
	}
}

// meetConn is a secagg link that calls advertise before its device's
// SecAggAdvertise goes out.
type meetConn struct {
	transport.Conn
	advertise func()
}

func (c meetConn) Send(msg interface{}) error {
	if protocol.CodeOf(msg) == protocol.CodeSecAggAdvertise {
		c.advertise()
	}
	return c.Conn.Send(msg)
}

func TestSecureRemainderFoldedIntoLastGroup(t *testing.T) {
	// Regression: 5 devices at secure group size 4 used to yield a trailing
	// group of 1, whose "group sum" is the raw individual update. The
	// remainder must fold into the full group, so all 5 updates land in one
	// secagg instance and the committed weight covers every device.
	fed, _ := data.Blobs(data.BlobsConfig{Users: 5, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 21})
	store := storage.NewMem()
	p := testPlan(t, 5, true) // secure, group size 4
	r := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{p}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 1, Seed: 22,
	})
	fl := newFleet(t, 5, fed, 3)
	fl.run(r, r.dial)
	r.waitDone(t)
	fl.halt()

	ckpt, err := store.LatestCheckpoint(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Every device holds 20 examples, so a round that kept all 5 updates
	// commits total weight 100. A stranded singleton (refused by the
	// aggregator) would leave only 80.
	if math.Abs(ckpt.Weight-100) > 1e-3 {
		t.Fatalf("committed weight = %v, want 100 (remainder update lost?)", ckpt.Weight)
	}
	ms, err := store.Metrics(p.ID)
	if err != nil || len(ms) == 0 {
		t.Fatalf("metrics: %v", err)
	}
	if n := ms[0].Stats["train_loss"].Count; n != 5 {
		t.Fatalf("train_loss count = %d, want 5", n)
	}
}

func TestAggregatorEvalMetricsOnly(t *testing.T) {
	sys := actor.NewSystem()
	master, got, sig := collectMaster(sys)
	agg := sys.Spawn("agg", newAggregator(2, master))
	defer sys.Shutdown(master, agg)

	buf := robust.NewBuffer(3, nil)
	for _, acc := range []float64{0.8, 0.9} {
		if err := buf.AddEval(map[string]float64{"eval_accuracy": acc}); err != nil {
			t.Fatal(err)
		}
	}
	_ = agg.Send(msgFinalizeGroup{Buf: buf})
	waitSignals(t, sig, 1)
	msgs := got()
	res := msgs[len(msgs)-1].(msgGroupResult)
	if res.Count != 2 || res.Weight != 0 {
		t.Fatalf("eval result: %+v", res)
	}
	if len(res.Metrics["eval_accuracy"]) != 2 {
		t.Fatalf("metrics: %+v", res.Metrics)
	}
}

func TestEvalTaskThroughServer(t *testing.T) {
	fed, _ := data.Blobs(data.BlobsConfig{Users: 8, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 13})
	store := newMetricLog()
	evalPlan, err := plan.Generate(plan.Config{
		TaskID: "pop/eval", Population: "pop", Type: plan.TaskEval,
		Model:     testPlan(t, 4, false).Device.Model,
		StoreName: "clicks", TargetDevices: 4, MinReportFraction: 0.6,
		SelectionTimeout: 2 * time.Second, ReportTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{evalPlan}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 2, Seed: 14,
	})
	fl := newFleet(t, 8, fed, 3)
	fl.run(r, r.dial)
	r.waitDone(t)
	fl.halt()

	// Eval rounds commit metrics, never checkpoints.
	if _, err := store.LatestCheckpoint(evalPlan.ID); err == nil {
		t.Fatal("eval task must not commit model checkpoints")
	}
	rounds := store.materialized(evalPlan.ID)
	if len(rounds) < 2 {
		t.Fatalf("eval metrics materialized for rounds %v, want >= 2", rounds)
	}
	ms, err := store.Metrics(evalPlan.ID)
	if err != nil || len(ms) != 1 || ms[0].Round != rounds[len(rounds)-1] {
		t.Fatalf("eval metrics kept: %d, %v; want the newest round's only", len(ms), err)
	}
	if _, ok := ms[0].Stats["eval_accuracy"]; !ok {
		t.Fatalf("missing eval_accuracy: %+v", ms[0].Stats)
	}
}

func TestMultiTaskRoundRobin(t *testing.T) {
	// Sec. 7.1: "the FL service chooses among them using a dynamic strategy
	// that allows alternating between training and evaluation of a single
	// model". Deploy a train task and an eval task; both make progress.
	fed, _ := data.Blobs(data.BlobsConfig{Users: 10, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 15})
	store := storage.NewMem()
	train := testPlan(t, 4, false)
	eval, err := plan.Generate(plan.Config{
		TaskID: "pop/eval", Population: "pop", Type: plan.TaskEval,
		Model: train.Device.Model, StoreName: "clicks",
		TargetDevices: 4, MinReportFraction: 0.6,
		SelectionTimeout: 2 * time.Second, ReportTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{train, eval}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 4, Seed: 16,
	})
	fl := newFleet(t, 10, fed, 3)
	fl.run(r, r.dial)
	r.waitDone(t)
	fl.halt()

	if _, err := store.LatestCheckpoint(train.ID); err != nil {
		t.Fatalf("train task never committed: %v", err)
	}
	evalMetrics, _ := store.Metrics(eval.ID)
	if len(evalMetrics) == 0 {
		t.Fatal("eval task never ran")
	}
}

func TestGroupResultCarriesExactSum(t *testing.T) {
	// Aim 3: a committed checkpoint is the exact weighted sum of the accepted
	// reports. The group result used to be rebuilt as Average()×Weight, and
	// (s·(1/w))·w is an ulp off s for most s once w is not a power of two —
	// weights 3 and 7 give w = 10. The result must carry the bits the group
	// summed.
	const dim = 64
	weights := []float64{3, 7}
	deltas := make([]tensor.Vector, len(weights))
	for i, w := range weights {
		deltas[i] = make(tensor.Vector, dim)
		for j := range deltas[i] {
			// Multiples of 2^-10: exact under secagg's 2^-20 fixed point.
			deltas[i][j] = w * float64((i+1)*(j+1)) / 1024
		}
	}
	finalize := func(t *testing.T, agg *Aggregator, fin msgFinalizeGroup) msgGroupResult {
		sys := actor.NewSystem()
		master, got, sig := collectMaster(sys)
		agg.master = master
		ref := sys.Spawn("agg", agg)
		defer sys.Shutdown(master, ref)
		_ = ref.Send(fin)
		waitSignals(t, sig, 1)
		msgs := got()
		res := msgs[len(msgs)-1].(msgGroupResult)
		if res.Err != "" || res.Count != len(weights) || res.Weight != 10 || len(res.Sum) != dim {
			t.Fatalf("group result: err %q, count %d, weight %v, dim %d", res.Err, res.Count, res.Weight, len(res.Sum))
		}
		return res
	}
	exact := func(t *testing.T, got, want tensor.Vector) {
		t.Helper()
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("sum[%d] = %x (%v), want %x (%v): the group result is not the sum the group computed",
					j, math.Float64bits(got[j]), got[j], math.Float64bits(want[j]), want[j])
			}
		}
	}

	t.Run("secure", func(t *testing.T) {
		buf := robust.NewBuffer(dim+1, nil)
		want := make(tensor.Vector, dim)
		for i, w := range weights {
			want.Axpy(1, deltas[i])
			secureAdd(t, buf, string(rune('a'+i)), nil, w, deltas[i]...)
		}
		exact(t, finalize(t, newAggregator(dim, nil), msgFinalizeGroup{Buf: buf}).Sum, want)
	})

	t.Run("robust", func(t *testing.T) {
		policy := plan.RobustPolicy{Kind: plan.RobustMedian}
		fill := func() *robust.Buffer {
			buf := robust.NewBuffer(dim, nil)
			for i, w := range weights {
				// No fixed point to respect here: irregular fractions.
				d := make(tensor.Vector, dim)
				for j := range d {
					d[j] = w * float64(2*j+1+i) / 977
				}
				if err := buf.Add(string(rune('a'+i)), w, nil, func(dst tensor.Vector) error { copy(dst, d); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			return buf
		}
		updates, _, _ := fill().Drain()
		want := robust.Reduce(policy, dim, updates).Sum
		agg := newAggregator(dim, nil)
		agg.robustPolicy = policy
		exact(t, finalize(t, agg, msgFinalizeGroup{Buf: fill()}).Sum, want)
	})
}
