package shard_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/flserver"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The composition matrix: every plan shape of DESIGN.md §3b on every
// topology the one round engine serves, under every fault that applies,
// through the product processes on NewRig in virtual time. Stub devices
// check in with device.Client and report wire bytes built in advance over a
// zero global, so a committed round has a closed form. Every cell asserts
// one verdict — a commit equal to its closed form, a plan.Validate refusal,
// an auto-pause with its operator note, or a failed round — and the
// verdicts are §3b's tables.

var update = flag.Bool("update", false, "rewrite DESIGN.md's generated §3b tables")

const (
	matrixPop  = "pop-matrix"
	matrixTask = matrixPop + "/task"
	// tcpDim puts the TCP row's smallest frames, Quant8 ones at a byte per
	// parameter, just above the 1 KiB from which a TCP link reads a frame
	// into a leased buffer. Mem links lease nothing, and the virtual cells'
	// secure groups are cheaper at virtualDim.
	tcpDim, virtualDim = 2048, 512
	// matrixK devices fill three secure groups of 16 in process and one per
	// shard in 1+3.
	matrixK, groupSize = 48, 16
	// Devices below attackers report attackScale times their update.
	attackers, attackScale = 5, -40.0
	// The server-plan values no device may be sent; the first two are also
	// the policies' parameters.
	trimFraction, cosineDistance, secaggThreshold = 0.1234567890123, 1.9876543210987, 0.6180339887498949
)

// clipNorm clips two of the five attackers and no honest device (the
// largest honest per-example norm is 46 unit norms, the smallest clipped
// attacker's 100), so the clip count discriminates.
func clipNorm(dim int) float64 { return 49.5 * stubUpdate(0, 1, dim).Params.Norm2() }

type topology struct {
	name   string
	shards int
}

var topologies = []topology{{"in-process", 0}, {"1+1", 1}, {"1+3", 3}}

func (t topology) edges() int { return max(1, t.shards) }

// stubUpdate is device i's report: i+1 times one pattern, weight 1–3.
func stubUpdate(i int, scale float64, dim int) *checkpoint.Checkpoint {
	u := &checkpoint.Checkpoint{TaskName: matrixTask, Weight: float64(1 + i%3), Params: make(tensor.Vector, dim)}
	for j := range u.Params {
		u.Params[j] = scale * float64(i+1) * (float64(j%7)*0.25 - 0.5)
	}
	return u
}

func evalMetric(i int) float64 { return 0.5 + float64(i)/256 }

// closedForm is a round's commit over the reports rs it folds: the global's
// step, the committed weight, and how many reports the policy clips.
type closedForm func(rs []*checkpoint.Checkpoint) (step tensor.Vector, weight float64, clipped int)

// shape is one plan of §3b; want is nil for a refused plan, or an eval plan
// (whose closed form is the metrics' mean).
type shape struct {
	name, why string
	cfg       func(c *plan.Config)
	attacked  bool
	want      closedForm
	tol       float64
}

// weightedMean is FedAvg's Σ Δ_i / Σ n_i.
func weightedMean(rs []*checkpoint.Checkpoint) (tensor.Vector, float64, int) {
	out := make(tensor.Vector, len(rs[0].Params))
	var w float64
	for _, r := range rs {
		out.Axpy(1, r.Params)
		w += r.Weight
	}
	out.Scale(1 / w)
	return out, w, 0
}

// trimmed is the coordinate-wise mean of the per-example averages left
// after cutting cut(n) values off each tail of a sorted sample.
func trimmed(cut func(n int) int) closedForm {
	return func(rs []*checkpoint.Checkpoint) (tensor.Vector, float64, int) {
		_, w, _ := weightedMean(rs)
		out, vals, c := make(tensor.Vector, len(rs[0].Params)), make([]float64, len(rs)), cut(len(rs))
		for j := range out {
			for i, r := range rs {
				vals[i] = r.Params[j] / r.Weight
			}
			sort.Float64s(vals)
			for _, v := range vals[c : len(vals)-c] {
				out[j] += v / float64(len(vals)-2*c)
			}
		}
		return out, w, 0
	}
}

var trimmedMean = trimmed(func(n int) int { return int(trimFraction * float64(n)) })

func asEval(c *plan.Config) { c.Type, c.BatchSize, c.Epochs, c.LearningRate = plan.TaskEval, 0, 0, 0 }

// clip is norm_bound's closed form.
func clip(rs []*checkpoint.Checkpoint) (tensor.Vector, float64, int) {
	clipped, scaled := 0, slices.Clone(rs)
	for i, r := range rs {
		if s := clipNorm(len(r.Params)) * r.Weight / r.Params.Norm2(); s < 1 {
			clipped, scaled[i] = clipped+1, &checkpoint.Checkpoint{Weight: r.Weight, Params: r.Params.Clone()}
			scaled[i].Params.Scale(s)
		}
	}
	step, w, _ := weightedMean(scaled)
	return step, w, clipped
}

var shapes = []shape{
	{name: "plain_f64", why: "plain weighted mean", cfg: func(*plan.Config) {}, want: weightedMean, tol: 1e-9},
	{name: "quant8", why: "updates fold dequantized straight from the wire bytes",
		cfg: func(c *plan.Config) { c.ReportEncoding = checkpoint.EncodingQuant8 }, want: weightedMean, tol: 1e-9},
	{name: "norm_bound", why: "distributes: each edge clips at its own ingest and the seal's `Clipped` carries the count upstream",
		cfg:      func(c *plan.Config) { c.Robust = plan.RobustPolicy{Kind: plan.RobustNormBound} },
		attacked: true, want: clip, tol: 1e-9},
	{name: "norm_bound+quant8", why: "clips from the streaming norm of the dequantized update",
		cfg: func(c *plan.Config) {
			c.ReportEncoding, c.Robust = checkpoint.EncodingQuant8, plan.RobustPolicy{Kind: plan.RobustNormBound}
		}, attacked: true, want: clip, tol: 1e-9},
	{name: "trimmed_mean", why: "a per-update policy reduces over every update of the round at one edge; with more edges the task is auto-paused with an operator note, since edges ship merged sums",
		cfg: func(c *plan.Config) {
			c.Robust = plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: trimFraction}
		},
		attacked: true, want: trimmedMean, tol: 1e-9},
	{name: "median", why: "as `trimmed_mean`", cfg: func(c *plan.Config) { c.Robust = plan.RobustPolicy{Kind: plan.RobustMedian} },
		attacked: true, want: trimmed(func(n int) int { return (n - 1) / 2 }), tol: 1e-9},
	{name: "cosine_outlier", why: "as `trimmed_mean`; the attackers' updates point against the centroid and are rejected",
		cfg: func(c *plan.Config) {
			c.Robust = plan.RobustPolicy{Kind: plan.RobustCosineOutlier, MaxCosineDistance: cosineDistance}
		}, attacked: true, tol: 1e-9, want: func(rs []*checkpoint.Checkpoint) (tensor.Vector, float64, int) {
			// An attacker's pattern is flipped: its first parameter is positive.
			return weightedMean(slices.DeleteFunc(slices.Clone(rs), func(r *checkpoint.Checkpoint) bool { return r.Params[0] > 0 }))
		}},
	{name: "eval", why: "commits metrics, never a checkpoint; the global goes down float64 so the task scores the exact model",
		cfg: func(c *plan.Config) { asEval(c); c.ReportEncoding = checkpoint.EncodingQuant8 }, tol: 1e-9},
	{name: "secure_group16", why: "groups form inside one edge round, so they never span edges; a group that cannot recover its masks drops out of the sum",
		cfg:  func(c *plan.Config) { c.SecureAggregation, c.SecAggGroupSize = true, groupSize },
		want: weightedMean, tol: 1e-4}, // secagg's 2^-20 fixed point
	{name: "norm_bound+secure", why: "the plan mirrors the bound to `Device.ClipNorm` and devices clip client-side; the server clips nothing it sums securely, and still sees each update until ROADMAP item 1(b) lands",
		cfg: func(c *plan.Config) {
			c.SecureAggregation, c.SecAggGroupSize = true, groupSize
			c.Robust = plan.RobustPolicy{Kind: plan.RobustNormBound}
		}, want: weightedMean, tol: 1e-4},
	{name: "trimmed_mean+secure", why: "secure aggregation exists so that the server never sees an individual update",
		cfg: func(c *plan.Config) {
			c.SecureAggregation, c.Robust = true, plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: trimFraction}
		}},
	{name: "trimmed_mean+quant8_unsafe", why: "dequantization perturbs each coordinate by up to half a step ((hi−lo)/510) before the reduce, and the task did not opt into that bound",
		cfg: func(c *plan.Config) {
			c.ReportEncoding, c.Robust = checkpoint.EncodingQuant8, plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: trimFraction}
		}},
	{name: "trimmed_mean+quant8", why: "`Robust.QuantSafe` opts into the quantization error; otherwise as `trimmed_mean`",
		cfg: func(c *plan.Config) {
			c.ReportEncoding = checkpoint.EncodingQuant8
			c.Robust = plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: trimFraction, QuantSafe: true}
		}, attacked: true, want: trimmedMean, tol: 1e-9},
	{name: "norm_bound+eval", why: "an eval task has nothing to defend",
		cfg: func(c *plan.Config) { asEval(c); c.Robust = plan.RobustPolicy{Kind: plan.RobustNormBound} }},
}

// generate builds the shape's plan for K devices and dim parameters, with
// the sentinels in its server part, or returns Validate's refusal.
func (sh shape) generate(t *testing.T, k, dim int, f fault) (*plan.Plan, error) {
	cfg := plan.Config{
		TaskID: matrixTask, Population: matrixPop,
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: k, OverSelectFactor: 1, MinReportFraction: 0.5,
		SelectionTimeout: 30 * time.Second, ReportTimeout: 30 * time.Second,
		ReportEncoding: checkpoint.EncodingFloat64, SecAggThresholdFraction: secaggThreshold,
	}
	if sh.cfg(&cfg); cfg.Robust.Kind == plan.RobustNormBound {
		cfg.Robust.ClipNorm = clipNorm(dim)
	}
	if f.overSelected > 0 {
		cfg.TargetDevices, cfg.OverSelectFactor = k-f.overSelected, float64(k)/float64(k-f.overSelected)
	}
	p, err := plan.Generate(cfg)
	if err != nil {
		return nil, err
	}
	p.Server.Robust.TrimFraction, p.Server.Robust.MaxCosineDistance = trimFraction, cosineDistance
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p, nil
}

// fault is one column: the schedule on the rig's links, whether device i
// checks in and never reports, and whether its report cannot reach the
// commit (dropped, in a failed secure group, behind a partitioned shard,
// over-selected). With overSelected > 0 the round admits all K devices
// for a target that many short, every device waits until all are
// configured, and the excluded ones are aborted at the seal.
type fault struct {
	name            string
	applies         func(topo topology, p *plan.Plan) bool
	spec            string
	drops, excluded func(topo topology, i int) bool
	overSelected    int
}

// group is device i's secure group and rank in it: devices arrive in index
// order, device i on edge i mod edges, and fill an edge's groups in turn.
func group(topo topology, i int) (g, rank int) {
	if e := topo.edges(); e > 1 {
		return i % e, i / e
	}
	return i / groupSize, i % groupSize
}

var (
	always = func(topology, *plan.Plan) bool { return true }
	never  = func(topology, int) bool { return false }
	// The last two devices of each edge.
	dropped = func(topo topology, i int) bool { return i >= matrixK-2*topo.edges() }
)

var faults = []fault{
	{name: "none", applies: always, drops: never, excluded: never},
	{name: "drop@configured", applies: always, drops: dropped, excluded: dropped},
	// Eight of group 0's 16 devices vanish: fewer survive than its
	// threshold, ⌈0.618·16⌉ = 10.
	{name: "over_threshold", applies: func(_ topology, p *plan.Plan) bool { return p.Server.Aggregation == plan.AggregationSecure },
		drops:    func(topo topology, i int) bool { g, rank := group(topo, i); return g == 0 && rank < 8 },
		excluded: func(topo topology, i int) bool { g, _ := group(topo, i); return g == 0 }},
	// Devices check in from 1 s on, one a millisecond: the partition opens
	// after shard 0 has its RoundConfig and before it seals.
	{name: "shard:0:partition", applies: func(topo topology, _ *plan.Plan) bool { return topo.shards > 0 },
		spec: "shard:0:partition@1020ms+10m", drops: never, excluded: func(topo topology, i int) bool { return i%topo.shards == 0 }},
	// Target 24 at over-selection 2: devices 24–47 (eight per shard on 1+3)
	// are configured and never get to report. A secure group would keep
	// them as dropouts instead.
	{name: "over_selected", applies: func(_ topology, p *plan.Plan) bool { return p.Server.Aggregation != plan.AggregationSecure },
		drops: never, excluded: func(_ topology, i int) bool { return i >= matrixK/2 }, overSelected: matrixK / 2},
}

// sentinels are the server-plan values' bytes in either byte order.
var sentinels = func() (out [][]byte) {
	for _, v := range []float64{trimFraction, cosineDistance, secaggThreshold} {
		out = append(out, binary.BigEndian.AppendUint64(nil, math.Float64bits(v)), binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return out
}()

// stubRuntime is the runtime version a stub device announces.
const stubRuntime = 3

// cell is one run: the plan, each device's report bytes (and what the
// server decodes from them), and what the tap on the devices' links saw.
// With clients set, device i is a real one that trains on its own data
// instead of a stub, and runtime is the lowest version among them.
type cell struct {
	sh      shape
	topo    topology
	f       fault
	p       *plan.Plan
	store   *chaos.WatchStore
	wire    [][]byte
	decoded []*checkpoint.Checkpoint
	clients []*device.Client
	runtime int

	mu      sync.Mutex
	configs int
	reports int
	bad     []string
	// admitted holds over-selected devices until all K are configured.
	admitted simclock.Gate
	waiting  int
}

func newCell(t *testing.T, sh shape, topo topology, f fault, p *plan.Plan, reports, dim int) *cell {
	c := &cell{sh: sh, topo: topo, f: f, p: p, store: chaos.NewWatchStore(storage.NewMem()), runtime: stubRuntime}
	if err := c.store.Store.PutCheckpoint(&checkpoint.Checkpoint{TaskName: matrixTask, Params: make(tensor.Vector, dim)}); err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		scale := 1.0
		if sh.attacked && i < attackers {
			scale = attackScale
		}
		b, err := stubUpdate(i, scale, dim).Marshal(p.UplinkEncoding())
		if err != nil {
			t.Fatal(err)
		}
		d, err := checkpoint.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		c.wire, c.decoded = append(c.wire, b), append(c.decoded, d)
	}
	return c
}

// tapConn is a device's link, checked as it carries each configuration down
// and each report up: the plan decodes as a device plan naming the uplink
// encoding, needing no runtime newer than the device's, and holds no
// sentinel; the checkpoint is in the plan's downlink encoding; a training
// report is in the uplink encoding and an eval report carries metrics only.
type tapConn struct {
	transport.Conn
	c *cell
}

func (tc tapConn) Send(msg interface{}) error {
	if r, ok := msg.(protocol.ReportRequest); ok && !r.Aborted {
		p, bad := tc.c.p, ""
		if p.Type == plan.TaskEval {
			if r.Update != nil || len(r.Metrics) == 0 {
				bad = fmt.Sprintf("eval report carries %d update bytes and metrics %v", len(r.Update), r.Metrics)
			}
		} else if meta, err := checkpoint.ParseMeta(r.Update); err != nil || meta.Encoding != p.UplinkEncoding() {
			bad = fmt.Sprintf("device reported %+v (%v), want encoding %d", meta, err, p.UplinkEncoding())
		}
		tc.c.note(&tc.c.reports, bad)
	}
	return tc.Conn.Send(msg)
}

// note counts one message the tap saw, and what was wrong with it.
func (c *cell) note(count *int, bad string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if *count++; bad != "" {
		c.bad = append(c.bad, bad)
	}
}

func (tc tapConn) Recv() (interface{}, error) {
	msg, err := tc.Conn.Recv()
	if r, ok := msg.(protocol.CheckinResponse); ok && r.Accepted {
		p, bad := tc.c.p, ""
		dp, err := plan.UnmarshalDevice(r.Plan)
		meta, merr := checkpoint.ParseMeta(r.Checkpoint)
		switch {
		case err != nil || dp.Device.ReportEncoding != p.UplinkEncoding():
			bad = fmt.Sprintf("device plan %+v (%v), want uplink %d", dp, err, p.UplinkEncoding())
		case dp.Device.MinRuntimeVersion > tc.c.runtime:
			bad = fmt.Sprintf("runtime-%d device served a plan needing %d", tc.c.runtime, dp.Device.MinRuntimeVersion)
		case merr != nil || meta.Encoding != p.DownlinkEncoding():
			bad = fmt.Sprintf("checkpoint sent as %+v (%v), want encoding %d", meta, merr, p.DownlinkEncoding())
		}
		for _, s := range sentinels {
			if bytes.Contains(r.Plan, s) || bytes.Contains(r.Checkpoint, s) {
				bad = fmt.Sprintf("a device was sent the server plan's sentinel %x", s)
			}
		}
		tc.c.note(&tc.c.configs, bad)
	}
	return msg, err
}

// session is stub device i's: check in, then report the prebuilt bytes —
// or, if the fault drops it, close the link and never report. Over-selected,
// it first waits until every device is configured, and an excluded one
// expects an Abort instead of reporting. It returns the rest its
// pace-steering hint asks for, at least minWait.
func (c *cell) session(i int, conn transport.Conn, clock simclock.Clock, minWait time.Duration) time.Duration {
	if c.clients != nil {
		return c.train(i, conn, minWait)
	}
	id := fmt.Sprintf("stub-%d", i)
	client := &device.Client{ID: id, Population: matrixPop, Runtime: device.NewRuntime(id, stubRuntime, nil, 1), Clock: clock}
	s, err := client.Checkin(tapConn{conn, c})
	switch {
	case err != nil:
		return minWait
	case !s.Accepted:
		return max(minWait, s.RetryAfter)
	case c.f.drops(c.topo, i):
		conn.Release() // Close never ends the configuration's lease
		conn.Close()
		return time.Hour
	case c.f.overSelected > 0:
		c.admitted.Lock()
		for c.waiting++; c.waiting < matrixK; {
			c.admitted.Wait(clock)
		}
		c.admitted.Broadcast()
		c.admitted.Unlock()
		if c.f.excluded(c.topo, i) {
			// Whatever reaches an over-selected device is an Abort.
			if msg, err := conn.Recv(); err == nil {
				if _, ok := msg.(protocol.Abort); !ok {
					c.mu.Lock()
					c.bad = append(c.bad, fmt.Sprintf("over-selected device %d was sent %T, not an Abort", i, msg))
					c.mu.Unlock()
				}
			}
			conn.Close()
			return time.Hour
		}
	}
	if c.p.Type == plan.TaskEval {
		_, _ = s.Report(nil, map[string]float64{"eval_accuracy": evalMetric(i)})
	} else {
		_, _ = s.Report(c.wire[i%len(c.wire)], nil)
	}
	return minWait
}

// train is real device i's session: check in, train on its own examples and
// report. Once its report is in, the device rests for an hour.
func (c *cell) train(i int, conn transport.Conn, minWait time.Duration) time.Duration {
	out, err := c.clients[i].RunOnce(tapConn{conn, c})
	switch {
	case err != nil:
		c.note(new(int), fmt.Sprintf("%s: %v", c.clients[i].ID, err))
	case !out.Accepted:
		return max(minWait, out.RetryAfter)
	case !out.ReportAccepted:
		c.note(new(int), fmt.Sprintf("%s: report not accepted: %+v", c.clients[i].ID, out))
	}
	return time.Hour
}

// included lists the reports the fault lets reach the commit.
func (c *cell) included() (in []int) {
	for i := range matrixK {
		if !c.f.excluded(c.topo, i) {
			in = append(in, i)
		}
	}
	return in
}

// expect is the cell's verdict from its plan and topology alone.
func (c *cell) expect() string {
	switch {
	case c.p.Server.Robust.PerUpdate() && c.topo.edges() > 1:
		return "paused"
	case len(c.included()) < c.p.Server.MinReports():
		return "failed"
	}
	return "commit"
}

// verdict reads what the deployment did — from the first round's trace, or,
// when no round settled, from the task stats — and checks it: a commit
// against the closed form over the included reports, a pause against its
// note, a failure for its reason.
func (c *cell) verdict(t *testing.T, progress func() (shard.CoordStats, error), taskStats func() ([]tasks.Stats, error)) string {
	t.Helper()
	if len(c.bad) > 0 {
		t.Errorf("device link: %d bad configurations, first: %s", len(c.bad), c.bad[0])
	}
	if err := chaos.Verify(c.store.LineageProbe()).Err(); err != nil {
		t.Fatal(err)
	}
	traces := c.store.Traces()
	ck, err := c.store.LatestCheckpoint(c.p.ID)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case len(traces) == 0:
		sts, err := taskStats()
		if err != nil || len(sts) != 1 || sts[0].State != tasks.Paused {
			t.Fatalf("no round settled and the task is not paused: %+v, %v", sts, err)
		}
		if note := sts[0].Note; !strings.Contains(note, "robust") || !strings.Contains(note, c.p.Server.Robust.Kind.String()) {
			t.Fatalf("pause note not operator-readable: %q", note)
		}
		if ck.Round != 0 || c.configs != 0 {
			t.Fatalf("paused task committed round %d after %d configurations", ck.Round, c.configs)
		}
		return "paused"
	case !traces[0].Committed:
		if traces[0].FailReason == "" || ck.Round != 0 {
			t.Fatalf("round failed without a reason (%+v) or committed round %d", traces[0], ck.Round)
		}
		return "failed"
	}
	in := c.included()
	if tr := traces[0]; tr.Aborted != c.f.overSelected {
		t.Fatalf("the round's trace counts %d aborted devices, want %d", tr.Aborted, c.f.overSelected)
	}
	if c.p.Type == plan.TaskEval {
		var mean float64
		for _, i := range in {
			mean += evalMetric(i) / float64(len(in))
		}
		ms, err := c.store.Metrics(c.p.ID)
		if err != nil || len(ms) != 1 || ck.Round != 0 {
			t.Fatalf("eval round: %d metric records (%v), lineage at round %d", len(ms), err, ck.Round)
		}
		if got := ms[0].Stats["eval_accuracy"]; got.Count != len(in) || math.Abs(got.Mean-mean) > c.sh.tol {
			t.Fatalf("eval_accuracy = %+v, want %d samples of mean %v", got, len(in), mean)
		}
		return "commit"
	}
	rs := make([]*checkpoint.Checkpoint, len(in))
	for k, i := range in {
		rs[k] = c.decoded[i]
	}
	want, weight, clipped := c.sh.want(rs)
	if ck.Round != 1 || math.Abs(ck.Weight-weight) > c.sh.tol*weight {
		t.Fatalf("committed round %d of weight %v, want round 1 of %v", ck.Round, ck.Weight, weight)
	}
	for j := range want {
		if math.Abs(ck.Params[j]-want[j]) > c.sh.tol*(1+math.Abs(want[j])) {
			t.Fatalf("param %d: committed %v, closed form %v", j, ck.Params[j], want[j])
		}
	}
	if st, err := progress(); err != nil || st.Clipped != int64(clipped) {
		t.Fatalf("clipped = %d (%v), the closed form clips %d", st.Clipped, err, clipped)
	}
	return "commit"
}

// runVirtual runs the cell on NewRig: one round, devices checking in from
// 1 s on, one a millisecond, until a round settles, the task is paused or
// the horizon passes.
func (c *cell) runVirtual(t *testing.T) string {
	var spec *chaos.Spec
	if c.f.spec != "" {
		s, err := chaos.ParseSpec(c.f.spec)
		if err != nil {
			t.Fatal(err)
		}
		spec = &s
	}
	rig, err := chaos.NewRig(chaos.RigConfig{Faults: spec, Plan: c.p, Store: c.store, PopulationEstimate: matrixK, MaxRounds: 1, Shards: c.topo.shards, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	c.swarm(rig, matrixK, func(i int) time.Duration { return time.Second + time.Duration(i)*time.Millisecond })
	settled := func() bool {
		sts, err := rig.TaskStats()
		return len(c.store.Traces()) > 0 || err == nil && len(sts) == 1 && sts[0].State == tasks.Paused
	}
	if err := rig.Clock.Run(2*time.Minute, settled); err != nil && !errors.Is(err, simclock.ErrHorizon) {
		t.Fatal(err) // a deadlock names every parked goroutine
	}
	v := c.verdict(t, rig.Progress, rig.TaskStats)
	if err := rig.StopDevices(time.Hour); err != nil {
		t.Fatal(err)
	}
	atBaseline(t, rig)
	return v
}

// atBaseline closes the rig and checks that it ends as it began: no
// goroutine, no loan and no wrapped connection left on its census.
func atBaseline(t *testing.T, rig *chaos.Rig) {
	rig.Close()
	if err := chaos.Verify(chaos.TeardownProbe(rig.Clock, rig.Faults)).Err(); err != nil {
		t.Fatal(err)
	}
}

// swarm adds n stub devices to the rig, device i checking in first at
// first(i).
func (c *cell) swarm(rig *chaos.Rig, n int, first func(i int) time.Duration) {
	for i := range n {
		rig.Device(i, first(i), func(dial func() (transport.Conn, error)) time.Duration {
			conn, err := dial()
			if err != nil {
				return rig.Steering.MinWait
			}
			return c.session(i, conn, rig.Clock, rig.Steering.MinWait)
		})
	}
}

// TestEngineEquivalenceMatrix is the composition matrix: every shape ×
// topology × fault cell on chaos.NewRig and a wall-clock row over loopback
// TCP, with released buffers poisoned in every cell. It then checks
// DESIGN.md §3b's generated tables against the verdicts.
func TestEngineEquivalenceMatrix(t *testing.T) {
	transport.PoisonReleasedForTest()
	var mu sync.Mutex
	verdicts := map[string]string{}
	record := func(key, v string) {
		mu.Lock()
		defer mu.Unlock()
		verdicts[key] = v
	}
	var cells []string
	t.Cleanup(func() {
		for _, key := range cells {
			if _, ok := verdicts[key]; !ok || t.Failed() {
				t.Logf("cell %s has no verdict; DESIGN.md not checked", key)
				return
			}
		}
		checkDesign(t, verdicts)
	})
	type run struct {
		f   fault
		p   *plan.Plan
		err error
	}
	for _, sh := range shapes {
		for _, topo := range topologies {
			var runs []run
			for _, f := range faults {
				p, err := sh.generate(t, matrixK, virtualDim, f)
				if err != nil && f.name == "none" || err == nil && f.applies(topo, p) {
					cells, runs = append(cells, sh.name+"/"+topo.name+"/"+f.name), append(runs, run{f, p, err})
				}
			}
			t.Run(sh.name+"/"+topo.name, func(t *testing.T) {
				t.Parallel()
				for _, r := range runs {
					key := sh.name + "/" + topo.name + "/" + r.f.name
					t.Run(r.f.name, func(t *testing.T) {
						if r.err != nil {
							if sh.want != nil {
								t.Fatalf("plan refused: %v", r.err)
							}
							record(key, "refused")
							return
						}
						t.Parallel()
						c := newCell(t, sh, topo, r.f, r.p, matrixK, virtualDim)
						if v, want := c.runVirtual(t), c.expect(); v != want {
							t.Fatalf("verdict %s, want %s", v, want)
						}
						record(key, c.expect())
						up := encodingName[r.p.UplinkEncoding()]
						if r.p.Type == plan.TaskEval {
							up = "metrics only"
						}
						record("downlink/"+sh.name, up+" | "+encodingName[r.p.DownlinkEncoding()])
					})
				}
			})
		}
	}
	t.Run("tcp", func(t *testing.T) {
		t.Parallel()
		tcpRow(t)
	})
}

// TestShardedCheckinStorm runs the storm at K = 64, 512 and 4096 back to
// back, five times, each pass on its own seed. Before the round's control
// sends left its Receive (flserver.roundOutbox) this sequence hung on a
// 2-core host about every other time: at K=4096 a Selector's mailbox filled
// with check-ins while the round's filled with report outcomes, and each
// actor parked on the other's. On the virtual clock such a round fails at
// the horizon or as simclock.ErrDeadlock naming the parked goroutines.
func TestShardedCheckinStorm(t *testing.T) {
	for pass := range 5 {
		for _, k := range []int{64, 512, 4096} {
			if k == 4096 && (raceEnabled || testing.Short()) {
				continue // K=4096's devices exceed the race detector's goroutine limit
			}
			t.Run(fmt.Sprintf("pass-%d/K-%d", pass, k), func(t *testing.T) {
				t.Parallel()
				runStorm(t, k, uint64(1+pass))
			})
		}
	}
}

// TestShardedRoundMeetsItsGoalCount: a K three shards cannot split evenly is
// split exactly — K = 128 as 43 + 43 + 42 — and K = 2 opens two of the three
// edges (the third would be lifted to a one-device target). The storm's
// checks are the goal count's: each round's trace counts K reports, not the
// 129 (and 3) a ceil share per edge would configure, and each opened edge
// seals once.
func TestShardedRoundMeetsItsGoalCount(t *testing.T) {
	for _, k := range []int{128, 2} {
		t.Run(fmt.Sprintf("K-%d", k), func(t *testing.T) {
			t.Parallel()
			runStorm(t, k, 1)
		})
	}
}

// runStorm is the check-in storm: 2K devices (at least eight, so an edge
// always has one free for the second round) check in at one instant into a
// 1+3 deployment running two rounds of K. Every device reports one update,
// so each round adds its per-example mean. Each round's trace counts K
// reports — not the ceil share per edge that over-configures a K the shards
// cannot split evenly (K = 2 opens two of the three edges) — and each
// opened edge seals once per round.
func runStorm(t *testing.T, k int, seed uint64) {
	const rounds = 2
	p, err := shapes[0].generate(t, k, virtualDim, faults[0])
	if err != nil {
		t.Fatal(err)
	}
	c := newCell(t, shapes[0], topologies[2], faults[0], p, 1, virtualDim)
	devices := max(2*k, 8)
	rig, err := chaos.NewRig(chaos.RigConfig{Plan: p, Store: c.store, PopulationEstimate: devices, MaxRounds: rounds, Shards: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	c.swarm(rig, devices, func(int) time.Duration { return time.Second })
	if err := rig.Clock.Run(time.Hour, func() bool { return len(c.store.Traces()) >= rounds }); err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.store.Traces() {
		if !tr.Committed || tr.Reports != k {
			t.Fatalf("round %d: committed=%v with %d reports, want %d (%s)", tr.Round, tr.Committed, tr.Reports, k, tr.FailReason)
		}
	}
	st, err := rig.Progress()
	if opened := int64(min(k, 3)); err != nil || st.SealsReceived != opened*rounds {
		t.Fatalf("%d seals over %d rounds, want %d per round (%v)", st.SealsReceived, rounds, opened, err)
	}
	if err := rig.StopDevices(time.Hour); err != nil {
		t.Fatal(err)
	}
	atBaseline(t, rig)
	checkRounds(t, c, rounds)
}

// checkRounds checks a lineage whose every report was the cell's one
// update: after r ≥ atLeast rounds the global is r times its per-example
// mean.
func checkRounds(t *testing.T, c *cell, atLeast int64) {
	if err := chaos.Verify(c.store.LineageProbe()).Err(); err != nil {
		t.Fatal(err)
	}
	ck, err := c.store.LatestCheckpoint(c.p.ID)
	if err != nil {
		t.Fatal(err)
	}
	u := c.decoded[0]
	for j, w := range u.Params {
		if want := float64(ck.Round) * w / u.Weight; ck.Round < atLeast || math.Abs(ck.Params[j]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("round %d param %d: committed %v, want %v", ck.Round, j, ck.Params[j], want)
		}
	}
}

// runTCP serves the cell's plan on the wall clock over loopback TCP — in
// process, or on shards selector processes whose coordinator links are
// sockets too — behind inj's device-link faults, and drives devices stubs
// (device i on edge i mod edges, back 2 ms after each session, done once a
// session asks for an hour's rest) until rounds rounds have settled. It returns the coordinator's progress.
func (c *cell) runTCP(t *testing.T, shards, rounds, devices int, inj *chaos.Injector) func() (shard.CoordStats, error) {
	listen := func() (transport.Listener, func() (transport.Conn, error)) {
		l, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l, func() (transport.Conn, error) { return transport.DialTCP(l.Addr()) }
	}
	steering := pacing.New(time.Second)
	var dials []func() (transport.Conn, error)
	var progress func() (shard.CoordStats, error)
	if shards == 0 {
		fleet := flserver.NewFleet(flserver.FleetConfig{Seed: 1})
		t.Cleanup(fleet.Close)
		if err := fleet.Register(flserver.PopulationSpec{Population: matrixPop, Plans: []*plan.Plan{c.p}, Store: c.store,
			Steering: steering, PopulationEstimate: matrixK, MaxRounds: rounds}); err != nil {
			t.Fatal(err)
		}
		l, dial := listen()
		go fleet.Serve(inj.WrapListener(chaos.RoleDevice, l))
		dials, progress = append(dials, dial), func() (shard.CoordStats, error) {
			st, err := fleet.PopulationStats(matrixPop)
			return shard.CoordStats{Clipped: st.Coordinator.Clipped}, err
		}
	} else {
		coord, err := shard.NewCoordinatorProc(shard.CoordinatorConfig{Population: matrixPop, Plans: []*plan.Plan{c.p}, Store: c.store,
			Steering: steering, PopulationEstimate: matrixK, MaxRounds: rounds, MinShards: shards, TickEvery: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		coordL, coordDial := listen()
		go coord.Serve(coordL)
		for i := range shards {
			sp := shard.NewSelectorProc(shard.SelectorConfig{Shard: uint32(i), Steering: steering, PopulationEstimate: matrixK, Seed: uint64(7 + i)}, coordDial)
			t.Cleanup(sp.Close)
			l, dial := listen()
			go sp.Serve(l)
			dials = append(dials, dial)
		}
		progress = coord.Stats
	}
	var stop simclock.Gate
	var swarm sync.WaitGroup
	defer func() { stop.Close(); swarm.Wait() }()
	for i := range devices {
		swarm.Add(1)
		go func() {
			defer swarm.Done()
			for rest := time.Duration(0); rest < time.Hour && simclock.Sleep(simclock.Wall, 2*time.Millisecond, &stop); {
				if conn, err := dials[i%len(dials)](); err == nil {
					rest = c.session(i, conn, simclock.Wall, 0)
				}
			}
		}()
	}
	for deadline := time.Now().Add(time.Minute); len(c.store.Traces()) < rounds; simclock.Sleep(simclock.Wall, 5*time.Millisecond, nil) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d rounds settled in a minute", len(c.store.Traces()), rounds)
		}
	}
	return progress
}

// leasedFrames is how many frames this process has read into leased
// receive buffers so far.
func leasedFrames() int64 {
	return metrics.Default.Counter("fl_net_rx_buf_reused_total").Value() + metrics.Default.Counter("fl_net_rx_buf_alloc_total").Value()
}

// tcpRow is the wall-clock row over loopback TCP, where links frame and
// lease. Released receive buffers are overwritten with 0xDB, so a fold,
// decode or clip pass that read an update after its lease went back would
// put ~1e132 into a sum, not an error below the tolerance. It runs every
// committing shape in process, and dropped and corrupted device frames. Its
// cells run one at a time, so each counts its own leases.
func tcpRow(t *testing.T) {
	transport.PoisonReleasedForTest()
	for _, sh := range shapes {
		if p, err := sh.generate(t, matrixK, tcpDim, faults[0]); err == nil {
			t.Run(sh.name+"/"+topologies[0].name, func(t *testing.T) { tcpCell(t, sh, topologies[0], p) })
		}
	}
	// Sessions die at any step, so which devices a round folds is chance —
	// but every device reports the same update. Over-selection lets a round
	// reach its target past the sessions a fault stalls.
	t.Run("drop+corrupt/in-process", func(t *testing.T) {
		p, err := shapes[1].generate(t, 6, tcpDim, faults[0])
		if err != nil {
			t.Fatal(err)
		}
		p.Server.OverSelectFactor, p.Server.MinReportFraction, p.Server.ReportTimeout = 2, 0.25, time.Second
		c := newCell(t, shapes[1], topologies[0], faults[0], p, 1, tcpDim)
		inj := chaos.New(5, chaos.Spec{Rules: []chaos.Rule{{Role: chaos.RoleDevice, Drop: 0.15, Corrupt: 0.15, Jitter: 5 * time.Millisecond}}}, nil)
		c.runTCP(t, 0, 3, 10, inj)
		if inj.Trace().Total() == 0 {
			t.Fatal("no fault was injected")
		}
		checkRounds(t, c, 1)
	})
}

// TestShardedRoundTCP is the TCP row's sharded cell: plain_f64 on 1+3 with
// device and shard links on poisoned loopback sockets, where a StripeSeal's
// sum is read into a leased buffer too. It runs alone, so it counts its own
// leases.
func TestShardedRoundTCP(t *testing.T) {
	transport.PoisonReleasedForTest()
	p, err := shapes[0].generate(t, matrixK, tcpDim, faults[0])
	if err != nil {
		t.Fatal(err)
	}
	tcpCell(t, shapes[0], topologies[2], p)
}

// tcpCell runs one round of the shape on the topology over TCP and checks
// its commit against the closed form and that every download and every
// update was read into a leased buffer.
func tcpCell(t *testing.T, sh shape, topo topology, p *plan.Plan) {
	c := newCell(t, sh, topo, faults[0], p, matrixK, tcpDim)
	before := leasedFrames()
	if v := c.verdict(t, c.runTCP(t, topo.shards, 1, matrixK, nil), nil); v != "commit" {
		t.Fatalf("verdict %s", v)
	}
	want := int64(c.configs)
	if p.Type == plan.TaskTrain {
		want *= 2
	}
	if got := leasedFrames() - before; got < want {
		t.Fatalf("%d frames read into leased buffers, want at least %d", got, want)
	}
}

const designPath = "../../DESIGN.md"

var encodingName = map[checkpoint.Encoding]string{checkpoint.EncodingFloat64: "float64", checkpoint.EncodingQuant8: "quant8"}

// designTables renders §3b's generated sections from the verdicts, keyed
// shape/topology/fault, and each committing shape's links, keyed
// downlink/shape: the composition table with its fault columns, and the
// downlink table.
func designTables(verdicts map[string]string) (composition, downlink string) {
	var b, faulted, d strings.Builder
	b.WriteString("| plan shape | in-process | 1+1 | 1+3 | why |\n|---|---|---|---|---|\n")
	faulted.WriteString("\nUnder faults (in-process / 1+1 / 1+3):\n\n| plan shape |")
	for _, f := range faults[1:] {
		fmt.Fprintf(&faulted, " `%s` |", f.name)
	}
	faulted.WriteString("\n|---|" + strings.Repeat("---|", len(faults)-1) + "\n")
	d.WriteString("| plan shape | uplink | downlink |\n|---|---|---|\n")
	for _, sh := range shapes {
		fmt.Fprintf(&b, "| `%s` |", sh.name)
		for _, topo := range topologies {
			fmt.Fprintf(&b, " %s |", verdicts[sh.name+"/"+topo.name+"/none"])
		}
		fmt.Fprintf(&b, " %s |\n", sh.why)
		if verdicts[sh.name+"/in-process/none"] == "refused" {
			continue
		}
		fmt.Fprintf(&faulted, "| `%s` |", sh.name)
		for _, f := range faults[1:] {
			var vs []string
			for _, topo := range topologies {
				vs = append(vs, cmp.Or(verdicts[sh.name+"/"+topo.name+"/"+f.name], "—"))
			}
			fmt.Fprintf(&faulted, " %s |", strings.Join(vs, " / "))
		}
		faulted.WriteString("\n")
		fmt.Fprintf(&d, "| `%s` | %s |\n", sh.name, verdicts["downlink/"+sh.name])
	}
	return b.String() + faulted.String(), d.String()
}

// checkDesign keeps DESIGN.md's generated §3b sections equal to what the
// verdicts render; -update rewrites them.
func checkDesign(t *testing.T, verdicts map[string]string) {
	doc, err := os.ReadFile(designPath)
	if err != nil {
		t.Error(err)
		return
	}
	composition, downlink := designTables(verdicts)
	for _, sec := range [][2]string{{"composition matrix", composition}, {"downlink table", downlink}} {
		begin := fmt.Sprintf("<!-- %s: generated by TestEngineEquivalenceMatrix (-update rewrites it) -->\n", sec[0])
		i, j := bytes.Index(doc, []byte(begin)), bytes.Index(doc, []byte("<!-- end of "+sec[0]+" -->\n"))
		if i < 0 || j < i {
			t.Errorf("%s has no generated %s section", designPath, sec[0])
			return
		}
		if i += len(begin); string(doc[i:j]) != sec[1] {
			if !*update {
				t.Errorf("DESIGN.md's %s drifted from the cells' verdicts; rerun with -update:\n got\n%s\n want\n%s", sec[0], doc[i:j], sec[1])
				continue
			}
			doc = slices.Concat(doc[:i], []byte(sec[1]), doc[j:])
		}
	}
	if *update {
		if err := os.WriteFile(designPath, doc, 0o644); err != nil {
			t.Error(err)
		}
	}
}
