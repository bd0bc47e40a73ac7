package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fedavg"
)

func TestPercentiles(t *testing.T) {
	vals := sortedCopy([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	for _, c := range []struct {
		n    int
		want string
	}{{40, "p50"}, {100, "p90"}, {199, "p90"}, {200, "p95"}, {1000, "p99"}, {20000, "p99.9"}} {
		if _, label := tailPercentile(c.n); label != c.want {
			t.Errorf("tailPercentile(%d) = %s, want %s", c.n, label, c.want)
		}
	}
}

// The spread must be what Python's statistics.quantiles(values, n=4) gives,
// because that is what the acceptance rule computes.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if got, want := spread([]float64{10, 12, 11}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {130, 160}, {140, 145}}, 50},
		{"clipped to the parent", []interval{{50, 120}, {190, 300}}, 70},
		{"outside", []interval{{0, 100}, {200, 250}}, 100},
		{"covered", []interval{{90, 210}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPhasesSumToTheRound(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// A check-in sent before the previous commit, and an ack the stub saw
	// after the commit: both are clamped, and the phases still add up.
	rec := &roundRec{firstSent: at(-3), firstAccept: at(10), lastAccept: at(30), lastAck: at(75)}
	c := cuts(at(0), rec, at(70))
	var sum time.Duration
	for p := range phaseNames {
		d := c[p+1].Sub(c[p])
		if d < 0 {
			t.Errorf("%s is negative: %v", phaseNames[p], d)
		}
		sum += d
	}
	if sum != 70*time.Millisecond {
		t.Errorf("phases sum to %v, want 70ms", sum)
	}
	if got := c[1].Sub(c[0]); got != 0 {
		t.Errorf("turnaround = %v, want 0 (check-in predates the commit)", got)
	}
	if got := c[5].Sub(c[4]); got != 0 {
		t.Errorf("commit phase = %v, want 0 (ack observed after the commit)", got)
	}

	tr := &tracer{epoch: t0}
	tr.add("transport.send", "report_request", 7, at(35), at(45))
	tr.add("transport.recv", "report_response", 7, at(45), at(60))
	tr.add("transport.send", "warm-up", 3, at(1), at(2))
	self := tr.finish(map[int64]cutPoints{7: c})
	if got := self["phase.report"]; len(got) != 1 || got[0] != 30 {
		t.Errorf("phase.report self = %v, want [30] (40 ms minus a 10 ms send; recv does not count)", got)
	}
	for _, s := range tr.spans {
		if s.Round != 7 {
			t.Errorf("span of unmeasured round %d kept", s.Round)
		}
		if s.Name == "transport.send" && s.Parent != "phase.report" {
			t.Errorf("send span parented to %q", s.Parent)
		}
	}
}

// foldRounds commits `rounds` rounds the way the server does: every report
// decoded, summed, averaged by weight and applied.
func foldRounds(t *testing.T, seed uint64, dim, reports int, enc checkpoint.Encoding, rounds int64) *checkpoint.Checkpoint {
	t.Helper()
	global := initialCheckpoint(seed, dim)
	for r := int64(0); r < rounds; r++ {
		b, err := marshalUpdate(seed, r, dim, enc)
		if err != nil {
			t.Fatal(err)
		}
		acc := fedavg.NewAccumulator(dim)
		for i := 0; i < reports; i++ {
			u, err := checkpoint.Unmarshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if err := acc.Add(&fedavg.Update{Delta: u.Params, Weight: u.Weight}); err != nil {
				t.Fatal(err)
			}
		}
		avg, err := acc.Average()
		if err != nil {
			t.Fatal(err)
		}
		if err := fedavg.Apply(global.Params, avg); err != nil {
			t.Fatal(err)
		}
		global.Round++
	}
	return global
}

func TestClosedFormOracle(t *testing.T) {
	for _, enc := range []checkpoint.Encoding{checkpoint.EncodingFloat64, checkpoint.EncodingQuant8} {
		// 9 reports is the sharded case: 3 shards of ⌈8/3⌉.
		for _, reports := range []int{8, 9} {
			got := foldRounds(t, 42, 64, reports, enc, 6)
			if err := verifyModel(got, 42, 64, enc); err != nil {
				t.Errorf("encoding %d, %d reports: correct model rejected: %v", enc, reports, err)
			}
		}
		got := foldRounds(t, 42, 64, 8, enc, 6)
		got.Params[17] += 1e-6
		if err := verifyModel(got, 42, 64, enc); err == nil {
			t.Errorf("encoding %d: a model off by 1e-6 in one parameter passed", enc)
		}
		got = foldRounds(t, 42, 64, 8, enc, 6)
		got.Round = 5 // one round's update applied twice
		if err := verifyModel(got, 42, 64, enc); err == nil {
			t.Errorf("encoding %d: a model with an extra round's update passed", enc)
		}
	}
	if err := verifyModel(foldRounds(t, 42, 64, 8, checkpoint.EncodingFloat64, 3), 43, 64, checkpoint.EncodingFloat64); err == nil {
		t.Error("a model built from another seed passed")
	}
}

// Every topology shape, small, over MemNetwork: warm-up rounds commit, the
// window accounting holds and the correctness gate passes.
func TestSmokeRounds(t *testing.T) {
	for _, w := range []workload{
		{Name: "inprocess", K: 8, Dim: 64, Encoding: checkpoint.EncodingFloat64, Stubs: 8},
		{Name: "inprocess_q8", K: 8, Dim: 64, Encoding: checkpoint.EncodingQuant8, Stubs: 8},
		{Name: "sharded", K: 8, Dim: 64, Encoding: checkpoint.EncodingFloat64, Shards: 3, Stubs: 16},
		{Name: "secure", K: 8, Dim: 64, Encoding: checkpoint.EncodingFloat64, Stubs: 8, SecAggGroup: 4},
	} {
		t.Run(w.Name, func(t *testing.T) {
			e, setup, err := setUp(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			first, last, err := e.measure(0)
			if err != nil {
				e.finish()
				t.Fatal(err)
			}
			fin, err := e.finish()
			if err != nil {
				t.Fatalf("correctness gate: %v", err)
			}
			win := e.window(first, last)
			if setup <= 0 || win.rounds < 1 || win.seconds <= 0 {
				t.Errorf("setup %v s, window of %d rounds in %v s", setup, win.rounds, win.seconds)
			}
			if win.unacked != 0 || fin.failedRounds != 0 {
				t.Errorf("%d unacked sessions, %d failed rounds", win.unacked, fin.failedRounds)
			}
			if win.sessions < w.K*win.rounds {
				t.Errorf("%d sessions over %d rounds of K=%d", win.sessions, win.rounds, w.K)
			}
			if win.down <= 0 || win.up <= 0 || len(win.acks) != win.sessions {
				t.Errorf("down %v up %v bytes/round, %d ack samples for %d sessions", win.down, win.up, len(win.acks), win.sessions)
			}
			if (w.Shards > 0) != (fin.upstreamPerRound > 0) {
				t.Errorf("upstream bytes per round = %v with %d shards", fin.upstreamPerRound, w.Shards)
			}
		})
	}
}

func TestReplayCoversEveryLayer(t *testing.T) {
	w := workload{Name: "replay", K: 8, Dim: 64, Encoding: checkpoint.EncodingFloat64, TCP: true, Shards: 3, Stubs: 16}
	ops, err := replayOps(w, 7, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.close()
	seen := map[string]bool{}
	for _, op := range ops.ops {
		op.run() // every operation must work at the workload's shapes
		seen[op.name] = true
	}
	for _, name := range layerNames {
		if !seen[name] {
			t.Errorf("layer %s is listed but never replayed", name)
		}
	}
	if len(seen) != len(layerNames) {
		t.Errorf("replayed %d layers, %d are listed", len(seen), len(layerNames))
	}
	// A frame's busy time is net of the codec work it contains.
	enc := &layerOp{name: "protocol.encode", perRound: 2, cost: layerCost{ns: 10, cpuNs: 10}}
	frame := &layerOp{name: "transport.frame_rt", perRound: 2, cost: layerCost{ns: 100, cpuNs: 100}, children: []*layerOp{enc}}
	idle := &layerOp{name: "secagg.group", perRound: 0, cost: layerCost{ns: 5, cpuNs: 5}}
	totals := layerTotals([]*layerOp{enc, frame, idle})
	want := []layerTotal{
		{name: "protocol.encode", ops: 2, ns: 10, busy: 2 * 10 / 1e6},
		{name: "transport.frame_rt", ops: 2, ns: 100, busy: 2 * 90 / 1e6},
		{name: "secagg.group", ops: 0, ns: 5, busy: 0},
	}
	if !reflect.DeepEqual(totals, want) {
		t.Errorf("layerTotals = %+v, want %+v", totals, want)
	}
}

func TestCompareVerdict(t *testing.T) {
	lower := metricDef{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rounds_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		b    []float64
		want string
	}{
		{"same", lower, steady, "ok"},
		{"slower within the bound", lower, []float64{108, 109, 107, 108, 108}, "ok"},
		{"slower beyond the bound", lower, []float64{115, 116, 114, 115, 115}, "worse"},
		{"faster", lower, []float64{80, 81, 79, 80, 80}, "ok"},
		{"throughput down", higher, []float64{85, 86, 84, 85, 85}, "worse"},
		{"throughput up", higher, []float64{120, 121, 119, 120, 120}, "ok"},
		{"too noisy to tell", lower, []float64{80, 140, 100, 160, 90}, "unresolved"},
	} {
		if _, got := verdict(c.def, steady, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json repeats the program's tables; they must not drift apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory:", err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	if want := perLayerNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("per-layer metrics: BENCHMARK.json has %v, the program emits %v", names, want)
	}
}
